"""likwid-server front-end tests: all three subcommands.

``serve`` + ``submit`` are exercised against a real listener running
on a background thread (its own event loop, ephemeral port); the
load-test path runs fully in-process through ``main()``.
"""

import asyncio
import json
import threading

import pytest

from repro.agent.fleet import NodeSpec
from repro.cli.server_cmd import main
from repro.server.protocol import ProtocolServer
from repro.server.server import ReproServer


@pytest.fixture()
def live_server():
    """A real likwid-server listener on an ephemeral port, hosted on
    a background thread so the sync CLI client can talk to it."""
    started = threading.Event()
    stop = loop = None
    endpoint = {}

    def run():
        async def body():
            nonlocal stop, loop
            server = ReproServer.from_specs(
                [NodeSpec(name="node000", arch="westmere_ep"),
                 NodeSpec(name="node001", arch="westmere_ep")],
                lease_limit=10.0)
            proto = ProtocolServer(server)
            host, port = await proto.start()
            endpoint["addr"] = f"{host}:{port}"
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            started.set()
            await stop.wait()
            await proto.close()

        asyncio.run(body())

    loop_thread = threading.Thread(target=run, daemon=True)
    loop_thread.start()
    assert started.wait(timeout=10), "server thread failed to start"
    yield endpoint["addr"]
    # asyncio.Event is not thread-safe: set it from inside its loop.
    loop.call_soon_threadsafe(stop.set)
    loop_thread.join(timeout=10)
    assert not loop_thread.is_alive(), "server thread did not stop"


class TestSubmit:
    def test_completed_session_exits_zero(self, live_server, capsys):
        code = main(["submit", "--server", live_server,
                     "--node", "node000", "-c", "0,1",
                     "-g", "FLOPS_DP", "--windows", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed after 2 window(s)" in out

    def test_json_document(self, live_server, capsys):
        code = main(["submit", "--server", live_server,
                     "--node", "node001", "-c", "0", "-g", "MEM",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "completed"
        assert doc["result"]["counts"]["0"]

    def test_rejected_session_exits_one(self, live_server, capsys):
        code = main(["submit", "--server", live_server,
                     "--node", "node000", "-c", "0",
                     "-g", "NOSUCH"])
        assert code == 1
        assert "rejected" in capsys.readouterr().out

    def test_unknown_node_exits_one(self, live_server, capsys):
        code = main(["submit", "--server", live_server,
                     "--node", "ghost", "-c", "0", "-g", "MEM"])
        assert code == 1
        assert "unknown node" in capsys.readouterr().err

    def test_bad_endpoint_exits_one(self, capsys):
        code = main(["submit", "--server", "nonsense",
                     "--node", "node000", "-c", "0", "-g", "MEM"])
        assert code == 1
        assert "endpoint" in capsys.readouterr().err


class TestLoadTest:
    def test_small_run_verifies(self, capsys):
        code = main(["load-test", "--sessions", "40",
                     "--clients", "10", "--nodes", "2",
                     "--tenants", "2", "--verify"])
        captured = capsys.readouterr()
        assert code == 0
        assert "40 session(s)" in captured.out
        assert "verified" in captured.err

    def test_json_report(self, capsys):
        code = main(["load-test", "--sessions", "30",
                     "--clients", "10", "--nodes", "2",
                     "--tenants", "2", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["submitted"] == 30
        total = sum(doc["counts"][k] for k in
                    ("completed", "timed_out", "rejected",
                     "preempted", "cancelled", "failed"))
        assert total == 30

    def test_faulted_run_with_verify_sample(self, capsys):
        code = main(["load-test", "--sessions", "40",
                     "--clients", "10", "--nodes", "2",
                     "--tenants", "4",
                     "--msr-faults", "read_fault_rate=0.1",
                     "--verify", "--verify-sample", "10"])
        assert code == 0

    def test_bad_fault_spec_is_usage_error(self, capsys):
        code = main(["load-test", "--sessions", "10",
                     "--msr-faults", "bogus"])
        assert code == 2
        assert "bad --msr-faults" in capsys.readouterr().err

    def test_bad_shape_is_usage_error(self, capsys):
        code = main(["load-test", "--sessions", "0"])
        assert code == 2

    def test_chaotic_run_verifies(self, capsys):
        code = main(["load-test", "--sessions", "40",
                     "--clients", "8", "--nodes", "2",
                     "--chaos", "refuse=0.1,duplicate=0.2,"
                     "drop_reply=0.1", "--verify"])
        captured = capsys.readouterr()
        assert code == 0
        assert "robustness:" in captured.out
        assert "chaos injected:" in captured.out

    def test_chaotic_kill_run_reports_restart(self, capsys):
        code = main(["load-test", "--sessions", "60",
                     "--clients", "10", "--nodes", "2",
                     "--chaos", "drop_reply=0.1,duplicate=0.1",
                     "--kill-server-after", "20", "--verify",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["submitted"] == 60
        assert doc["server_restarts"] == 1
        assert doc["chaos_injected"]

    def test_bad_chaos_spec_is_usage_error(self, capsys):
        code = main(["load-test", "--sessions", "10",
                     "--chaos", "explode=1.0"])
        assert code == 2
        assert "bad --chaos" in capsys.readouterr().err

    def test_bad_kill_after_is_usage_error(self, capsys):
        code = main(["load-test", "--sessions", "10",
                     "--kill-server-after", "0"])
        assert code == 2


class TestAgentServerIngest:
    def test_agent_ships_batches_to_server(self, live_server, capsys):
        from repro.cli.agent_cmd import main as agent_main
        from repro.server.client import SyncServerClient, parse_endpoint
        code = agent_main(["-c", "0-1", "-g", "FLOPS_DP,MEM",
                           "--window", "0.02", "--rotations", "2",
                           "--server", live_server, "--verify",
                           "--json"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        lanes = {lane["sink"]: lane for lane in doc["lanes"]}
        assert lanes["server"]["emitted"] == doc["samples"]
        assert lanes["server"]["dropped"] == 0
        host, port = parse_endpoint(live_server)
        with SyncServerClient(host, port) as client:
            status = client.status()
        assert status["ingested"] == doc["samples"]


class TestUsage:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_serve_rejects_bad_fault_spec(self, capsys):
        code = main(["serve", "--msr-faults", "nope"])
        assert code == 2
