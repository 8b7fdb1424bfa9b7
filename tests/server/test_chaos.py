"""ChaosPlan parsing/determinism and chaos-hardened stack runs.

Every test here drives the *real* stack — ReproServer node tasks,
TCP listener, retrying clients — with seeded network faults armed
client-side, and asserts the server plane's invariants hold anyway:
exact terminal accounting, no double execution, idempotent retries.
The integration-marked acceptance test at the bottom is the PR's
headline: 1000 sessions under full chaos + msr read faults + one
mid-run SIGKILL/restart, reconciled exactly.

The chaotic-stack cases run against both client transports:
``TestChaoticStackSync`` reruns them with the blocking client in a
worker thread (see ``tests/server/transports.py``).
"""

import asyncio

import pytest

from repro.agent.fleet import NodeSpec
from repro.errors import ChaosError
from repro.server.chaos import (DELIVER, DUPLICATE, TORN_REQUEST,
                                ChaosPlan)
from repro.server.loadtest import LoadTestConfig, run_load_test
from repro.server.protocol import ProtocolServer
from repro.server.retry import RetryPolicy
from repro.server.scheduler import SessionRequest
from repro.server.server import ReproServer
from tests.server.transports import make_client

RETRIES = RetryPolicy(max_attempts=10, backoff_base=0.0005,
                      backoff_cap=0.01)


class TestPlanParsing:
    def test_aliases_map_to_rate_fields(self):
        plan = ChaosPlan.from_string(
            "seed=3,refuse=0.1,drop_request=0.2,drop_reply=0.3,"
            "torn_reply=0.4,duplicate=0.5,delay=0.6")
        assert plan.seed == 3
        assert plan.refuse_rate == 0.1
        assert plan.drop_request_rate == 0.2
        assert plan.drop_reply_rate == 0.3
        assert plan.torn_reply_rate == 0.4
        assert plan.duplicate_rate == 0.5
        assert plan.delay_rate == 0.6

    def test_canonical_names_and_hex_seed(self):
        plan = ChaosPlan.from_string("seed=0x10,drop_reply_rate=0.25")
        assert plan.seed == 16
        assert plan.drop_reply_rate == 0.25

    def test_empty_segments_tolerated(self):
        plan = ChaosPlan.from_string("refuse=0.5,,")
        assert plan.refuse_rate == 0.5

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ChaosPlan.from_string("refuse=0.1,refuse_rate=0.2")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos key"):
            ChaosPlan.from_string("explode=1.0")

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            ChaosPlan.from_string("refuse")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ChaosPlan.from_string("refuse=1.5")
        with pytest.raises(ValueError):
            ChaosPlan(drop_reply_rate=-0.1)

    def test_active_only_with_nonzero_rate(self):
        assert not ChaosPlan().active
        assert not ChaosPlan(seed=7).active
        assert ChaosPlan(duplicate_rate=0.01).active


class TestDeterminism:
    def test_same_stream_id_same_fault_sequence(self):
        plan = ChaosPlan(seed=11, drop_request_rate=0.3,
                         duplicate_rate=0.3, drop_reply_rate=0.2,
                         torn_reply_rate=0.2)
        a = plan.arm("client-x")
        b = plan.arm("client-x")
        fates = [(a.request_fate(), a.reply_fate()) for _ in range(200)]
        assert fates == [(b.request_fate(), b.reply_fate())
                         for _ in range(200)]
        assert a.injected == b.injected

    def test_different_stream_ids_diverge(self):
        plan = ChaosPlan(seed=11, drop_request_rate=0.5)
        a = plan.arm("client-x")
        b = plan.arm("client-y")
        assert [a.request_fate() for _ in range(64)] \
            != [b.request_fate() for _ in range(64)]

    def test_tear_is_a_strict_prefix(self):
        state = ChaosPlan(seed=1, drop_request_rate=1.0).arm("s")
        data = b'{"op": "ping"}\n'
        for _ in range(50):
            torn = state.tear(data)
            assert len(torn) < len(data)
            assert data.startswith(torn)
        assert state.tear(b"x") == b""

    def test_injections_are_counted_per_kind(self):
        state = ChaosPlan(seed=1, duplicate_rate=1.0).arm("s")
        for _ in range(3):
            assert state.request_fate() == DUPLICATE
        assert state.injected == {"duplicated": 3}


def _specs(n=1):
    return [NodeSpec(name=f"node{i:03d}", arch="westmere_ep", seed=i)
            for i in range(n)]


def _request(i=0, windows=1):
    return SessionRequest(node="node000", cpus=(0,), group="FLOPS_DP",
                          windows=windows, window=0.05, seed=i)


def with_chaotic_stack(coro_factory, plan, *, retry=RETRIES,
                       transport="async"):
    """Boot the stack, hand the coroutine a chaos-armed client."""
    async def runner():
        server = ReproServer.from_specs(_specs(), lease_limit=10.0)
        proto = ProtocolServer(server)
        host, port = await proto.start()
        client = make_client(transport, host, port, client_id="chaos-t",
                             retry=retry, chaos=plan)
        try:
            return await coro_factory(proto, client)
        finally:
            await client.close()
            await proto.close()
    return asyncio.run(runner())


class _ChaoticStackCases:
    """One fault kind at a time, against the live stack."""

    transport = "async"

    @pytest.mark.parametrize("kind,plan", [
        ("torn_request", ChaosPlan(seed=5, drop_request_rate=0.4)),
        ("duplicated", ChaosPlan(seed=5, duplicate_rate=0.4)),
        ("dropped_reply", ChaosPlan(seed=5, drop_reply_rate=0.4)),
        ("torn_reply", ChaosPlan(seed=5, torn_reply_rate=0.4)),
        ("delayed", ChaosPlan(seed=5, delay_rate=0.4, delay_s=0.0001)),
    ])
    def test_submits_survive_one_fault_kind(self, kind, plan):
        async def body(proto, client):
            docs = [await client.submit(_request(i)) for i in range(8)]
            assert all(d["state"] == "completed" for d in docs)
            status = await client.status()
            return docs, status, dict(client.chaos.injected)

        docs, status, injected = with_chaotic_stack(
            lambda proto, client: body(proto, client), plan,
            transport=self.transport)
        # No double execution: the server admitted exactly one session
        # per logical submission, whatever the weather.
        assert status["total"]["submitted"] == 8
        assert status["total"]["completed"] == 8
        # The seeded plan actually fired (rate 0.4 over >= 8 calls).
        assert injected.get(kind, 0) > 0

    def test_refused_connects_are_retried(self):
        plan = ChaosPlan(seed=2, refuse_rate=0.5)

        async def body(proto, client):
            doc = await client.submit(_request())
            assert doc["state"] == "completed"
            return dict(client.chaos.injected), client.retries

        injected, retries = with_chaotic_stack(
            lambda proto, client: body(proto, client), plan,
            transport=self.transport)
        assert injected.get("refused", 0) > 0
        assert retries >= injected["refused"]

    def test_duplicate_deliveries_hit_the_dedup_window(self):
        plan = ChaosPlan(seed=9, duplicate_rate=1.0)

        async def body(proto, client):
            docs = [await client.submit(_request(i)) for i in range(4)]
            assert all(d["state"] == "completed" for d in docs)
            return proto, (await client.status())["total"]

        proto, total = with_chaotic_stack(
            lambda proto, client: body(proto, client), plan,
            transport=self.transport)
        # Every submit line arrived twice; the second delivery must be
        # served from the dedup window, not executed again.
        assert total["submitted"] == 4
        assert proto.dedup_hits >= 4

    def test_dropped_replies_do_not_double_execute(self):
        plan = ChaosPlan(seed=4, drop_reply_rate=0.5)

        async def body(proto, client):
            docs = [await client.submit(_request(i)) for i in range(6)]
            sids = [(d["node"], d["session"]) for d in docs]
            assert len(set(sids)) == len(sids)
            return (await client.status())["total"], client.retries

        total, retries = with_chaotic_stack(
            lambda proto, client: body(proto, client), plan,
            transport=self.transport)
        assert total["submitted"] == 6
        assert retries > 0

    def test_unarmed_client_raises_no_chaos(self):
        async def runner():
            server = ReproServer.from_specs(_specs(), lease_limit=10.0)
            proto = ProtocolServer(server)
            host, port = await proto.start()
            client = make_client(self.transport, host, port,
                                 chaos=ChaosPlan(seed=1))
            try:
                assert client.chaos is None     # inactive plan
                doc = await client.submit(_request())
                assert doc["state"] == "completed"
            finally:
                await client.close()
                await proto.close()
        asyncio.run(runner())


class TestChaoticStack(_ChaoticStackCases):
    def test_chaos_error_is_retryable(self):
        err = ChaosError("boom", kind="torn-request")
        assert err.retryable
        assert err.code == "chaos-torn-request"


class TestChaoticStackSync(_ChaoticStackCases):
    transport = "sync"


FULL_CHAOS = ("refuse=0.05,drop_request=0.05,drop_reply=0.05,"
              "torn_reply=0.05,duplicate=0.1")


class TestChaoticLoadTest:
    def test_small_chaotic_load_test_reconciles(self):
        report = run_load_test(LoadTestConfig(
            sessions=40, clients=8, nodes=2, seed=13,
            chaos=FULL_CHAOS))
        assert report.accounting_errors() == []
        assert report.retries > 0
        assert report.chaos          # something fired

    def test_chaos_spec_reuses_config_seed(self):
        # Two runs, same seed: identical per-client fault injection.
        reports = [run_load_test(LoadTestConfig(
            sessions=30, clients=6, nodes=2, seed=21,
            chaos="duplicate=0.2")) for _ in range(2)]
        assert reports[0].chaos == reports[1].chaos
        assert reports[0].accounting_errors() == []

    @pytest.mark.integration
    def test_acceptance_1000_sessions_chaos_faults_and_kill(self):
        """The PR's acceptance bar: 1000 sessions, 100 clients, full
        chaos, 10% msr read faults, one mid-run SIGKILL + WAL
        recovery — exact accounting, zero duplicate executions, and a
        sampled bit-identity replay."""
        report = run_load_test(LoadTestConfig(
            sessions=1000, clients=100, nodes=8, tenants=4, seed=0,
            faults="read_fault_rate=0.1", chaos=FULL_CHAOS,
            kill_after=300))
        assert report.server_restarts == 1
        assert report.retries > 0
        assert report.dedup_hits > 0
        for kind in ("refused", "torn_request", "dropped_reply",
                     "torn_reply", "duplicated"):
            assert report.chaos.get(kind, 0) > 0, kind
        assert report.verify(sample=25) == []
