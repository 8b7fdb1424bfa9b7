"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import asyncio
import contextlib
import io
import json
import time

import pytest

from perfbench import checks, generators
from perfbench.layers import TARGETS
from perfbench.spans import SpanRecorder, Target
from perfbench.wl_cli import EXPECTED


# -- seeded generators ---------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(generators.SERVER_MIXES))
def test_same_seed_same_requests(workload):
    mix = generators.SERVER_MIXES[workload]
    first = generators.server_requests(mix, 7, 3)
    assert first == generators.server_requests(mix, 7, 3)
    assert first != generators.server_requests(mix, 8, 3)
    assert first != generators.server_requests(mix, 7, 4)


def test_short_mix_has_a_preempted_tail_and_shared_nodes():
    mix = generators.SERVER_MIXES["server-short"]
    requests = [r for i in range(20)
                for r in generators.server_requests(mix, 1, i)]
    long = sum(generators.is_long(mix, r) for r in requests)
    assert 0.02 < long / len(requests) < 0.08
    assert {r.node for r in requests} == {"node000", "node001", "node002"}
    windows = generators.SERVER_MIXES["server-windows"]
    assert not any(generators.is_long(windows, r) for r in
                   generators.server_requests(windows, 1, 0))


def test_same_seed_same_stream_samples():
    from repro.hw.arch import create_machine
    from repro.workloads.stream import stream_samples
    calls = generators.stream_calls(5, 0)
    assert calls == generators.stream_calls(5, 0)
    assert calls != generators.stream_calls(6, 0)
    machine = create_machine(generators.STREAM_ARCH)
    picked = [c for c in calls if c.nthreads <= 4][:12]

    def samples():
        return [stream_samples(machine, nthreads=c.nthreads,
                               compiler="icc", pinned=c.pinned,
                               samples=1, seed=c.seed)
                for c in picked]

    assert samples() == samples()


def test_same_seed_same_cli_plan():
    plan = generators.cli_invocations(3, 1)
    assert plan == generators.cli_invocations(3, 1)
    assert sorted(m for m, _ in plan) == ["perfctr_cmd", "perfctr_cmd",
                                          "pin_cmd", "topology_cmd"]


# -- accounting ----------------------------------------------------------------

def _round():
    requests = ["r0", "r1", "r2"]
    docs = [(i, {"node": "node000", "session": i + 1,
                 "state": "preempted" if i == 2 else "completed"})
            for i in range(3)]
    totals = {"submitted": 3, "completed": 2, "preempted": 1,
              "timed_out": 0, "rejected": 0, "cancelled": 0,
              "failed": 0, "pending": 0}
    return requests, docs, totals, {2}


def test_accounting_accepts_an_exact_round():
    assert checks.accounting_errors(*_round()) == []


def test_accounting_fails_on_a_dropped_document():
    requests, docs, totals, long = _round()
    errors = checks.accounting_errors(requests, docs[:-1], totals, long)
    assert any("no terminal document" in e for e in errors)


def test_accounting_fails_on_a_duplicated_document():
    requests, docs, totals, long = _round()
    errors = checks.accounting_errors(requests, docs + [docs[0]],
                                      totals, long)
    assert any("more than one" in e for e in errors)
    assert any("same session" in e for e in errors)


def test_accounting_fails_on_pending_or_wrong_state():
    requests, docs, totals, long = _round()
    assert checks.accounting_errors(requests, docs,
                                    dict(totals, pending=1), long)
    assert checks.accounting_errors(requests, docs, totals, set())


# -- stream checks -------------------------------------------------------------

def test_stream_checks_flag_a_wrong_pinned_median():
    good = {(1, True): [9500.0], (2, True): [19000.0],
            (12, True): [42000.0], (2, False): [15000.0, 19000.0]}
    assert checks.stream_round_errors(good) == []
    bad = {**good, (12, True): [40000.0]}
    assert checks.stream_round_errors(bad)


def test_fig4_spread_is_judged_on_40_sample_figures():
    import random
    rng = random.Random(0)
    low = [rng.uniform(11000, 19000) for _ in range(400)]
    high = [rng.uniform(36000, 40000) for _ in range(399)] + [30000.0]
    # One outlier widens the pool's max-min at 24 threads past 0.8x
    # the 2-thread spread; a single 40-sample figure it is not.
    assert max(high) - min(high) > 0.8 * (max(low) - min(low))
    assert checks.stream_spread_errors({(2, False): low,
                                        (24, False): high}) == []
    narrow = [rng.uniform(15000, 17000) for _ in range(400)]
    assert checks.stream_spread_errors({(2, False): narrow,
                                        (24, False): high})


# -- CLI values ----------------------------------------------------------------

def test_cli_values_round_trip_the_pinned_file():
    pinned = json.loads(EXPECTED.read_text())
    assert len(pinned) == sum(len(v) for v in
                              generators.CLI_CATALOGUE.values())
    for doc in pinned.values():
        values = checks.from_json_values(doc)
        assert checks.to_json_values(values) == doc
        assert checks.values_mismatch(values, values) == []


def test_cli_parser_reads_the_pinned_values_from_a_real_run():
    from repro.cli import perfctr_cmd
    argv = ["-c", "0-3", "-g", "FLOPS_DP", "stream_icc"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert perfctr_cmd.main(argv) == 0
    pinned = json.loads(EXPECTED.read_text())
    want = checks.from_json_values(
        pinned[generators.cli_key("perfctr_cmd", tuple(argv))])
    assert checks.values_mismatch(checks.parse_values(out.getvalue()),
                                  want) == []


def test_cli_parser_ignores_formatting_but_not_values():
    text = ("+-------+-------+\n| Event | core 0 |\n+---+---+\n"
            "| INSTR | 1.175e+07 |\n| CPI | nan |\n"
            "CPU clock:\t2.93 GHz\n")
    reformatted = ("| Event|core 0|\n|INSTR   |  11750000.0 |\n"
                   "|CPI|nan|\nCPU clock:   2.930 GHz\n")
    values = checks.parse_values(text)
    assert values == {"Event|INSTR": [1.175e7],
                      "Event|CPI": [pytest.approx(float("nan"),
                                                  nan_ok=True)],
                      "CPU clock: # GHz": [2.93]}
    assert checks.values_mismatch(checks.parse_values(reformatted),
                                  values) == []
    changed = text.replace("1.175e+07", "1.176e+07")
    assert checks.values_mismatch(checks.parse_values(changed), values)


# -- span recorder -------------------------------------------------------------

def test_untraced_run_adds_no_wrappers():
    import repro.hw.arch
    import repro.server.scheduler
    from repro.core.perfctr.measurement import PerfCtrSession
    from perfbench.common import installed
    original = repro.hw.arch.create_machine
    start = PerfCtrSession.__dict__["start"]
    with installed(None):
        assert repro.hw.arch.create_machine is original
        assert repro.server.scheduler.create_machine is original
        assert PerfCtrSession.__dict__["start"] is start


def test_wrappers_reach_callers_that_imported_by_name_and_go_away():
    import repro.hw.arch
    import repro.server.scheduler
    from repro.core.perfctr.measurement import PerfCtrSession
    original = repro.hw.arch.create_machine
    start = PerfCtrSession.__dict__["start"]
    rec = SpanRecorder()
    rec.install(TARGETS)
    try:
        assert repro.server.scheduler.create_machine is not original
        repro.server.scheduler.create_machine("core2")
        assert PerfCtrSession.__dict__["start"] is not start
    finally:
        rec.uninstall()
    assert rec.stats["hw.create_machine"][0] == 1
    assert repro.hw.arch.create_machine is original
    assert repro.server.scheduler.create_machine is original
    assert PerfCtrSession.__dict__["start"] is start


class _Toy:
    def outer(self):
        time.sleep(0.02)
        return self.inner()

    def inner(self):
        time.sleep(0.03)
        return 1

    async def coro(self):
        self.inner()
        await asyncio.sleep(0.05)      # suspended: not its own time
        return {"node": "n", "session": 4}


def test_self_time_excludes_children_and_suspension():
    targets = [Target("toy.outer", __name__, "_Toy.outer"),
               Target("toy.inner", __name__, "_Toy.inner"),
               Target("toy.coro", __name__, "_Toy.coro",
                      lambda args, result: f"{result['node']}"
                                           f"/{result['session']}")]
    rec = SpanRecorder()
    rec.install(targets)
    try:
        _Toy().outer()
        asyncio.run(_Toy().coro())
    finally:
        rec.uninstall()
    calls, total, self_s = rec.stats["toy.outer"]
    assert calls == 1 and total >= 0.05
    assert 0.015 < self_s < 0.03
    calls, total, self_s = rec.stats["toy.coro"]
    assert calls == 1 and total >= 0.08
    assert self_s < 0.02
    assert rec.intervals["toy.coro"]["n/4"] == pytest.approx(total)
    rec.resolve_ids({})
    inner_in_coro = [s for s in rec.spans if s[0] == "toy.inner"][-1]
    assert inner_in_coro[4] == "n/4"
    events = SpanRecorder.chrome_events(rec.export()["spans"])
    assert {e["ph"] for e in events} == {"X", "b", "e"}


def test_record_stores_a_span_timed_by_the_caller():
    rec = SpanRecorder()
    rec.record("cli.import", 1.0, 1.5, "cli")
    assert rec.stats["cli.import"] == [1, 0.5, 0.5]
    assert rec.covered == 0.5
    assert rec.export()["spans"] == [("cli.import", 1.0, 1.5, -1, "cli",
                                      "X")]


# -- host-speed scaling --------------------------------------------------------

def test_end_to_end_times_are_scaled_to_nominal_host_speed(monkeypatch):
    from perfbench import common
    monkeypatch.setattr(common, "host_slowness", lambda: 2.0)

    def run_round(index, tr):
        return common.Round(ops=10, elapsed=1.0, latencies=[0.1] * 10,
                            setup=0.5)

    out = common.drive("x", seconds=1.0, trace=False, seed=0,
                       run_round=run_round, setups=[], tail_q=90)
    assert out.metrics["ops_per_s"] == pytest.approx(20.0)
    assert out.metrics["op_ms_p50"] == pytest.approx(50.0)
    assert out.metrics["op_ms_tail"] == pytest.approx(50.0)
    assert out.metrics["setup_s"] == pytest.approx(0.25)


def test_cpu_latencies_give_an_unscaled_tail(monkeypatch):
    from perfbench import common
    monkeypatch.setattr(common, "host_slowness", lambda: 2.0)

    def run_round(index, tr):
        return common.Round(ops=10, elapsed=1.0, latencies=[0.1] * 10,
                            cpu_latencies=[0.03] * 10)

    out = common.drive("x", seconds=1.0, trace=False, seed=0,
                       run_round=run_round, setups=[0.1], tail_q=90)
    assert out.metrics["op_ms_p50"] == pytest.approx(50.0)
    assert out.metrics["op_ms_tail"] == pytest.approx(30.0)


def test_cli_speed_reading_is_the_faster_bare_start(monkeypatch):
    from perfbench import wl_cli
    starts = iter([0.09, 0.12])
    monkeypatch.setattr(wl_cli, "invoke_timed", lambda cmd, env: next(starts))
    result, slowness = wl_cli.bare_bracketed({}, lambda x: x * 2, 21)
    assert result == 42
    assert slowness == pytest.approx(0.09 / wl_cli.BARE_REFERENCE_S)
