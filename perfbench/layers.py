"""Which entry points are wrapped, and the per-layer metrics computed
from what the wrappers recorded.

Each span is named after the layer that owns the wrapped function.
Times are self time: a span's duration minus the spans nested in it.
"""

from __future__ import annotations

from perfbench.spans import SpanRecorder, Target


def _reply_session(args, result):
    """``node/session`` of a protocol reply (submit and wait ops)."""
    if isinstance(result, dict) and "session" in result \
            and "node" in result:
        return f"{result['node']}/{result['session']}"
    return None


def _node_session(args, result):
    return f"{args[0].name}/{result.id}" if result is not None else None


def _node(args, result):
    return args[0].name


def _self_obj(args, result):
    return f"obj:{id(args[0])}"


def _result_obj(args, result):
    return f"obj:{id(result)}" if result is not None else None


_MEAS = "repro.core.perfctr.measurement"

TARGETS = (
    # server
    Target("server.client.call", "repro.server.client",
           "ServerClient.call", _reply_session),
    Target("server.protocol.dispatch", "repro.server.protocol",
           "ProtocolServer.dispatch", _reply_session),
    Target("server.scheduler.submit", "repro.server.scheduler",
           "NodeScheduler.submit", _node_session),
    Target("server.scheduler.step", "repro.server.scheduler",
           "NodeScheduler.step", _node),
    # core.perfctr
    Target("core.perfctr.resolve", _MEAS, "LikwidPerfCtr.session",
           _result_obj),
    Target("core.perfctr.program", _MEAS, "PerfCtrSession.start",
           _self_obj),
    Target("core.perfctr.read", _MEAS, "PerfCtrSession.stop", _self_obj),
    Target("core.perfctr.read", _MEAS, "PerfCtrSession.read", _self_obj),
    Target("core.perfctr.groupfile_parse", "repro.core.perfctr.groupfile",
           "parse_group_file"),
    Target("core.perfctr.formula_parse", "repro.core.perfctr.formula",
           "parse"),
    # oskern
    Target("oskern.journal_record", "repro.oskern.journal",
           "MsrJournal.record_write"),
    Target("oskern.recover", "repro.oskern.recovery",
           "RecoveryEngine.recover"),
    Target("oskern.place_thread", "repro.oskern.scheduler",
           "OSKernel.place_thread"),
    # hw
    Target("hw.apply_counts", "repro.hw.machine", "SimMachine.apply_counts"),
    Target("hw.create_machine", "repro.hw.arch", "create_machine"),
    # workloads / agent
    Target("workloads.window", "repro.agent.scheduler",
           "SyntheticLoad.__call__", _self_obj),
    Target("workloads.stream_samples", "repro.workloads.stream",
           "stream_samples"),
    Target("workloads.run_stream", "repro.workloads.stream", "run_stream"),
    # model.ecm
    Target("model.ecm.solve", "repro.model.ecm", "solve"),
)

#: Per-layer metrics: name -> (unit, how it is computed).  "self"
#: is self time per operation, "calls" is calls per operation, where
#: an operation is a server session, a CLI invocation or a STREAM run.
PER_LAYER = {
    "core.perfctr.resolve_s": ("s/op", "self", "core.perfctr.resolve"),
    "core.perfctr.groupfile_parses_per_session":
        ("1/op", "calls", "core.perfctr.groupfile_parse"),
    "core.perfctr.formula_parses_per_session":
        ("1/op", "calls", "core.perfctr.formula_parse"),
    "core.perfctr.program_s": ("s/op", "self", "core.perfctr.program"),
    "core.perfctr.read_s": ("s/op", "self", "core.perfctr.read"),
    "oskern.journal_records_per_session":
        ("1/op", "calls", "oskern.journal_record"),
    "oskern.recover_s": ("s/op", "self", "oskern.recover"),
    "oskern.place_thread_s": ("s/op", "self", "oskern.place_thread"),
    "oskern.place_thread_calls": ("1/op", "calls", "oskern.place_thread"),
    "server.client.call_s": ("s/op", "self", "server.client.call"),
    "server.protocol.dispatch_s":
        ("s/op", "self", "server.protocol.dispatch"),
    "server.scheduler.submit_s":
        ("s/op", "self", "server.scheduler.submit"),
    "server.scheduler.step_s": ("s/op", "self", "server.scheduler.step"),
    "hw.apply_counts_s": ("s/op", "self", "hw.apply_counts"),
    "hw.apply_counts_calls": ("1/op", "calls", "hw.apply_counts"),
    "workloads.window_s": ("s/op", "self", "workloads.window"),
    "workloads.run_stream_s": ("s/op", "self", "workloads.run_stream"),
    "workloads.stream_samples_s":
        ("s/op", "self", "workloads.stream_samples"),
    "model.ecm.solve_s": ("s/op", "self", "model.ecm.solve"),
    "model.ecm.solve_calls": ("1/op", "calls", "model.ecm.solve"),
    "cli.import_s": ("s/op", "self", "cli.import"),
    "cli.main_s": ("s/op", "self", "cli.main"),
}

#: Metrics a workload computes itself (0 where they do not apply).
EXTRA_UNITS = {
    "server.wire_s": "s/op",
    "server.completed_ratio": "ratio",
    "server.queue_wait_p99_virtual_s": "virtual_s",
    "hw.create_machine_s": "s/call",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
}

PER_LAYER_UNITS = {name: spec[0] for name, spec in PER_LAYER.items()}
PER_LAYER_UNITS.update(EXTRA_UNITS)


def snapshot(rec: SpanRecorder) -> dict[str, list]:
    return {name: list(st) for name, st in rec.stats.items()}


def add_delta(acc: dict[str, list], before: dict[str, list],
              now: dict[str, list]) -> None:
    """Add the stats recorded between ``before`` and ``now`` into
    ``acc`` (so set-up and checks stay out of the per-operation
    figures)."""
    for name, st in now.items():
        old = before.get(name, (0, 0.0, 0.0))
        tot = acc.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            tot[i] += st[i] - old[i]


def layer_metrics(timed: dict[str, list], all_stats: dict[str, list],
                  ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, from the timed-region stats ``timed``
    (per operation) and the whole-run stats ``all_stats`` (machine
    creation happens in setup)."""
    out = {}
    for name, (_unit, kind, span) in PER_LAYER.items():
        calls, _total, self_s = timed.get(span, (0, 0.0, 0.0))
        value = self_s if kind == "self" else calls
        out[name] = value / ops if ops else 0.0
    calls, _total, self_s = all_stats.get("hw.create_machine",
                                          (0, 0.0, 0.0))
    out["hw.create_machine_s"] = self_s / calls if calls else 0.0
    for name in EXTRA_UNITS:
        out.setdefault(name, 0.0)
    out.update(extra)
    out["trace.ops"] = float(ops)
    return out


def take_wire(rec: SpanRecorder) -> list[float]:
    """Client round trip minus server dispatch, per session whose two
    intervals were both recorded; clears the intervals (session ids
    restart with every server)."""
    calls = rec.intervals.pop("server.client.call", {})
    dispatch = rec.intervals.pop("server.protocol.dispatch", {})
    return [calls[k] - dispatch[k] for k in calls if k in dispatch]
