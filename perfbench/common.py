"""Plumbing shared by the workloads: the round loop, the traced run,
percentiles, host-speed scaling and the end-to-end metrics."""

from __future__ import annotations

import contextlib
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.layers import (PER_LAYER_UNITS, TARGETS, add_delta,
                              layer_metrics, snapshot)
from perfbench.spans import SpanRecorder, clock, write_chrome_trace

ROOT = Path(__file__).resolve().parents[1]
#: Run artefacts (traces, bytecode caches, child span dumps).
OUT_DIR = ROOT / ".perfbench-out"

#: End-to-end metrics: name -> unit.  An operation is a server session,
#: a CLI invocation or one STREAM run, depending on the workload.
E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Cap on error messages kept per run (the counts are exact).
MAX_MESSAGES = 20


@dataclass
class Round:
    """What one round of a workload measured and checked."""

    ops: int
    elapsed: float                 # host seconds of the timed region
    latencies: list[float]         # host seconds per operation
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup: float | None = None     # host seconds of this round's set-up
    #: Thread CPU seconds per operation, for a workload whose
    #: operations run in this thread; the tail is then taken from
    #: these, unscaled (see :func:`drive`).
    cpu_latencies: list[float] | None = None
    extra: dict = field(default_factory=dict)
    slowness: float = 1.0          # host speed reading around the round


class Tracing:
    """The traced run's recorder, plus the stats of timed regions
    only (set-up and output checks are kept out of the per-operation
    layer figures)."""

    def __init__(self):
        self.rec = SpanRecorder()
        self.timed: dict[str, list] = {}
        self.covered = 0.0
        self.children: list = []   # (pid, spans) of traced child processes

    def merge_child(self, doc: dict, pid: int) -> None:
        """Fold one traced child process (a whole timed operation)."""
        self.rec.merge(doc)
        add_delta(self.timed, {}, doc["stats"])
        self.covered += doc["covered"]
        self.children.append((pid, doc["spans"]))


@contextlib.contextmanager
def installed(tr: Tracing | None):
    """Wrappers in place for the block (no-op when untraced)."""
    if tr is None:
        yield
        return
    tr.rec.install(TARGETS)
    try:
        yield
    finally:
        tr.rec.uninstall()


@contextlib.contextmanager
def timed_region(tr: Tracing | None):
    if tr is None:
        yield
        return
    before = snapshot(tr.rec)
    covered = tr.rec.covered
    try:
        yield
    finally:
        add_delta(tr.timed, before, tr.rec.stats)
        tr.covered += tr.rec.covered - covered


def op_span(tr: Tracing | None, tid: str):
    """A ``bench.op`` span that gives one operation's spans its id."""
    if tr is None:
        return contextlib.nullcontext()
    return tr.rec.span("bench.op", tid)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Blocks a run's latencies are cut into for the tail percentile.
TAIL_BLOCKS = 8


def block_tail(latencies: list[float], q: int) -> float:
    """The median, over :data:`TAIL_BLOCKS` equal blocks of consecutive
    operations, of each block's ``q``-th percentile latency.  A slow
    stretch of the host then moves a few blocks' tails rather than the
    run's."""
    n = max(1, min(TAIL_BLOCKS, len(latencies) // 2))
    size = len(latencies) / n
    return statistics.median(
        percentile(latencies[round(i * size):round((i + 1) * size)], q)
        for i in range(n))


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """One workload run, ready to print."""

    workload: str
    attempted: int
    failed: int
    errors: list[str]
    metrics: dict[str, float]
    units: dict[str, str]
    notes: list[str] = field(default_factory=list)


#: Seconds one pass of :func:`_reference_pass` takes at nominal host
#: speed (its median on the 2-vCPU x86-64 VM, Python 3.11, that the
#: benchmark was tuned on).
REFERENCE_S = 5e-4
REFERENCE_PASSES = 7


def _reference_pass() -> None:
    counts: dict[int, int] = {}
    for i in range(4000):
        key = i & 63
        counts[key] = counts.get(key, 0) + i


def host_slowness() -> float:
    """How slowly the host runs Python right now, relative to nominal:
    the median time of a few passes of a fixed loop that touches no
    ``repro`` code, over :data:`REFERENCE_S`.

    The benchmark host's speed drifts by up to 1.6x over minutes (a
    shared machine), which moves whole runs.  Every round is bracketed
    by two readings, and its times are divided by their mean: the
    end-to-end metrics are times at nominal host speed.  A change to
    the program does not change the reference loop."""
    times = []
    for _ in range(REFERENCE_PASSES):
        began = clock()
        _reference_pass()
        times.append(clock() - began)
    return statistics.median(times) / REFERENCE_S


def bracketed(fn, *args):
    """``fn(*args)`` between two :func:`host_slowness` readings;
    returns its result and their mean."""
    before = host_slowness()
    result = fn(*args)
    return result, (before + host_slowness()) / 2


def _round(run_round, index: int, tr, bracket) -> Round:
    result, slowness = bracket(run_round, index, tr)
    result.slowness = slowness
    return result


def run_rounds(seconds: float, run_round, bracket=bracketed
               ) -> list[Round]:
    """Rounds 0, 1, ... until their timed regions add up to
    ``seconds`` (set-up and checks do not count)."""
    rounds = []
    measured = 0.0
    while not rounds or measured < seconds:
        rounds.append(_round(run_round, len(rounds), None, bracket))
        measured += rounds[-1].elapsed
    return rounds


def drive(workload: str, *, seconds: float, trace: bool, seed: int,
          run_round, setups: list[float], tail_q: int,
          children_rss: bool = False,
          layer_extra=None, bracket=bracketed) -> Outcome:
    """Run a workload's rounds and turn them into an :class:`Outcome`.

    ``run_round(index, tr)`` runs round ``index`` (``-1`` is the
    warm-up) with tracing ``tr`` or None.  ``setups`` are set-up times
    the workload took before its rounds, already scaled to nominal
    host speed.  Untraced, the end-to-end metrics come from every
    round after the warm-up, each time divided by its round's
    slowness: ``bracket(run_round, index, tr)`` returns the round and
    the host speed reading around it (by default :func:`bracketed`,
    see :func:`host_slowness`).  When the rounds carry
    ``cpu_latencies``, the tail is their percentile instead, unscaled:
    the thread's CPU time leaves out the moments the host takes the
    CPU away, which otherwise decide a p99, and the reference loop's
    speed tracks that of long operations poorly.  Traced, rounds
    run untraced for half the time, then as many further rounds run
    traced, and only per-layer metrics are reported; the ratio of the
    two halves' wall time per operation is the tracing overhead.
    (The traced half gets fresh inputs: replaying the untraced inputs
    would find the program's own caches warm.)"""
    warm = _round(run_round, -1, None, bracket)
    if not trace:
        rounds = run_rounds(seconds, run_round, bracket)
        everything = [warm] + rounds
        latencies = [x / r.slowness for r in rounds for x in r.latencies]
        setups = list(setups) + [r.setup / r.slowness for r in everything
                                 if r.setup is not None]
        metrics = {
            "ops_per_s": statistics.median(r.ops * r.slowness / r.elapsed
                                           for r in rounds),
            "op_ms_p50": statistics.median(latencies) * 1e3,
            "op_ms_tail": block_tail(_tail_source(rounds, latencies),
                                     tail_q) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(children_rss),
        }
        raw = [x for r in rounds for x in r.latencies]
        cpu = "" if rounds[0].cpu_latencies is None else " of cpu time"
        notes = [f"rounds={len(rounds)} ops={len(latencies)} "
                 f"tail=p{tail_q}{cpu} setups={len(setups)}",
                 f"host slowness median "
                 f"{statistics.median(r.slowness for r in everything):.3f}"
                 f"; unscaled: ops_per_s "
                 f"{statistics.median(r.ops / r.elapsed for r in rounds):.6g}"
                 f", op_ms_p50 {statistics.median(raw) * 1e3:.6g}"]
        return _outcome(workload, everything, metrics, E2E_UNITS, notes)
    plain = run_rounds(seconds / 2, run_round, bracket)
    tr = Tracing()
    traced = [_round(run_round, i, tr, bracket)
              for i in range(len(plain), 2 * len(plain))]
    ops = sum(r.ops for r in traced)
    wall = sum(r.elapsed for r in traced)
    plain_wall = sum(r.elapsed / r.slowness for r in plain)
    extra = {"trace.attributed_ratio": tr.covered / wall,
             "trace.overhead_ratio":
                 (sum(r.elapsed / r.slowness for r in traced) / ops)
                 / (plain_wall / sum(r.ops for r in plain))}
    if layer_extra is not None:
        extra.update(layer_extra(traced))
    metrics = layer_metrics(tr.timed, tr.rec.stats, ops, extra)
    path = _write_trace(tr, workload, seed)
    notes = [f"traced rounds={len(traced)} ops={ops}; untraced rounds="
             f"{len(plain)}", f"trace written to {path}"]
    return _outcome(workload, [warm] + plain + traced, metrics,
                    PER_LAYER_UNITS, notes)


def _tail_source(rounds: list[Round], latencies: list[float]
                 ) -> list[float]:
    if rounds[0].cpu_latencies is None:
        return latencies
    return [x for r in rounds for x in r.cpu_latencies]


def _outcome(workload, rounds, metrics, units, notes) -> Outcome:
    errors = [e for r in rounds for e in r.errors]
    return Outcome(workload=workload,
                   attempted=sum(r.ops for r in rounds),
                   failed=sum(r.failed for r in rounds),
                   errors=errors[:MAX_MESSAGES],
                   metrics=metrics, units=units, notes=notes)


def _write_trace(tr: Tracing, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    spans = tr.rec.export()["spans"]
    t0 = min([s[1] for s in spans] +
             [s[1] for _pid, child in tr.children for s in child],
             default=0.0)
    events = SpanRecorder.chrome_events(spans, pid=0, t0=t0)
    for pid, child in tr.children:
        events.extend(SpanRecorder.chrome_events(child, pid=pid, t0=t0))
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    write_chrome_trace(path, events, {"workload": workload, "seed": seed,
                                      "dropped_spans": tr.rec.dropped})
    return path
