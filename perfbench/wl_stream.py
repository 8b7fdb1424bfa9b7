"""The stream-pinning workload: the paper's Fig. 4/5 STREAM triad study
on ``westmere_ep``, in process, through
``repro.workloads.stream.stream_samples``.

Each round sweeps the thread counts with pinned and unpinned samples
(one ``stream_samples`` call, one simulated STREAM run, per
operation) on a machine of its own.  The round's set-up -- machine
creation plus one pinned warm-up run at every thread count -- is one
``setup_s`` sample, so the samples are spread through the run.
"""

from __future__ import annotations

import time

from perfbench import checks
from perfbench.common import (Round, drive, installed, op_span,
                              timed_region)
from perfbench.generators import (STREAM_ARCH, STREAM_THREADS,
                                  stream_calls)
from perfbench.spans import clock
# Called through their modules, so that traced runs see the wrappers.
from repro.hw import arch
from repro.workloads import stream

COMPILER = "icc"
#: p99 of run latency (of thread CPU time, see ``common.drive``):
#: thousands of runs per run.
TAIL_Q = 99


def _setup(tr):
    with installed(tr):
        began = clock()
        machine = arch.create_machine(STREAM_ARCH)
        for n in STREAM_THREADS:
            stream.stream_samples(machine, nthreads=n,
                                  compiler=COMPILER, pinned=True,
                                  samples=1, seed=0)
        return machine, clock() - began


def run(workload: str, *, seed: int, seconds: float, trace: bool):
    pooled: dict[tuple[int, bool], list[float]] = {}

    def run_round(index: int, tr) -> Round:
        calls = stream_calls(seed, index)
        samples: dict[tuple[int, bool], list[float]] = {}
        latencies, cpu = [], []
        machine, setup = _setup(tr)     # traced, but not timed
        with installed(tr), timed_region(tr):
            began = clock()
            for i, call in enumerate(calls):
                start, cpu_start = clock(), time.thread_time()
                with op_span(tr, f"r{index}/{i}"):
                    bandwidth = stream.stream_samples(
                        machine, nthreads=call.nthreads,
                        compiler=COMPILER, pinned=call.pinned,
                        samples=1, seed=call.seed)[0]
                latencies.append(clock() - start)
                cpu.append(time.thread_time() - cpu_start)
                samples.setdefault((call.nthreads, call.pinned),
                                   []).append(bandwidth)
            elapsed = clock() - began
        if tr is not None:
            tr.rec.resolve_ids({})
        for key, values in samples.items():
            pooled.setdefault(key, []).extend(values)
        errors = checks.stream_round_errors(samples)
        return Round(ops=len(calls), elapsed=elapsed, latencies=latencies,
                     failed=len(calls) if errors else 0, errors=errors,
                     setup=setup, cpu_latencies=cpu)

    outcome = drive(workload, seconds=seconds, trace=trace, seed=seed,
                    run_round=run_round, setups=[], tail_q=TAIL_Q)
    spread = checks.stream_spread_errors(pooled)
    if spread:
        outcome.errors.extend(spread)
        outcome.failed = outcome.attempted
    return outcome
