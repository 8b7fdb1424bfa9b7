"""The session hot path re-derives no per-arch state.

The group catalog, the metric formulas and the counter map are fixed
for an architecture, so once one session has run, further sessions on
that arch must not re-read group files, re-parse formulas or rebuild
counter maps.  The compiled-formula path must also give exactly the
numbers the text evaluator gives.
"""

import math
import struct
from collections import Counter

import pytest

import repro.core.perfctr.counters as counters_mod
import repro.core.perfctr.formula as formula_mod
import repro.core.perfctr.groupfile as groupfile_mod
from repro.core.perfctr import LikwidPerfCtr
from repro.core.perfctr.measurement import MeasurementResult, derive_metrics
from repro.core.perfctr.groups import groups_for
from repro.hw.arch import ARCH_SPECS, create_machine, get_arch
from repro.hw.events import Channel

GROUPS = ("FLOPS_DP", "MEM", "BRANCH")
COUNTS = {Channel.FLOPS_PACKED_DP: 1e6, Channel.FLOPS_SCALAR_DP: 2e5,
          Channel.INSTRUCTIONS: 4e6, Channel.CORE_CYCLES: 8e6,
          Channel.BRANCHES: 3e5, Channel.BRANCH_MISSES: 1e4,
          Channel.DRAM_READS: 5e4, Channel.DRAM_WRITES: 2e4}


def _cycle(machine, group):
    """One full server-style session: resolve, program, count, read."""
    session = LikwidPerfCtr(machine).session([0, 1], group)
    try:
        session.start()
        machine.apply_counts({cpu: COUNTS for cpu in (0, 1)})
        session.stop()
        return session.read()
    finally:
        session.close()


def test_warm_sessions_rederive_nothing(monkeypatch):
    machine = create_machine("westmere_ep")
    warm = {group: _cycle(machine, group) for group in GROUPS}

    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(groupfile_mod, "parse_group_file",
                        counting("parse_group_file",
                                 groupfile_mod.parse_group_file))
    monkeypatch.setattr(formula_mod, "parse",
                        counting("formula.parse", formula_mod.parse))
    monkeypatch.setattr(counters_mod.CounterMap, "__init__",
                        counting("CounterMap",
                                 counters_mod.CounterMap.__init__))
    for i in range(20):
        group = GROUPS[i % len(GROUPS)]
        result = _cycle(machine, group)
        assert result.metrics == warm[group].metrics
    assert calls == Counter()


def _same(a: float, b: float) -> bool:
    """Bit-for-bit equality, with NaN equal to NaN."""
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


def _inputs(group):
    """Two fixed counter sets for every event a group's formulas name:
    all distinct non-zero values, and every other one zero (so the
    division-by-zero NaN path runs too)."""
    names = sorted({v.name for _, text in group.metrics
                    for v in formula_mod.variables(formula_mod.parse(text))}
                   - {"time", "clock"})
    dense = {n: 1000.0 * (i + 1) + 0.25 for i, n in enumerate(names)}
    sparse = {n: (v if i % 2 else 0.0)
              for i, (n, v) in enumerate(dense.items())}
    return dense, sparse


@pytest.mark.parametrize("arch", sorted(ARCH_SPECS))
def test_compiled_metrics_equal_text_evaluation(arch):
    spec = get_arch(arch)
    cycles_events = ("CPU_CLK_UNHALTED_CORE", "CPU_CLOCKS_UNHALTED",
                     "PM_RUN_CYC")
    for name, group in sorted(groups_for(spec).items()):
        for counts in _inputs(group):
            result = MeasurementResult(cpus=[0], counts={0: dict(counts)},
                                       wall_time=0.5)
            derive_metrics(result, group, spec.clock_hz)
            variables = dict(counts)
            time = next((counts[e] / spec.clock_hz for e in cycles_events
                         if counts.get(e, 0.0) > 0), result.wall_time)
            variables["time"] = time
            variables["clock"] = spec.clock_hz
            for label, text in group.metrics:
                expected = formula_mod.evaluate(text, variables)
                got = result.metrics[0][label]
                assert _same(got, expected), (arch, name, label, got,
                                              expected)
