"""The performance-group file format (likwid's ``groups/<arch>/*.txt``).

Real LIKWID defines its preconfigured event groups as small text files
per architecture, so users can add their own groups without
recompiling.  This module implements that format::

    SHORT Double Precision MFlops/s

    EVENTSET
    FIXC0 INSTR_RETIRED_ANY
    PMC0  FP_COMP_OPS_EXE_SSE_FP_PACKED
    PMC1  FP_COMP_OPS_EXE_SSE_FP_SCALAR

    METRICS
    Runtime [s] FIXC1/clock
    CPI  FIXC1/FIXC0
    DP MFlops/s  1.0E-06*(PMC0*2.0+PMC1)/time

    LONG
    Double precision SSE flop rate, packed ops counted twice.

Metric formulas reference *counter names* (the likwid convention); the
loader rewrites them to event names using the EVENTSET mapping so the
rest of the measurement stack stays counter-agnostic.

The shipped group files under ``groupfiles/<arch>/`` are the only
group catalog; :func:`repro.core.perfctr.groups.groups_for` loads them.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.perfctr.events import EventSpec
from repro.errors import GroupError

GROUPFILE_ROOT = Path(__file__).parent / "groupfiles"

_COUNTER_TOKEN = re.compile(r"\b(PMC\d+|FIXC\d+|UPMC\d+|UFIXC\d+)\b")

# Auto-counted fixed events: formulas may reference FIXC0..2 without
# the EVENTSET listing them (they are always measured on Intel).
_IMPLICIT_FIXED = {
    "FIXC0": "INSTR_RETIRED_ANY",
    "FIXC1": "CPU_CLK_UNHALTED_CORE",
    "FIXC2": "CPU_CLK_UNHALTED_REF",
}


def parse_group_file(text: str, *, name: str = "?") -> "ParsedGroup":
    """Parse one group file into its sections."""
    short = ""
    long_lines: list[str] = []
    events: list[tuple[str, str]] = []     # (counter, event)
    metrics: list[tuple[str, str]] = []    # (label, formula)
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("SHORT"):
            short = line[5:].strip()
            continue
        if line == "EVENTSET":
            section = "events"
            continue
        if line == "METRICS":
            section = "metrics"
            continue
        if line == "LONG":
            section = "long"
            continue
        if section == "events":
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise GroupError(
                    f"group {name}: malformed EVENTSET line {line!r}")
            events.append((parts[0], parts[1].strip()))
        elif section == "metrics":
            # Label and formula are separated by two-or-more spaces or
            # a tab; formulas themselves contain single spaces rarely.
            m = re.split(r"\s{2,}|\t", line, maxsplit=1)
            if len(m) != 2:
                raise GroupError(
                    f"group {name}: malformed METRICS line {line!r} "
                    "(label and formula must be separated by 2+ spaces)")
            metrics.append((m[0].strip(), m[1].strip()))
        elif section == "long":
            long_lines.append(raw)
        else:
            raise GroupError(
                f"group {name}: content outside any section: {line!r}")
    if not events:
        raise GroupError(f"group {name}: empty EVENTSET")
    return ParsedGroup(name=name, short=short, events=events,
                       metrics=metrics, long="\n".join(long_lines).strip())


class ParsedGroup:
    """Raw sections of one parsed group file."""

    def __init__(self, name: str, short: str,
                 events: list[tuple[str, str]],
                 metrics: list[tuple[str, str]], long: str):
        self.name = name
        self.short = short
        self.events = events
        self.metrics = metrics
        self.long = long

    def counter_to_event(self) -> dict[str, str]:
        mapping = dict(_IMPLICIT_FIXED)
        for counter, event in self.events:
            mapping[counter] = event
        return mapping

    def rewritten_metrics(self) -> list[tuple[str, str]]:
        """Metric formulas with counter names replaced by event names."""
        mapping = self.counter_to_event()

        def replace(match: re.Match) -> str:
            counter = match.group(1)
            try:
                return mapping[counter]
            except KeyError:
                raise GroupError(
                    f"group {self.name}: formula references {counter} "
                    "which the EVENTSET does not define") from None

        return [(label, _COUNTER_TOKEN.sub(replace, formula))
                for label, formula in self.metrics]

    def event_specs(self) -> tuple[EventSpec, ...]:
        return tuple(EventSpec(event, counter)
                     for counter, event in self.events)


def load_group_dir(arch_dir: Path) -> dict[str, ParsedGroup]:
    """Load every ``*.txt`` group file of one architecture directory."""
    groups: dict[str, ParsedGroup] = {}
    for path in sorted(arch_dir.glob("*.txt")):
        name = path.stem
        groups[name] = parse_group_file(path.read_text(), name=name)
    return groups


def groupfile_dir(arch: str) -> Path:
    return GROUPFILE_ROOT / arch
