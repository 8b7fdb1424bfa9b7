"""Structured diagnostics for the perfctr configuration linter.

Every check in :mod:`repro.analysis` — and every runtime validator
that shares its logic (``core.perfctr.counters``) — reports problems
as :class:`Diagnostic` objects with a *stable* code, so tooling can
filter, count and assert on them, and error text can evolve without
breaking automation.

Code ranges mirror the five analyzers:

======  =====================================================
LK1xx   group/PMU feasibility (events, counters, matching)
LK2xx   metric-formula static analysis
LK3xx   register write-path / encoding checks
LK4xx   affinity and uncore socket-lock analysis
LK5xx   crash-safety: journal write-surface verification
LK6xx   protocol & resource-safety (CFG/dataflow typestate)
======  =====================================================

The full catalog with one example per code lives in
``docs/linting.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR``    the configuration cannot work (runtime would raise);
    ``WARNING``  the configuration works but is wrong or wasteful;
    ``NOTE``     informational (expected behaviour worth knowing,
                 e.g. a CPI denominator that can legitimately be 0).
    Only errors and warnings gate ``repro-lint --strict``.
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


# Stable code → short title (the catalog; messages add specifics).
CODES: dict[str, str] = {
    # LK1xx — group/PMU feasibility
    "LK101": "event not defined in the architecture's event table",
    "LK102": "counter does not exist on this architecture",
    "LK103": "counter assigned more than once in a group",
    "LK104": "no conflict-free event-to-counter matching exists",
    "LK105": "group oversubscribes counters (multiplexing required)",
    "LK106": "event cannot be scheduled on any counter (multiplexing infeasible)",
    "LK107": "counter width risks overflow within a measurement window",
    "LK110": "fixed event bound to the wrong counter",
    "LK111": "options given for a fixed counter",
    "LK112": "uncore event bound to a non-uncore counter",
    "LK113": "core event bound to a non-core counter",
    "LK114": "event not countable on the selected general counter",
    # LK2xx — formula static analysis
    "LK201": "formula references an unmeasured identifier",
    "LK202": "event measured but unused by any metric",
    "LK203": "denominator is a raw counter (division-by-zero hazard)",
    "LK204": "formula does not parse",
    # LK3xx — register write-path
    "LK301": "event code exceeds the PERFEVTSEL event field width",
    "LK302": "unit mask exceeds the PERFEVTSEL umask field width",
    "LK303": "counter mask exceeds the PERFEVTSEL cmask field width",
    "LK304": "encoding touches reserved PERFEVTSEL bits",
    "LK305": "fixed-counter index outside the architectural range",
    "LK306": "counter register addresses collide",
    # LK4xx — affinity / socket locks
    "LK401": "measured threads oversubscribe a physical core",
    "LK402": "skip mask inconsistent with the core list or thread type",
    "LK403": "multiple measured threads share one uncore socket lock",
    "LK404": "invalid affinity expression or skip mask",
    # LK5xx — crash-safety / journal write surface
    "LK501": "raw MSR write bypasses the write-ahead journal API",
    "LK502": "tool-layer write target missing from the journal's "
             "state-mutating classification",
    "LK503": "CLI front-end constructs MsrDriver directly instead of "
             "using the access-backend API",
    # LK6xx — protocol & resource-safety (CFG/dataflow typestate)
    "LK601": "resource lifecycle violated on some control-flow path "
             "(leak, double-start or use-after-close)",
    "LK602": "socket-lock protocol violated (unreleased path, missing "
             "epoch on release, or removal without epoch compare)",
    "LK603": "raw device write not dominated by a journal append",
    "LK604": "inconsistent lock-acquisition order across functions "
             "(deadlock hazard)",
    "LK605": "tracer span unbalanced (never entered, or not exited "
             "on some path)",
    "LK609": "unused `# lk: disable` suppression",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static verification pass.

    ``locus`` names the configuration artefact the finding is about —
    a group source (``groupfile:nehalem_ep/MEM.txt``, or ``group:MEM``
    for a single ``-g`` group), an event table (``events:amd_k8``), a
    register layout (``registers:core2``) or a pin expression
    (``affinity:0-3``).  ``column`` is the 1-based position inside a
    metric formula when the finding points at a token.
    """

    code: str
    severity: Severity
    message: str
    arch: str | None = None
    group: str | None = None
    locus: str | None = None
    column: int | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def title(self) -> str:
        return CODES[self.code]

    def __str__(self) -> str:
        where = ":".join(p for p in (self.arch, self.group) if p)
        prefix = f"{where}: " if where else ""
        col = f" (column {self.column})" if self.column is not None else ""
        return f"{prefix}{self.code} {self.severity.value}: {self.message}{col}"

    def to_json(self) -> dict:
        """Stable, sorted-key mapping for the JSON reporter."""
        return {
            "arch": self.arch,
            "code": self.code,
            "column": self.column,
            "group": self.group,
            "locus": self.locus,
            "message": self.message,
            "severity": self.severity.value,
            "title": self.title,
        }


def sort_key(diag: Diagnostic) -> tuple:
    """Deterministic report order: arch, locus, group, code, message."""
    return (diag.arch or "", diag.locus or "", diag.group or "",
            diag.code, diag.message)


def counts(diags: list[Diagnostic]) -> dict[str, int]:
    out = {"errors": 0, "warnings": 0, "notes": 0}
    for d in diags:
        if d.severity is Severity.ERROR:
            out["errors"] += 1
        elif d.severity is Severity.WARNING:
            out["warnings"] += 1
        else:
            out["notes"] += 1
    return out
