"""Group/PMU feasibility analysis (LK10x, LK11x).

Answers, without touching the MSR driver: *can this event set actually
be programmed on this architecture's PMU?*  Resolution errors (unknown
events/counters, duplicates) come first; for resolvable sets the
analyzer reuses the shared assignment rules of
:mod:`repro.analysis.checks` and then asks the global question the
runtime never does — whether a conflict-free event→counter matching
exists at all, via bipartite matching over each event's feasible
counter set (Kuhn's augmenting-path algorithm).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.checks import assignment_diagnostic
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.core.perfctr.counters import counter_map_for
from repro.core.perfctr.events import EventSpec
from repro.errors import CounterError, EventError
from repro.hw.events import CounterScope, EventDef
from repro.hw.spec import ArchSpec


def _match(feasible: list[set[int]], num_slots: int) -> int:
    """Maximum bipartite matching size: events × counter slots."""
    owner: dict[int, int] = {}   # slot -> event index

    def augment(ev: int, seen: set[int]) -> bool:
        for slot in feasible[ev]:
            if slot in seen:
                continue
            seen.add(slot)
            if slot not in owner or augment(owner[slot], seen):
                owner[slot] = ev
                return True
        return False

    matched = 0
    for ev in range(len(feasible)):
        if augment(ev, set()):
            matched += 1
    return matched


def lint_events(spec: ArchSpec, event_specs: Iterable[EventSpec],
                *, group: str | None = None,
                locus: str | None = None) -> list[Diagnostic]:
    """All feasibility diagnostics for one event set on one arch."""
    counters = counter_map_for(spec)
    diags: list[Diagnostic] = []

    def diag(code: str, severity: Severity, message: str) -> None:
        diags.append(Diagnostic(code, severity, message, arch=spec.name,
                                group=group, locus=locus))

    # Schedulability is a property of the *event set*, not of the
    # counters it happens to request — so every event whose name
    # resolves takes part in the matching below, even when its
    # explicit binding was rejected.
    resolved: list[EventDef] = []
    used_counters: set[str] = set()
    for es in event_specs:
        try:
            event = spec.events.lookup(es.event)
        except EventError:
            diag("LK101", Severity.ERROR,
                 f"event {es.event!r} is not defined in the "
                 f"{spec.name} event table")
            continue
        resolved.append(event)
        try:
            counter = counters.lookup(es.counter)
        except CounterError:
            diag("LK102", Severity.ERROR,
                 f"no counter {es.counter!r} on {spec.name}")
            continue
        if es.counter in used_counters:
            diag("LK103", Severity.ERROR,
                 f"counter {es.counter} assigned twice")
        used_counters.add(es.counter)
        bad = assignment_diagnostic(event, counter, es.options,
                                    arch=spec.name, group=group, locus=locus)
        if bad is not None:
            diags.append(bad)

    for scope, slots, kind in ((CounterScope.CORE, spec.pmu.num_pmcs, "PMC"),
                               (CounterScope.UNCORE,
                                spec.pmu.num_uncore_pmcs, "UPMC")):
        gp = [ev for ev in resolved
              if ev.scope is scope and not ev.is_fixed]
        if not gp:
            continue
        feasible: list[set[int]] = []
        schedulable: list[EventDef] = []
        for ev in gp:
            if scope is CounterScope.UNCORE:
                allowed = set(range(slots))
            else:
                allowed = {i for i in range(slots) if ev.allowed_on(i)}
            if not allowed:
                diag("LK106", Severity.ERROR,
                     f"{ev.name} cannot be scheduled on any {kind} "
                     f"of {spec.name} (its counter restriction excludes "
                     "all of them); not even multiplexing can measure it")
                continue
            feasible.append(allowed)
            schedulable.append(ev)
        if len(schedulable) > slots:
            diag("LK105", Severity.WARNING,
                 f"{len(schedulable)} events compete for {slots} {kind} "
                 "counters; multiplexing is required and counts will be "
                 "extrapolated")
        elif _match(feasible, slots) < len(schedulable):
            names = ", ".join(ev.name for ev in schedulable)
            diag("LK104", Severity.ERROR,
                 f"no conflict-free counter assignment exists for "
                 f"{names}: their counter restrictions collide")
    return diags
