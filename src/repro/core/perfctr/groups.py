"""Preconfigured event groups ("performance groups") with derived metrics.

The paper's abstraction layer (§II.A): instead of raw event names, the
user asks for ``-g FLOPS_DP`` or ``-g MEM`` and gets the right events
on the right counters plus derived metrics.  The same group names are
provided on every architecture whose native events support them, with
per-family event selections — e.g. ``MEM`` uses the Nehalem uncore QMC
events, Core 2's L2 line traffic (its L2 is the last cache level), or
AMD's northbridge DRAM events; AMD has no fixed counters, so its
groups spend two general-purpose counters on instructions and cycles.

The groups are defined by the shipped ``groupfiles/<arch>/*.txt``
files (see :mod:`repro.core.perfctr.groupfile`), the only catalog.
Metric formulas are strings over event names plus ``time`` (seconds)
and ``clock`` (Hz), evaluated by :mod:`repro.core.perfctr.formula`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.perfctr.events import EventSpec
from repro.errors import GroupError
from repro.hw.spec import ArchSpec


@dataclass(frozen=True)
class GroupDef:
    """One preconfigured group on one architecture family."""

    name: str
    description: str
    events: tuple[EventSpec, ...]
    metrics: tuple[tuple[str, str], ...]   # (metric label, formula)


def file_groups_for(spec: ArchSpec) -> dict[str, GroupDef]:
    """Groups loaded from the architecture's ``groupfiles/<arch>/*.txt``
    directory (the likwid convention)."""
    from repro.core.perfctr.groupfile import groupfile_dir, load_group_dir
    parsed = load_group_dir(groupfile_dir(spec.name))
    if not parsed:
        raise GroupError(f"no group definitions for arch {spec.name!r}")
    return {name: GroupDef(name=name,
                           description=pg.short,
                           events=pg.event_specs(),
                           metrics=tuple(pg.rewritten_metrics()))
            for name, pg in parsed.items()}


def groups_for(spec: ArchSpec) -> dict[str, GroupDef]:
    """All groups available on one architecture (validated against its
    event table, so an arch without, say, an L3 never offers L3 groups).

    Users can drop their own ``.txt`` files into the architecture's
    group-file directory, as with the real tool.
    """
    return {name: group for name, group in file_groups_for(spec).items()
            if all(e.event in spec.events for e in group.events)}


def lookup_group(spec: ArchSpec, name: str) -> GroupDef:
    groups = groups_for(spec)
    try:
        return groups[name]
    except KeyError:
        raise GroupError(
            f"group {name!r} not available on {spec.name}; "
            f"available: {', '.join(sorted(groups))}") from None
