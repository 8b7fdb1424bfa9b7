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

The catalog is fixed for a given directory state, so it is memoized
per arch: a call costs one ``os.scandir`` of the group directory, and
the files are parsed again only when the listing, a file's mtime or
its size changed (user-dropped, edited, removed files and a patched
``GROUPFILE_ROOT`` all stay visible).  Each :class:`GroupDef` compiles
its formulas once, on first use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from repro.core.perfctr import formula as _formula
from repro.core.perfctr.events import EventSpec
from repro.core.perfctr.groupfile import groupfile_dir, load_group_dir
from repro.errors import GroupError
from repro.hw.spec import ArchSpec


@dataclass(frozen=True)
class GroupDef:
    """One preconfigured group on one architecture family."""

    name: str
    description: str
    events: tuple[EventSpec, ...]
    metrics: tuple[tuple[str, str], ...]   # (metric label, formula)

    @cached_property
    def compiled_metrics(self) -> tuple[tuple[str, str, _formula.Node], ...]:
        """``(label, formula, parsed tree)`` per metric, parsed on first
        use (not at load: one malformed user formula must not take the
        whole arch catalog down with it, and the linter reports it as
        LK204)."""
        return tuple((label, text, _formula.parse(text))
                     for label, text in self.metrics)


def _listing(arch_dir: Path) -> tuple[tuple[str, int, int], ...]:
    """``(file name, st_mtime_ns, st_size)`` of every ``*.txt`` in the
    directory, sorted: the catalog memo's validity key.  One scandir
    pass, one stat per entry."""
    try:
        with os.scandir(arch_dir) as entries:
            found = [(e.name, e.stat()) for e in entries
                     if e.name.endswith(".txt")]
    except (FileNotFoundError, NotADirectoryError):
        return ()
    return tuple(sorted((name, st.st_mtime_ns, st.st_size)
                        for name, st in found))


class _Catalog(NamedTuple):
    key: tuple                   # (directory, _listing(directory))
    spec: ArchSpec               # what ``available`` was filtered for
    files: dict[str, GroupDef]
    available: dict[str, GroupDef]


_CATALOGS: dict[str, _Catalog] = {}


def _catalog(spec: ArchSpec) -> _Catalog:
    """The arch's memoized catalog, rebuilt when the group directory
    changed (or, in tests, for a different spec of the same name)."""
    arch_dir = groupfile_dir(spec.name)
    key = (str(arch_dir), _listing(arch_dir))
    cat = _CATALOGS.get(spec.name)
    if cat is not None and cat.key == key and cat.spec is spec:
        return cat
    parsed = load_group_dir(arch_dir)
    if not parsed:
        raise GroupError(f"no group definitions for arch {spec.name!r}")
    files = {name: GroupDef(name=name,
                            description=pg.short,
                            events=pg.event_specs(),
                            metrics=tuple(pg.rewritten_metrics()))
             for name, pg in parsed.items()}
    available = {name: group for name, group in files.items()
                 if all(e.event in spec.events for e in group.events)}
    cat = _CATALOGS[spec.name] = _Catalog(key, spec, files, available)
    return cat


def file_groups_for(spec: ArchSpec) -> dict[str, GroupDef]:
    """Groups loaded from the architecture's ``groupfiles/<arch>/*.txt``
    directory (the likwid convention).  The dict is the caller's own
    copy of the memoized catalog."""
    return dict(_catalog(spec).files)


def groups_for(spec: ArchSpec) -> dict[str, GroupDef]:
    """All groups available on one architecture (validated against its
    event table, so an arch without, say, an L3 never offers L3 groups).

    Users can drop their own ``.txt`` files into the architecture's
    group-file directory, as with the real tool.  The dict is the
    caller's own copy of the memoized catalog.
    """
    return dict(_catalog(spec).available)


def lookup_group(spec: ArchSpec, name: str) -> GroupDef:
    groups = _catalog(spec).available
    try:
        return groups[name]
    except KeyError:
        raise GroupError(
            f"group {name!r} not available on {spec.name}; "
            f"available: {', '.join(sorted(groups))}") from None
