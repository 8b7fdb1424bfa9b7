"""Drives the analyzers over the whole configuration surface.

The unit of work is one architecture: its register layout and event
encodings, then every group of its ``groupfiles/<arch>`` directory.
Group files are per-architecture and are linted unconditionally — a
reference to an event the architecture lacks is a genuine defect
(LK101), even though :func:`~repro.core.perfctr.groups.groups_for`
would silently skip that group at runtime.

Everything operates on :class:`~repro.hw.spec.ArchSpec` and
:class:`~repro.core.perfctr.counters.CounterMap` only — no simulated
machine, no MSR driver.
"""

from __future__ import annotations

import os
import subprocess

from repro.analysis import (affinity_lint, feasibility, formula_lint,
                            journal_lint, protocol, registers_lint)
from repro.analysis.diagnostics import Diagnostic, sort_key
from repro.core.perfctr.events import EventSpec, parse_event_string
from repro.core.perfctr.groups import GroupDef, file_groups_for
from repro.errors import EventError
from repro.hw.spec import ArchSpec

lint_affinity = affinity_lint.lint_affinity


def lint_group(spec: ArchSpec, group: GroupDef,
               *, locus: str | None = None) -> list[Diagnostic]:
    """Feasibility + formula diagnostics for one group on one arch."""
    diags = feasibility.lint_events(spec, group.events,
                                    group=group.name, locus=locus)
    diags.extend(formula_lint.lint_group_formulas(spec, group, locus=locus))
    return diags


def lint_event_string(spec: ArchSpec, text: str) -> list[Diagnostic]:
    """Feasibility diagnostics for a raw EVENT:COUNTER,... string."""
    try:
        specs: list[EventSpec] = parse_event_string(text)
    except EventError as exc:
        # Unparseable strings map onto the closest catalog code.
        code = "LK103" if "assigned twice" in str(exc) else "LK101"
        from repro.analysis.diagnostics import Severity
        return [Diagnostic(code, Severity.ERROR, str(exc), arch=spec.name,
                           locus=f"events:{text}")]
    return feasibility.lint_events(spec, specs, locus=f"events:{text}")


def catalog_for(spec: ArchSpec) -> list[tuple[str, GroupDef]]:
    """(locus, group) for everything lintable on one architecture."""
    groups = file_groups_for(spec)
    return [(f"groupfile:{spec.name}/{name}.txt", groups[name])
            for name in sorted(groups)]


def lint_spec(spec: ArchSpec, *,
              include_write_sites: bool = True) -> list[Diagnostic]:
    """Every diagnostic for one architecture, deterministically ordered.

    The LK501 write-site, LK503 backend-bypass and LK6xx protocol
    scans are source-level (arch-independent); ``lint_all`` runs them
    once for the whole matrix instead of once per architecture."""
    diags = registers_lint.lint_arch_registers(spec)
    diags.extend(journal_lint.lint_journal_coverage(spec))
    if include_write_sites:
        diags.extend(journal_lint.lint_write_sites())
        diags.extend(journal_lint.lint_backend_bypass())
        diags.extend(protocol.lint_protocol())
    for locus, group in catalog_for(spec):
        diags.extend(lint_group(spec, group, locus=locus))
    return sorted(diags, key=sort_key)


def lint_all(arch_names: list[str] | None = None) -> list[Diagnostic]:
    """Lint the full architecture matrix (default: every known arch)."""
    from repro.hw.arch import available, get_arch
    names = arch_names if arch_names is not None else available()
    diags: list[Diagnostic] = journal_lint.lint_write_sites()
    diags.extend(journal_lint.lint_backend_bypass())
    diags.extend(protocol.lint_protocol())
    for name in names:
        diags.extend(lint_spec(get_arch(name), include_write_sites=False))
    return sorted(diags, key=sort_key)


# -- incremental linting (`repro-lint --changed`) -----------------------------

#: Source trees whose edits can invalidate the whole config matrix —
#: a changed event table or check definition re-scopes every
#: architecture, so ``--changed`` falls back to the full run.
_MATRIX_ROOTS = ("src/repro/hw/", "src/repro/analysis/")


def changed_files(ref: str = "origin/main") -> list[str]:
    """Repo-relative paths touched vs *ref*, plus untracked files."""
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True).stdout.strip()
    out: set[str] = set()
    diff = subprocess.run(
        ["git", "diff", "--name-only", ref, "--"],
        cwd=root, capture_output=True, text=True, check=True)
    out.update(line for line in diff.stdout.splitlines() if line)
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, text=True, check=True)
    out.update(line for line in untracked.stdout.splitlines() if line)
    return sorted(out)


def lint_changed(ref: str = "origin/main", *,
                 files: list[str] | None = None) -> list[Diagnostic]:
    """Lint only what a change set can affect.

    ``files`` (repo-relative; injectable for tests) defaults to the
    git diff against *ref* plus untracked files.  Changed Python
    sources get the source-level passes (LK501/LK503/LK6xx)
    restricted to their intersection with each pass's scope; a
    changed ``groupfiles/<arch>/<name>.txt`` gets that one group
    linted on that architecture; an edit under ``src/repro/hw`` or
    ``src/repro/analysis`` invalidates the whole matrix and falls
    back to :func:`lint_all`.  Exit semantics over the resulting
    diagnostics are identical to a full run."""
    if files is None:
        files = changed_files(ref)
    if any(f.startswith(_MATRIX_ROOTS) for f in files):
        return lint_all()
    root = os.getcwd()
    try:
        root = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        pass
    resolved = {os.path.realpath(os.path.join(root, f)) for f in files}

    def subset(scope: list[str]) -> list[str]:
        return sorted(p for p in scope
                      if os.path.realpath(p) in resolved)

    diags: list[Diagnostic] = []
    tool = subset(journal_lint.tool_layer_sources())
    if tool:
        diags.extend(journal_lint.lint_write_sites(tool))
    cli = subset(journal_lint.cli_layer_sources())
    if cli:
        diags.extend(journal_lint.lint_backend_bypass(cli))
    proto = subset(protocol.protocol_sources())
    if proto:
        diags.extend(protocol.lint_protocol(proto))

    from repro.hw.arch import get_arch
    for f in files:
        parts = f.replace("\\", "/").split("/")
        if "groupfiles" in parts and f.endswith(".txt"):
            arch = parts[parts.index("groupfiles") + 1]
            name = os.path.splitext(parts[-1])[0]
            try:
                spec = get_arch(arch)
            except Exception:
                continue
            groups = file_groups_for(spec)
            if name in groups:
                diags.extend(lint_group(
                    spec, groups[name],
                    locus=f"groupfile:{spec.name}/{name}.txt"))
    return sorted(diags, key=sort_key)
