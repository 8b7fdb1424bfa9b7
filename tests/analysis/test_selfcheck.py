"""Self-check: the shipped configuration matrix lints clean.

This is the tier-1 guarantee behind ``repro-lint --all --strict``:
every shipped group file on every architecture produces
zero errors and zero warnings (NOTEs — e.g. CPI's raw-counter
denominator — are informational and expected).
"""

import pytest

from repro.analysis import catalog_for, lint_all, lint_group, lint_spec
from repro.analysis.diagnostics import Severity
from repro.hw.arch import available, get_arch


def gating(diags):
    return [d for d in diags if d.severity is not Severity.NOTE]


@pytest.mark.parametrize("arch", available())
def test_arch_surface_is_clean(arch):
    assert gating(lint_spec(get_arch(arch))) == []


@pytest.mark.parametrize("arch", available())
def test_every_group_pair_is_clean(arch):
    spec = get_arch(arch)
    catalog = catalog_for(spec)
    assert catalog, f"{arch} ships no lintable groups"
    for locus, group in catalog:
        diags = gating(lint_group(spec, group, locus=locus))
        assert diags == [], f"{arch} {locus}: {[str(d) for d in diags]}"


def test_whole_matrix_and_notes_survive():
    diags = lint_all()
    assert gating(diags) == []
    # The informational layer is still there (CPI-style denominators).
    assert any(d.code == "LK203" for d in diags)


def test_cli_strict_exits_zero(capsys):
    from repro.cli.lint_cmd import main
    assert main(["--all", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_cli_unknown_group_is_usage_error(capsys):
    from repro.cli.lint_cmd import main
    assert main(["--arch", "nehalem_ep", "-g", "NO_SUCH_GROUP"]) == 2
