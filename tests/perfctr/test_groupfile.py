"""Tests for the performance-group file format and loader."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.core.perfctr.groupfile import (groupfile_dir, load_group_dir,
                                          parse_group_file)
from repro.core.perfctr.groups import file_groups_for, groups_for
from repro.errors import GroupError
from repro.hw.arch import ARCH_SPECS, get_arch

# The parsed catalog of every shipped group file: description, ordered
# (event, counter) pairs and ordered (label, formula) metrics.  A
# deliberate change to a shipped group file updates this snapshot in
# the same change.
GOLDEN_CATALOG = Path(__file__).parent / "golden" / "group_catalog.json"


def catalog_snapshot(groups) -> dict:
    return {name: {"description": g.description,
                   "events": [[e.event, e.counter] for e in g.events],
                   "metrics": [list(m) for m in g.metrics]}
            for name, g in sorted(groups.items())}

SAMPLE = textwrap.dedent("""\
    SHORT Double Precision MFlops/s

    EVENTSET
    PMC0  FP_COMP_OPS_EXE_SSE_FP_PACKED
    PMC1  FP_COMP_OPS_EXE_SSE_FP_SCALAR

    METRICS
    Runtime [s]  FIXC1/clock
    CPI  FIXC1/FIXC0
    DP MFlops/s  1.0E-06*(PMC0*2.0+PMC1)/time

    LONG
    Flop rate with packed ops counted twice.
    """)


class TestParsing:
    def test_sections(self):
        pg = parse_group_file(SAMPLE, name="FLOPS_DP")
        assert pg.short == "Double Precision MFlops/s"
        assert pg.events == [
            ("PMC0", "FP_COMP_OPS_EXE_SSE_FP_PACKED"),
            ("PMC1", "FP_COMP_OPS_EXE_SSE_FP_SCALAR")]
        assert pg.metrics[1] == ("CPI", "FIXC1/FIXC0")
        assert "counted twice" in pg.long

    def test_counter_rewrite(self):
        pg = parse_group_file(SAMPLE, name="FLOPS_DP")
        metrics = dict(pg.rewritten_metrics())
        assert metrics["CPI"] == "CPU_CLK_UNHALTED_CORE/INSTR_RETIRED_ANY"
        assert "FP_COMP_OPS_EXE_SSE_FP_PACKED*2.0" in metrics["DP MFlops/s"]

    def test_unknown_counter_in_formula(self):
        bad = SAMPLE.replace("FIXC1/FIXC0", "UPMC5/FIXC0")
        pg = parse_group_file(bad, name="X")
        with pytest.raises(GroupError, match="UPMC5"):
            pg.rewritten_metrics()

    def test_empty_eventset_rejected(self):
        with pytest.raises(GroupError, match="empty EVENTSET"):
            parse_group_file("SHORT x\nEVENTSET\nMETRICS\nA  1+1\n")

    def test_malformed_metric_line(self):
        bad = "SHORT x\nEVENTSET\nPMC0 EV\nMETRICS\nlabel-without-formula\n"
        with pytest.raises(GroupError, match="METRICS line"):
            parse_group_file(bad)

    def test_content_outside_section(self):
        with pytest.raises(GroupError, match="outside any section"):
            parse_group_file("stray line\n")


class TestShippedFiles:
    @pytest.mark.parametrize("arch", sorted(ARCH_SPECS))
    def test_every_arch_has_a_directory(self, arch):
        assert groupfile_dir(arch).is_dir()
        assert load_group_dir(groupfile_dir(arch))

    @pytest.mark.parametrize("arch", sorted(ARCH_SPECS))
    def test_files_equal_builtin_catalog(self, arch):
        """The shipped files must parse to the golden snapshot, which
        was asserted equal to the former built-in (code-defined)
        catalog when it was taken: same groups, descriptions, events,
        counters and (event-name) formulas, in the same order."""
        golden = json.loads(GOLDEN_CATALOG.read_text())
        assert catalog_snapshot(file_groups_for(get_arch(arch))) == \
            golden[arch]

    def test_groups_for_prefers_files(self, tmp_path, monkeypatch):
        """A user-dropped group file extends the catalog."""
        import repro.core.perfctr.groupfile as gf
        spec = get_arch("nehalem_ep")
        custom_dir = tmp_path / "nehalem_ep"
        custom_dir.mkdir()
        # Copy one real group and add a custom one.
        (custom_dir / "FLOPS_DP.txt").write_text(SAMPLE)
        (custom_dir / "MYGROUP.txt").write_text(textwrap.dedent("""\
            SHORT My custom view

            EVENTSET
            PMC0  L1D_REPL

            METRICS
            Misses per cycle  PMC0/FIXC1
            """))
        monkeypatch.setattr(gf, "GROUPFILE_ROOT", tmp_path)
        groups = groups_for(spec)
        assert set(groups) == {"FLOPS_DP", "MYGROUP"}
        assert groups["MYGROUP"].metrics[0][1] == \
            "L1D_REPL/CPU_CLK_UNHALTED_CORE"

    def test_arch_without_group_files_has_no_groups(self, tmp_path,
                                                    monkeypatch):
        import repro.core.perfctr.groupfile as gf
        monkeypatch.setattr(gf, "GROUPFILE_ROOT", tmp_path)
        with pytest.raises(GroupError, match="no group definitions"):
            groups_for(get_arch("nehalem_ep"))

    def test_measurement_with_file_loaded_group(self):
        """End-to-end: the file-backed FLOPS_DP group measures."""
        from repro.core.perfctr import LikwidPerfCtr
        from repro.hw.arch import create_machine
        from repro.hw.events import Channel
        machine = create_machine("westmere_ep")
        result = LikwidPerfCtr(machine).wrap(
            [0], "FLOPS_DP",
            lambda: machine.apply_counts(
                {0: {Channel.FLOPS_PACKED_DP: 1e6,
                     Channel.INSTRUCTIONS: 4e6,
                     Channel.CORE_CYCLES: 8e6}}))
        assert result.metric(0, "CPI") == 2.0
        assert result.metric(0, "DP MFlops/s") > 0
