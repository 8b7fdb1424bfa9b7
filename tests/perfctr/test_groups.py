"""Tests for the preconfigured event groups and their availability."""

import pytest

from repro.core.perfctr.counters import CounterMap, validate_assignments
from repro.core.perfctr.formula import formula_variables
from repro.core.perfctr.groups import groups_for, lookup_group
from repro.errors import GroupError
from repro.hw.arch import ARCH_SPECS, get_arch

# The paper's table of event sets (§II.A).
PAPER_GROUPS = {"FLOPS_DP", "FLOPS_SP", "L2", "L3", "MEM", "CACHE",
                "L2CACHE", "L3CACHE", "DATA", "BRANCH", "TLB"}


class TestCatalog:
    def test_paper_group_table_complete(self):
        """Across all architectures the shipped groups are exactly the
        paper's table, and each name has one SHORT description."""
        descriptions: dict[str, set[str]] = {}
        for arch in ARCH_SPECS:
            for name, group in groups_for(get_arch(arch)).items():
                descriptions.setdefault(name, set()).add(group.description)
        assert set(descriptions) == PAPER_GROUPS
        for name, shorts in descriptions.items():
            assert len(shorts) == 1, (name, shorts)

    def test_nehalem_offers_all_groups(self):
        groups = groups_for(get_arch("nehalem_ep"))
        assert set(groups) == PAPER_GROUPS

    def test_core2_has_no_l3_groups(self):
        """Paper: groups are provided 'as long as the native events
        support them' — Core 2 has no L3."""
        groups = groups_for(get_arch("core2"))
        assert "L3" not in groups
        assert "L3CACHE" not in groups
        assert "MEM" in groups   # via L2 line traffic (L2 is the LLC)

    def test_amd_groups_consume_pmcs_for_cpi(self):
        group = lookup_group(get_arch("amd_istanbul"), "FLOPS_DP")
        counters = [e.counter for e in group.events]
        assert "PMC0" in counters and "PMC1" in counters  # instr + cycles
        assert len(group.events) == 4

    def test_unknown_group(self):
        with pytest.raises(GroupError, match="not available"):
            lookup_group(get_arch("core2"), "L3")
        with pytest.raises(GroupError, match="not available"):
            lookup_group(get_arch("nehalem_ep"), "NOT_A_GROUP")

    @pytest.mark.parametrize("arch", sorted(ARCH_SPECS))
    def test_flops_dp_everywhere(self, arch):
        assert "FLOPS_DP" in groups_for(get_arch(arch))


class TestGroupWellFormedness:
    @pytest.mark.parametrize("arch", sorted(ARCH_SPECS))
    def test_all_groups_validate_against_counters(self, arch):
        """Every group's event list must pass the same validation the
        tool applies to explicit event strings."""
        spec = get_arch(arch)
        cm = CounterMap(spec)
        for name, group in groups_for(spec).items():
            assignments = validate_assignments(spec.events, cm,
                                               list(group.events))
            assert len(assignments) == len(group.events), name

    @pytest.mark.parametrize("arch", sorted(ARCH_SPECS))
    def test_metric_formulas_reference_counted_events(self, arch):
        """Each formula variable must be an event of the group, an
        auto-counted fixed event, or a built-in (time, clock)."""
        spec = get_arch(arch)
        has_fixed = spec.pmu.has_fixed
        builtin = {"time", "clock"}
        auto = ({"INSTR_RETIRED_ANY", "CPU_CLK_UNHALTED_CORE",
                 "CPU_CLK_UNHALTED_REF"} if has_fixed else set())
        for name, group in groups_for(spec).items():
            event_names = {e.event for e in group.events}
            for label, formula in group.metrics:
                unknown = (formula_variables(formula) - event_names
                           - builtin - auto)
                assert not unknown, f"{arch}/{name}/{label}: {unknown}"

    def test_uncore_groups_use_upmc(self):
        for name in ("MEM", "L3CACHE"):
            group = lookup_group(get_arch("westmere_ep"), name)
            assert all(e.counter.startswith("UPMC") for e in group.events)

    def test_groups_fit_counter_budget(self):
        """No group may demand more PMCs than the architecture has."""
        for arch in sorted(ARCH_SPECS):
            spec = get_arch(arch)
            for name, group in groups_for(spec).items():
                pmcs = [e for e in group.events if e.counter.startswith("PMC")]
                assert len(pmcs) <= spec.pmu.num_pmcs, f"{arch}/{name}"
