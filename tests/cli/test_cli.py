"""Smoke and behaviour tests for the command-line front-ends."""

import pytest

from repro.cli import (bench_cmd, features_cmd, perfctr_cmd, pin_cmd,
                       topology_cmd)


class TestTopologyCmd:
    def test_default(self, capsys):
        assert topology_cmd.main(["--arch", "westmere_ep"]) == 0
        out = capsys.readouterr().out
        assert "Sockets:\t\t2" in out
        assert "Cache Topology" not in out   # -c not given

    def test_caches_and_graphics(self, capsys):
        assert topology_cmd.main(["-c", "-g", "--arch", "westmere_ep"]) == 0
        out = capsys.readouterr().out
        assert "Cache Topology" in out
        assert "12 MB" in out
        assert out.count("+") > 20   # ASCII art frame

    def test_every_arch(self, capsys):
        from repro.hw.arch import available
        for arch in available():
            assert topology_cmd.main(["--arch", arch]) == 0


class TestPerfctrCmd:
    def test_group_measurement(self, capsys):
        rc = perfctr_cmd.main(["-c", "0-3", "-g", "FLOPS_DP", "--pin",
                               "stream_icc", "--arch", "nehalem_ep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Measuring group FLOPS_DP" in out
        assert "DP MFlops/s" in out

    def test_explicit_events(self, capsys):
        rc = perfctr_cmd.main([
            "-c", "0", "-g", "L1D_REPL:PMC0", "stream_icc",
            "--arch", "nehalem_ep"])
        assert rc == 0
        assert "L1D_REPL" in capsys.readouterr().out

    def test_sleep_monitoring_idiom(self, capsys):
        rc = perfctr_cmd.main(["-c", "0-7", "-g", "FLOPS_DP", "sleep",
                               "--arch", "nehalem_ep"])
        assert rc == 0

    def test_list_groups(self, capsys):
        assert perfctr_cmd.main(["-a", "--arch", "core2"]) == 0
        out = capsys.readouterr().out
        assert "FLOPS_DP" in out and "L3" not in out.split()

    def test_list_groups_includes_user_dropped_group(self, tmp_path,
                                                     monkeypatch, capsys):
        """A group file whose name is not a paper group is listed with
        its SHORT line."""
        import repro.core.perfctr.groupfile as gf
        custom_dir = tmp_path / "nehalem_ep"
        custom_dir.mkdir()
        shipped = gf.groupfile_dir("nehalem_ep") / "MEM.txt"
        (custom_dir / "MEM.txt").write_text(shipped.read_text())
        (custom_dir / "MYGROUP.txt").write_text(
            "SHORT My custom view\n\nEVENTSET\nPMC0  L1D_REPL\n\n"
            "METRICS\nMisses per cycle  PMC0/FIXC1\n")
        monkeypatch.setattr(gf, "GROUPFILE_ROOT", tmp_path)
        assert perfctr_cmd.main(["-a", "--arch", "nehalem_ep"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["MEM\tMain memory bandwidth in MBytes/s",
                         "MYGROUP\tMy custom view"]

    def test_missing_group_is_usage_error(self, capsys):
        assert perfctr_cmd.main(["-c", "0", "--arch", "core2"]) == 2

    def test_bad_group_reports_error(self, capsys):
        rc = perfctr_cmd.main(["-c", "0", "-g", "NOPE", "stream_icc",
                               "--arch", "core2"])
        assert rc == 1
        assert "not available" in capsys.readouterr().err

    def test_uncore_table2_events(self, capsys):
        rc = perfctr_cmd.main([
            "-c", "0-3", "-g",
            "UNC_L3_LINES_IN_ANY:UPMC0,UNC_L3_LINES_OUT_ANY:UPMC1",
            "--pin", "jacobi_wavefront", "--arch", "nehalem_ep"])
        assert rc == 0
        assert "UNC_L3_LINES_IN_ANY" in capsys.readouterr().out


class TestPinCmd:
    def test_pin_stream(self, capsys):
        rc = pin_cmd.main(["-c", "0-3", "-t", "intel", "stream_icc",
                           "--arch", "westmere_ep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured bandwidth" in out

    def test_skip_mask(self, capsys):
        rc = pin_cmd.main(["-c", "0-7", "-s", "0x3", "stream_icc",
                           "--arch", "westmere_ep"])
        assert rc == 0

    def test_bad_corelist(self, capsys):
        rc = pin_cmd.main(["-c", "0-99", "stream_gcc",
                           "--arch", "westmere_ep"])
        assert rc == 1
        assert "likwid-pin:" in capsys.readouterr().err

    def test_jacobi_workload(self, capsys):
        rc = pin_cmd.main(["-c", "0-3", "jacobi_threaded",
                           "--arch", "nehalem_ep"])
        assert rc == 0
        assert "thread placements" in capsys.readouterr().out


class TestFeaturesCmd:
    def test_report(self, capsys):
        assert features_cmd.main([]) == 0
        assert "Hardware Prefetcher: enabled" in capsys.readouterr().out

    def test_disable_cl_prefetcher(self, capsys):
        rc = features_cmd.main(["-u", "CL_PREFETCHER"])
        assert rc == 0
        assert "CL_PREFETCHER: disabled" in capsys.readouterr().out

    def test_enable(self, capsys):
        rc = features_cmd.main(["-e", "CL_PREFETCHER"])
        assert rc == 0
        assert "CL_PREFETCHER: enabled" in capsys.readouterr().out

    def test_non_core2_fails(self, capsys):
        rc = features_cmd.main(["--arch", "westmere_ep"])
        assert rc == 1
        assert "Core 2" in capsys.readouterr().err


class TestBenchCmd:
    def test_fig1(self, capsys):
        assert bench_cmd.main(["fig1"]) == 0
        assert "Hardware Thread Topology" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert bench_cmd.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "LIKWID" in out and "PAPI" in out

    def test_stream_fig(self, capsys):
        assert bench_cmd.main(["fig", "5", "--samples", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "median" in out

    def test_fig11(self, capsys):
        assert bench_cmd.main(["fig11"]) == 0
        assert "wavefront 1x4" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert bench_cmd.main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "UNC_L3_LINES_IN_ANY" in out
        assert "MLUPS" in out


class TestPerfctrMarkerMode:
    def test_marker_mode_regions(self, capsys):
        rc = perfctr_cmd.main(["-c", "0-3", "-g", "FLOPS_DP", "-m",
                               "stream_icc", "--arch", "nehalem_ep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Region: Init" in out
        assert "Region: Benchmark" in out
        # Init does no SIMD arithmetic; Benchmark does.
        init, benchmark = out.split("Region: Benchmark")
        assert "| FP_COMP_OPS_EXE_SSE_FP_PACKED | 0 " in init
        assert "| FP_COMP_OPS_EXE_SSE_FP_PACKED | 2e+06" in benchmark

    def test_marker_mode_xml(self, capsys):
        import xml.etree.ElementTree as ET
        rc = perfctr_cmd.main(["-c", "0-1", "-g", "FLOPS_DP", "-m",
                               "--xml", "stream_gcc", "--arch", "core2"])
        assert rc == 0
        out = capsys.readouterr().out
        docs = [d for d in out.split("<measurement")[1:]]
        assert len(docs) == 2
        first = ET.fromstring("<measurement" + docs[0])
        assert first.get("region") == "Init"

    def test_marker_mode_rejects_other_workloads(self, capsys):
        with pytest.raises(SystemExit):
            perfctr_cmd.main(["-c", "0", "-g", "FLOPS_DP", "-m",
                              "jacobi_threaded", "--arch", "nehalem_ep"])


class TestMpirunCmd:
    def test_hybrid_run(self, capsys):
        from repro.cli import mpirun_cmd
        rc = mpirun_cmd.main(["-np", "2", "--omp", "4", "-c", "0-3",
                              "-g", "FLOPS_DP", "stream_icc",
                              "--arch", "westmere_ep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank 0:" in out and "rank 1:" in out
        assert "max/avg" in out

    def test_rejects_non_stream(self, capsys):
        from repro.cli import mpirun_cmd
        rc = mpirun_cmd.main(["jacobi_threaded"])
        assert rc == 2

    def test_too_many_ranks_for_pernode(self, capsys):
        from repro.cli import mpirun_cmd
        # -pernode always holds; cluster is sized to nranks, so this
        # only fails through ReproError paths internally; smoke it.
        rc = mpirun_cmd.main(["-np", "1", "stream_gcc",
                              "--arch", "core2"])
        assert rc == 0


class TestBenchToolCmds:
    def test_ladder(self, capsys):
        assert bench_cmd.main(["ladder", "-k", "triad", "--threads", "2",
                               "--arch", "nehalem_ep"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth ladder" in out and "MEM" in out

    def test_bwmap(self, capsys):
        assert bench_cmd.main(["bwmap", "--arch", "amd_istanbul"]) == 0
        out = capsys.readouterr().out
        assert "ccNUMA bandwidth map" in out
        assert "M1" in out


class TestBenchToolCli:
    def test_likwid_bench_run(self, capsys):
        from repro.cli import benchtool_cmd
        rc = benchtool_cmd.main(["-t", "triad", "-w", "S0:256MB:4",
                                 "--arch", "westmere_ep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out

    def test_likwid_bench_list(self, capsys):
        from repro.cli import benchtool_cmd
        assert benchtool_cmd.main(["-a"]) == 0
        assert "triad" in capsys.readouterr().out

    def test_likwid_bench_bad_workgroup(self, capsys):
        from repro.cli import benchtool_cmd
        rc = benchtool_cmd.main(["-w", "NOPE"])
        assert rc == 1
        assert "likwid-bench:" in capsys.readouterr().err


class TestBenchAllCmd:
    def test_all_regenerates_everything(self, capsys):
        rc = bench_cmd.main(["all", "--samples", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        for marker in ("Figure 1", "Table I", "Figure 4", "Figure 10",
                       "Figure 11", "Table II", "UNC_L3_LINES_IN_ANY"):
            assert marker in out, marker


class TestTopofileCli:
    def test_gen_and_read(self, capsys, tmp_path):
        path = str(tmp_path / "topo.xml")
        assert topology_cmd.main(["--gen-topofile", path,
                                  "--arch", "westmere_ep"]) == 0
        assert "wrote topology" in capsys.readouterr().out
        assert topology_cmd.main(["--topofile", path, "-c",
                                  "--arch", "westmere_ep"]) == 0
        out = capsys.readouterr().out
        assert "Socket 0: ( 0 12 1 13 2 14 3 15 4 16 5 17 )" in out
        assert "Non Inclusive cache" in out


class TestEventListingCli:
    def test_list_events(self, capsys):
        assert perfctr_cmd.main(["-e", "--arch", "nehalem_ep"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Counters: PMC0 PMC1 PMC2 PMC3 FIXC0")
        assert "UNC_L3_LINES_IN_ANY\t0x0A:0x0F\tUPMC" in out
        assert "INSTR_RETIRED_ANY\t0xC0:0x00\tFIXC0" in out


class TestBenchCsvFlags:
    def test_table2_csv(self, capsys):
        assert bench_cmd.main(["table2", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("variant,l3_lines_in")
        assert "wavefront" in out

    def test_fig_csv(self, capsys):
        assert bench_cmd.main(["fig", "5", "--samples", "4", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("arch,compiler,mode,threads,sample")

    def test_fig11_csv(self, capsys):
        assert bench_cmd.main(["fig11", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("series,size,mlups")
