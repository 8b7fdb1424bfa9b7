"""``likwid-perfctr`` command-line front-end.

Mirrors the paper's usage::

    likwid-perfctr -c 0-3 -g FLOPS_DP stream_icc
    likwid-perfctr -c 0-7 -g SIMD_...:PMC0,SIMD_...:PMC1 sleep
    likwid-perfctr -c 0-3 -g FLOPS_DP -m stream_icc

with the wrapped binary replaced by a named simulated workload.

Exit codes map the measurement outcome (see docs/robustness.md):

* 0 — success (possibly with degradation warnings on stderr)
* 1 — generic tool error
* 2 — usage error
* 3 — msr driver unavailable or permission denied
* 4 — measurement degraded and ``--strict-io`` was given
* 5 — ``--recover`` found and undid orphaned state
* 6 — journal history corrupt; recovery refused
* 7 — run killed mid-session (``kill_after`` fault); state is dirty
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import (EXIT_KILLED, EXIT_UNRECOVERABLE, WORKLOADS,
                              add_access_mode_argument, add_arch_argument,
                              add_journal_arguments, add_profile_arguments,
                              add_msr_faults_argument, backend_from_args,
                              check_journal_arguments, faults_from_args,
                              machine_from_args, profiled,
                              run_marked_workload, run_recovery, run_workload,
                              warn_orphaned_journal)
from repro.core.affinity import parse_corelist
from repro.core.perfctr import LikwidPerfCtr
from repro.core.perfctr.groups import groups_for
from repro.core.perfctr.output import render_header, render_result
from repro.errors import (DegradedError, JournalError, MsrError,
                          ProcessKilled, ReproError, SimulatedInterrupt)
from repro.oskern.scheduler import OSKernel

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DRIVER = 3
EXIT_DEGRADED = 4
# 5/6/7 (recovered / unrecoverable / killed) come from cli.common.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="likwid-perfctr",
        description="Measure hardware performance counter metrics.")
    parser.add_argument("-c", dest="cpus", default="0",
                        help="cpu list to measure (e.g. 0-3)")
    parser.add_argument("-g", dest="group", required=False,
                        help="event group or EVENT:COUNTER list")
    parser.add_argument("-a", action="store_true", dest="list_groups",
                        help="list available event groups")
    parser.add_argument("-e", action="store_true", dest="list_events",
                        help="list available events and counters")
    parser.add_argument("-m", action="store_true", dest="marker",
                        help="marker mode: per-region results (the "
                             "stream workloads expose Init/Benchmark)")
    parser.add_argument("--pin", action="store_true",
                        help="also pin the workload to the measured cpus "
                             "(the likwid-perfctr ... likwid-pin idiom)")
    parser.add_argument("--threads", type=int, default=None,
                        help="workload thread count (default: #cpus)")
    parser.add_argument("--xml", action="store_true",
                        help="emit results as XML instead of tables")
    parser.add_argument("--strict-io", action="store_true", dest="strict_io",
                        help="treat degraded (NaN-producing) measurements "
                             "as errors (exit 4) instead of warning")
    add_msr_faults_argument(parser)
    parser.add_argument("workload", nargs="?", default="stream_icc",
                        help=f"simulated workload: {', '.join(WORKLOADS)}")
    add_arch_argument(parser, default="nehalem_ep")
    add_access_mode_argument(parser)
    add_journal_arguments(parser)
    add_profile_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.cli.common import restore_sigpipe
    restore_sigpipe()
    args = build_parser().parse_args(argv)
    with profiled(args, "likwid-perfctr"):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    usage = check_journal_arguments(args, "likwid-perfctr")
    if usage is not None:
        print(usage, file=sys.stderr)
        return EXIT_USAGE
    if args.recover:
        return run_recovery(args, "likwid-perfctr")
    machine = machine_from_args(args)
    if args.list_groups:
        for name, group in sorted(groups_for(machine.spec).items()):
            print(f"{name}\t{group.description}")
        return 0
    if args.list_events:
        from repro.core.perfctr.counters import counter_map_for
        counters = counter_map_for(machine.spec)
        names = []
        for cls in ("PMC", "FIXC", "UPMC", "UFIXC"):
            names.extend(counters.names(cls))
        print("Counters:", " ".join(names))
        table = machine.spec.events
        for name in table.names():
            ev = table.lookup(name)
            where = (f"FIXC{ev.fixed_index}" if ev.is_fixed
                     else "UPMC" if ev.scope.value == "uncore" else "PMC")
            print(f"{name}\t0x{ev.event_code:02X}:0x{ev.umask:02X}\t{where}")
        return 0
    if not args.group:
        print("likwid-perfctr: option -g is required", file=sys.stderr)
        return EXIT_USAGE

    kernel = OSKernel(machine, seed=0)
    cpus = parse_corelist(args.cpus, max_cpu=machine.num_hwthreads - 1)
    nthreads = args.threads or len(cpus)
    pin = cpus if args.pin else None
    group_name = args.group if ":" not in args.group else None

    try:
        faults = faults_from_args(args, "likwid-perfctr")
    except SystemExit:
        return EXIT_USAGE
    try:
        backend = backend_from_args(machine, args, faults=faults)
    except JournalError as exc:
        print(f"likwid-perfctr: cannot load journal: {exc}",
              file=sys.stderr)
        return EXIT_UNRECOVERABLE
    warn_orphaned_journal(backend.driver, "likwid-perfctr")
    perfctr = LikwidPerfCtr(machine, backend=backend,
                            strict_io=args.strict_io)
    try:
        if args.marker:
            session = perfctr.session(cpus, args.group)
            with session:
                marker = run_marked_workload(args.workload, machine, kernel,
                                             session, nthreads=nthreads,
                                             pin_cpus=pin)
                session.stop()
            _report_warnings(session.warnings)
            if args.xml:
                from repro.core.xmlout import measurement_to_xml
                for region in marker.region_names():
                    print(measurement_to_xml(marker.region_result(region),
                                             group_name=group_name,
                                             region=region))
                return EXIT_OK
            print(render_header(machine, group_name))
            for region in marker.region_names():
                print(render_result(machine, marker.region_result(region),
                                    region=region))
            return EXIT_OK
        result = perfctr.wrap(
            cpus, args.group,
            lambda: run_workload(args.workload, machine, kernel,
                                 nthreads=nthreads, pin_cpus=pin))
    except ProcessKilled as exc:
        print(f"likwid-perfctr: {exc}", file=sys.stderr)
        if args.journal:
            print(f"likwid-perfctr: run `likwid-perfctr --recover "
                  f"--journal {args.journal} --arch {args.arch}` to "
                  f"restore pristine msr state", file=sys.stderr)
        return EXIT_KILLED
    except SimulatedInterrupt as exc:
        # Graceful ^C: session teardown already ran on the way out.
        print(f"likwid-perfctr: interrupted: {exc}", file=sys.stderr)
        return 130
    except DegradedError as exc:
        print(f"likwid-perfctr: {exc}", file=sys.stderr)
        return EXIT_DEGRADED
    except MsrError as exc:
        print(f"likwid-perfctr: {exc}", file=sys.stderr)
        return EXIT_DRIVER
    except ReproError as exc:
        print(f"likwid-perfctr: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _report_warnings(result.warnings)
    if args.xml:
        from repro.core.xmlout import measurement_to_xml
        print(measurement_to_xml(result, group_name=group_name))
        return EXIT_OK
    print(render_header(machine, group_name))
    print(render_result(machine, result))
    return EXIT_OK


def _report_warnings(warnings: list[str]) -> None:
    for warning in warnings:
        print(f"likwid-perfctr: warning: {warning}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
