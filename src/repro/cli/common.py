"""Shared CLI plumbing for the likwid-* front-ends.

Real LIKWID probes the hardware it runs on; the reproduction runs
against the simulated machine catalog, selected with ``--arch`` (the
one necessary departure from the original command lines, documented in
README).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.errors import TopologyError
from repro.hw.arch import available, create_machine
from repro.hw.machine import SimMachine


def add_arch_argument(parser: argparse.ArgumentParser,
                      default: str = "westmere_ep") -> None:
    """The one ``--arch`` definition every front-end shares: same
    default, same choices, same help text."""
    parser.add_argument(
        "--arch", default=default, choices=available(),
        help="simulated machine to run on (default: %(default)s)")


def machine_from_args(args: argparse.Namespace) -> SimMachine:
    """Instantiate the machine selected by ``--arch``, with uniform
    error reporting across every front-end (argparse's ``choices``
    normally rejects unknown names first; this covers programmatic
    callers passing a namespace directly)."""
    try:
        return create_machine(args.arch)
    except TopologyError as exc:
        raise SystemExit(
            f"unknown architecture {args.arch!r} "
            f"(available: {', '.join(available())}): {exc}") from None


# Crash-safety exit codes shared by the msr-writing front-ends
# (likwid-perfctr also defines 0-4; see docs/robustness.md).
EXIT_RECOVERED = 5       # --recover found and undid orphaned state
EXIT_UNRECOVERABLE = 6   # journal history corrupt; nothing restored
EXIT_KILLED = 7          # simulated kill fired; dirty state left behind


def add_journal_arguments(parser: argparse.ArgumentParser) -> None:
    """The crash-safety flags every msr-writing front-end shares."""
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="file-backed write-ahead journal for this run's msr "
             "mutations (the in-memory default cannot survive a real "
             "process death)")
    parser.add_argument(
        "--no-journal", dest="no_journal", action="store_true",
        help="disable the write-ahead journal entirely (a crashed run "
             "leaves unrecoverable dirty msr state)")
    parser.add_argument(
        "--recover", action="store_true",
        help="recover orphaned msr state and stale socket locks from "
             "a crashed run's journal, then exit (requires --journal)")


def check_journal_arguments(args: argparse.Namespace,
                            tool: str) -> str | None:
    """Validate the flag combinations; returns an error message (the
    caller prints it and exits with the usage code) or None."""
    if args.recover and args.no_journal:
        return f"{tool}: --recover and --no-journal are contradictory"
    if args.recover and not args.journal:
        return (f"{tool}: --recover needs --journal PATH "
                f"(the crashed run's journal file)")
    return None


def add_access_mode_argument(parser: argparse.ArgumentParser) -> None:
    """The ``--access-mode`` definition every counter-touching
    front-end shares (see docs/access-modes.md)."""
    from repro.oskern.access import ACCESS_MODES
    parser.add_argument(
        "--access-mode", dest="access_mode", default="msr",
        choices=list(ACCESS_MODES),
        help="counter-access backend: direct msr register access or "
             "perf_event-style fds with kernel multiplexing "
             "(default: %(default)s)")


def backend_from_args(machine: SimMachine, args: argparse.Namespace,
                      *, faults=None):
    """Open the counter-access backend selected by ``--access-mode``,
    honoring --journal/--no-journal (the crash-safety knobs ride on
    the underlying msr driver in either mode).  Raises
    :class:`~repro.errors.JournalError` when an existing journal file
    cannot be loaded."""
    from repro.oskern.access import open_backend

    mode = getattr(args, "access_mode", None) or "msr"
    if getattr(args, "no_journal", False):
        return open_backend(mode, machine, faults=faults, journaling=False)
    journal = None
    if getattr(args, "journal", None):
        from repro.oskern.journal import MsrJournal
        journal = MsrJournal(args.journal)
    return open_backend(mode, machine, faults=faults, journal=journal)


def warn_orphaned_journal(driver, tool: str) -> None:
    """A non-empty journal at startup means a previous run died
    mid-session; measuring from its dirty baseline is wrong."""
    journal = driver.journal
    if journal is not None and journal.record_count:
        print(f"{tool}: warning: journal holds {journal.record_count} "
              f"record(s) from a crashed run; counters may be dirty — "
              f"run --recover first", file=sys.stderr)


def run_recovery(args: argparse.Namespace, tool: str) -> int:
    """The shared ``--recover`` entry point.

    The simulated machine's registers live in process memory, so a
    recovering process first re-materialises the crashed run's dirty
    register state from the journal's after-values (on real hardware
    the registers would still physically hold them), then runs the
    recovery engine: backwards replay to pristine state, stale-lock
    reclaim, journal retirement."""
    from repro.errors import JournalCorruptError, JournalError
    from repro.oskern.access import open_backend
    from repro.oskern.journal import OP_WRITE, MsrJournal
    from repro.oskern.recovery import RecoveryEngine

    machine = machine_from_args(args)
    try:
        journal = MsrJournal(args.journal)
        # Recovery replays raw register writes: always the msr backend.
        driver = open_backend("msr", machine, journal=journal).driver
        for rec in journal.scan().records:
            if rec.op == OP_WRITE:
                machine.msr[rec.cpu].write(rec.address, rec.after)
        report = RecoveryEngine(driver).recover()
    except JournalCorruptError as exc:
        print(f"{tool}: journal unrecoverable: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    except (JournalError, OSError) as exc:
        print(f"{tool}: recovery failed: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    print(f"{tool}: {report.summary()}")
    return 0 if report.clean else EXIT_RECOVERED


def add_msr_faults_argument(parser: argparse.ArgumentParser) -> None:
    """The deterministic fault-injection flag shared by the
    counter-touching front-ends (and the agent's soak mode)."""
    parser.add_argument(
        "--msr-faults", dest="msr_faults", metavar="SPEC",
        help="inject deterministic msr-driver faults, e.g. "
             "'seed=7,read_fault_rate=0.1' or "
             "'sticky=0x394,overflow_after=1000'")


def faults_from_args(args: argparse.Namespace, tool: str):
    """Parse ``--msr-faults`` into a FaultPlan; on a malformed spec
    prints the uniform usage error and raises SystemExit(2)."""
    spec = getattr(args, "msr_faults", None)
    if not spec:
        return None
    from repro.oskern.msr_driver import FaultPlan
    try:
        return FaultPlan.from_string(spec)
    except ValueError as exc:
        print(f"{tool}: bad --msr-faults: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """The self-observability flags every front-end shares: turn on
    :mod:`repro.trace` for the run and export what it saw."""
    parser.add_argument(
        "--profile", action="store_true",
        help="trace this tool's own hot paths and print a flat span/"
             "metric report to stderr when it exits")
    parser.add_argument(
        "--profile-json", dest="profile_json", metavar="PATH",
        help="write the run's trace as schema-validated JSON loadable "
             "in about:tracing / Perfetto (implies tracing on)")


@contextlib.contextmanager
def profiled(args: argparse.Namespace, tool: str):
    """Run the tool body under the global tracer when profiling was
    requested; export on the way out (even if the body raised, so a
    failing run still leaves its trace behind)."""
    wants = getattr(args, "profile", False) or \
        getattr(args, "profile_json", None)
    if not wants:
        yield
        return
    from repro import trace
    trace.enable(reset=True)
    try:
        yield
    finally:
        trace.disable()
        if args.profile_json:
            from repro.trace.export import write_profile
            write_profile(args.profile_json, trace.TRACER, tool=tool)
        if args.profile:
            from repro.trace.export import text_report
            print(f"== {tool} self-profile ==", file=sys.stderr)
            print(text_report(trace.TRACER), file=sys.stderr)


# Workload registry for the wrapper-style tools: the simulated stand-in
# for "./a.out" on the real command line.
WORKLOADS = ("stream_icc", "stream_gcc", "jacobi_threaded",
             "jacobi_threaded_nt", "jacobi_wavefront", "dgemm", "sleep")


def run_workload(name: str, machine: SimMachine, kernel,
                 *, nthreads: int, pin_cpus: list[int] | None = None):
    """Execute a named workload; returns the model RunResult (or None
    for 'sleep', which generates no events — the monitoring-mode idiom
    from the paper)."""
    from repro.workloads.jacobi import JacobiConfig, run_jacobi
    from repro.workloads.stream import run_stream

    if name == "sleep":
        machine.apply_counts({}, elapsed_seconds=1.0)
        return None
    if name.startswith("stream_"):
        compiler = name.split("_", 1)[1]
        return run_stream(machine, kernel, nthreads=nthreads,
                          compiler=compiler, pin_cpus=pin_cpus).result
    if name == "dgemm":
        from repro.workloads.matmul import MatmulConfig, run_matmul
        cfg = MatmulConfig(256, 16, nthreads)
        return run_matmul(machine, kernel, cfg, pin_cpus=pin_cpus).result
    if name.startswith("jacobi_"):
        variant = name.split("_", 1)[1]
        cfg = JacobiConfig(variant, 320, 6, nthreads)
        return run_jacobi(machine, kernel, cfg, pin_cpus=pin_cpus).result
    raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOADS}")


def run_marked_workload(name: str, machine: SimMachine, kernel,
                        session, *, nthreads: int,
                        pin_cpus: list[int] | None = None):
    """Run a stream workload instrumented with marker regions "Init"
    and "Benchmark" (the paper's -m listing) against a started
    session; returns the MarkerAPI holding per-region results."""
    from repro.core.perfctr import MarkerAPI
    from repro.model.ecm import KernelPhase, PlacedWork, solve
    from repro.workloads.runner import apply_result
    from repro.workloads.stream import stream_phase

    if not name.startswith("stream_"):
        raise SystemExit("marker mode is wired for the stream workloads")
    compiler = name.split("_", 1)[1]
    cpus = pin_cpus or session.cpus
    cpus = cpus[:nthreads]

    marker = MarkerAPI(session)
    marker.likwid_markerInit(len(cpus), 2)
    init_id = marker.likwid_markerRegisterRegion("Init")
    bench_id = marker.likwid_markerRegisterRegion("Benchmark")

    def run_phase(phase):
        work = [PlacedWork(tid=i, hwthread=cpu,
                           memory_socket=machine.spec.socket_of(cpu),
                           phase=phase)
                for i, cpu in enumerate(cpus)]
        apply_result(machine, solve(machine.spec, work))

    init_phase = KernelPhase(
        "init", iters=500_000, instr_per_iter=3.0, cycles_per_iter=2.0,
        loads_per_iter=0.0, stores_per_iter=1.0,
        mem_write_bytes_per_iter=8.0, mem_read_bytes_per_iter=8.0)
    for thread, cpu in enumerate(cpus):
        marker.likwid_markerStartRegion(thread, cpu)
    run_phase(init_phase)
    for thread, cpu in enumerate(cpus):
        marker.likwid_markerStopRegion(thread, cpu, init_id)

    bench_phase = stream_phase("triad", compiler, 2_000_000)
    for thread, cpu in enumerate(cpus):
        marker.likwid_markerStartRegion(thread, cpu)
    run_phase(bench_phase)
    for thread, cpu in enumerate(cpus):
        marker.likwid_markerStopRegion(thread, cpu, bench_id)

    marker.likwid_markerClose()
    return marker


def restore_sigpipe() -> None:
    """Die silently on SIGPIPE like a well-behaved Unix filter (so
    ``likwid-topology | head`` does not traceback)."""
    import signal
    try:
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (AttributeError, ValueError):
        pass  # non-Unix platform or non-main thread


def ignore_sigpipe() -> None:
    """The opposite stance, for commands that host sockets: a peer
    that disappears mid-write must surface as ``BrokenPipeError`` on
    that one connection, never kill the whole process.  (Python's
    startup default, but :func:`restore_sigpipe` may have run first
    in this process.)"""
    import signal
    try:
        signal.signal(signal.SIGPIPE, signal.SIG_IGN)
    except (AttributeError, ValueError):
        pass  # non-Unix platform or non-main thread
