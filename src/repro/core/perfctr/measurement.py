"""The likwid-perfCtr measurement engine (wrapper mode).

A :class:`PerfCtrSession` owns one configured measurement: a set of
CPUs, validated event→counter assignments, socket locks for uncore
events, and the msr-level programming.  The wrapper-mode flow is::

    perfctr = LikwidPerfCtr(machine)
    result = perfctr.wrap("0-3", "FLOPS_DP", run_application)

which is ``likwid-perfctr -c 0-3 -g FLOPS_DP ./a.out``: set up the
counters, start them, run the application, stop, read, and derive
metrics.  Counting is strictly core-based: whatever executed on the
measured cores during the window is counted, regardless of process
(paper §II.A) — enforcing affinity is the user's job (likwid-pin).

Sessions are context managers with guaranteed teardown: if the wrapped
workload raises, the counters are disabled and the socket locks
released anyway (``with session: ...``).  The runtime is hardened
against a faulting msr driver (see
:class:`~repro.oskern.msr_driver.FaultPlan`): transient faults are
retried invisibly, counter wrap-around is corrected via the PMU's
overflow interrupt and the architecture's declared counter width, and
uncore permission/lock failures degrade to per-event NaN with a
warning instead of aborting the measurement — unless strict-I/O
semantics were requested, in which case they raise
:class:`~repro.errors.DegradedError`.
"""

from __future__ import annotations

import time as _time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import trace as _trace
from repro.core.affinity import parse_corelist
from repro.core.perfctr.counters import (Assignment, CounterMap, RetryPolicy,
                                         auto_fixed_assignments,
                                         counter_delta, validate_assignments)
from repro.core.perfctr.events import is_event_string, parse_event_string
from repro.core.perfctr.formula import evaluate
from repro.core.perfctr.groups import GroupDef, lookup_group
from repro.errors import (CounterError, DegradedError, MsrIOError,
                          MsrPermissionError, SocketLockError)
from repro.hw.machine import SimMachine
from repro.oskern.access import AccessBackend, MsrBackend, backend_for
from repro.oskern.msr_driver import MsrDriver


@dataclass
class MeasurementResult:
    """Counts and derived metrics of one measurement window."""

    cpus: list[int]
    counts: dict[int, dict[str, float]]           # cpu -> event -> count
    metrics: dict[int, dict[str, float]] = field(default_factory=dict)
    wall_time: float = 0.0
    group: GroupDef | None = None
    warnings: list[str] = field(default_factory=list)  # degraded events
    io_retries: int = 0                # transient msr faults absorbed

    def event(self, cpu: int, name: str) -> float:
        return self.counts[cpu].get(name, 0.0)

    def total(self, name: str) -> float:
        return sum(c.get(name, 0.0) for c in self.counts.values())

    def metric(self, cpu: int, name: str) -> float:
        return self.metrics[cpu][name]

    @property
    def degraded(self) -> bool:
        """True when any event degraded to NaN (see ``warnings``)."""
        return bool(self.warnings)


def _degradable(exc: Exception) -> bool:
    """Uncore failures the runtime may absorb as per-event NaN:
    device permission errors, sticky/exhausted I/O faults, and a
    socket lock held by another *live* session.  A vanished module
    (ENODEV) or any other MsrError stays fatal."""
    if isinstance(exc, (MsrPermissionError, SocketLockError)):
        return True
    if isinstance(exc, MsrIOError):
        return exc.errno_name in ("EIO", "EAGAIN")
    return False


class SessionLease:
    """A scheduler-granted measurement lease a session runs under.

    The concurrent-session server (:mod:`repro.server`) grants socket
    leases *before* a session starts; the lease carries the driver
    epoch the grant was journaled under, so the session's own
    socket-lock acquisitions are re-entrant with the scheduler's
    (same pid, same epoch) instead of conflicting.  An adopted epoch
    is owned by the lease holder: the session does **not** end it on
    close — the scheduler ends it after the lease's locks are
    released, so the write-ahead journal retires exactly when the
    lease (not merely the measurement) is over.

    ``on_start``/``on_release`` are lifecycle hooks: called once with
    the session after a successful start and once on close (every
    close path, including teardown after a failed start or a raising
    workload)."""

    def __init__(self, epoch: int | None = None, *,
                 on_start: Callable | None = None,
                 on_release: Callable | None = None):
        self.epoch = epoch
        self.on_start = on_start
        self.on_release = on_release

    @property
    def owns_epoch(self) -> bool:
        return self.epoch is not None


class PerfCtrSession:
    """One configured measurement across a CPU set.

    Usable as a context manager: entering starts the counters (if not
    already started) and exiting guarantees teardown even when the
    measured workload raises — no counters left enabled, no socket
    locks held, no leaked msr file handles."""

    def __init__(self, machine: SimMachine, driver: MsrDriver,
                 cpus: list[int], assignments: list[Assignment],
                 group: GroupDef | None = None, *,
                 strict_io: bool = False,
                 retry_policy: RetryPolicy | None = None,
                 backend: AccessBackend | None = None,
                 lease: SessionLease | None = None):
        if not cpus:
            raise CounterError("no cpus to measure")
        if len(set(cpus)) != len(cpus):
            raise CounterError(f"duplicate cpus in measurement set {cpus}")
        self.machine = machine
        self.driver = driver
        self.cpus = list(cpus)
        self.assignments = assignments
        self.group = group
        self.strict_io = strict_io
        self.counters = CounterMap(machine.spec)
        # All register traffic flows through an access backend
        # (direct-msr by default); the backend owns the event-level
        # programming engine, exposed as ``programmer`` for
        # compatibility and test instrumentation.
        self.backend = backend if backend is not None else MsrBackend(driver)
        self.backend.attach(self.counters, retry_policy=retry_policy)
        self.programmer = self.backend.programmer
        # Session epoch: the unit the write-ahead journal and the
        # socket-lock table attribute this session's mutations to.
        # A lease-granted session adopts the lease's epoch instead of
        # opening its own.
        self.lease = lease
        self._epoch: int | None = None
        self._started_at: float | None = None
        self._stopped = False
        self._closed = False
        self.wall_time = 0.0
        self.warnings: list[str] = []
        # (cpu, status_bit) -> number of wrap-arounds observed while
        # the session was counting (fed by the PMU's overflow PMI).
        self._overflows: dict[tuple[int, int], int] = {}
        self._handlers: dict[int, Callable] = {}
        # Counter values right after enabling: subtracted from every
        # readout so a non-zero initial counter state (e.g. a forced
        # overflow preload) cannot corrupt the counts.
        self._base: dict[int, dict[str, float]] = {}
        self._degraded_sockets: set[int] = set()

        self.core_assignments = [a for a in assignments
                                 if not a.counter.is_uncore]
        self.uncore_assignments = [a for a in assignments
                                   if a.counter.is_uncore]
        # Socket locks: the first measured CPU of each socket owns the
        # socket's uncore counters.
        self.socket_locks: dict[int, int] = {}
        if self.uncore_assignments:
            if not machine.spec.pmu.has_uncore:
                raise CounterError(
                    f"{machine.spec.name} has no uncore counters")
            for cpu in self.cpus:
                socket = machine.spec.socket_of(cpu)
                self.socket_locks.setdefault(socket, cpu)

    # -- lifecycle ------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Counters currently enabled (started, not yet stopped)."""
        return self._started_at is not None and not self._stopped

    def start(self) -> None:
        """Program and enable all counters (counters start from zero).

        On any failure the already-programmed CPUs are disabled again
        before the error propagates — a failed start never leaves a
        torn, half-enabled session behind."""
        group = self.group.name if self.group is not None else None
        with _trace.span("perfctr.start", group=group,
                         cpus=len(self.cpus),
                         events=len(self.assignments)):
            try:
                self._start_inner()
            except Exception:
                self._teardown()
                self._end_epoch()
                raise
        if self.lease is not None and self.lease.on_start is not None:
            self.lease.on_start(self)
        if _trace.TRACER.enabled:
            _trace.incr("perfctr.sessions.started")

    def _start_inner(self) -> None:
        self._overflows.clear()
        self._base = {}
        self._stopped = False
        if self._epoch is None:
            if self.lease is not None and self.lease.owns_epoch:
                self._epoch = self.lease.epoch
            else:
                self._epoch = self.driver.begin_epoch()
        # Acquire each socket's uncore lock before touching its
        # counters.  A lock held by a *live* session degrades this
        # socket to NaN (SocketLockError is degradable); a stale lock
        # from a crashed run is reclaimed inside the driver.  A
        # backend whose kernel arbitrates uncore access itself
        # (perf_event) skips the tool-level locks entirely.
        if self.backend.capabilities.needs_socket_locks:
            for socket, cpu in self.socket_locks.items():
                self._guarded_uncore(
                    socket, cpu, "lock acquisition",
                    lambda s=socket, c=cpu: self.driver.acquire_socket_lock(
                        s, c, self._epoch))
        with _trace.span("perfctr.program", cpus=len(self.cpus)):
            for cpu in self.cpus:
                self.backend.program_core(cpu, self.core_assignments)
            for socket, cpu in self.socket_locks.items():
                if socket in self._degraded_sockets:
                    continue
                self._guarded_uncore(
                    socket, cpu, "setup",
                    lambda c=cpu: self.backend.program_uncore(
                        c, self.uncore_assignments))
        with _trace.span("perfctr.enable", cpus=len(self.cpus)):
            for cpu in self.cpus:
                self._register_overflow_handler(cpu)
                self.backend.start_core(cpu, self.core_assignments)
            for socket, cpu in self.socket_locks.items():
                if socket in self._degraded_sockets:
                    continue
                self._guarded_uncore(
                    socket, cpu, "start",
                    lambda c=cpu: self.backend.start_uncore(
                        c, self.uncore_assignments))
        # Baseline snapshot: nothing has executed yet, so this reads
        # each counter's initial value (0 unless something — like a
        # forced-overflow fault — preloaded it).
        with _trace.span("perfctr.baseline", cpus=len(self.cpus)):
            for cpu in self.cpus:
                raw = self.backend.read_batch(cpu, self.core_assignments)
                self._base[cpu] = {name: float(v) for name, v in raw.items()}
            for socket, cpu in self.socket_locks.items():
                if socket in self._degraded_sockets:
                    continue

                def read_base(c=cpu):
                    raw = self.backend.read_uncore_batch(
                        c, self.uncore_assignments)
                    self._base.setdefault(c, {}).update(
                        (name, float(v)) for name, v in raw.items())
                self._guarded_uncore(socket, cpu, "baseline read", read_base)
        self._started_at = _time.perf_counter()

    def stop(self) -> None:
        if self._started_at is None:
            raise CounterError("session not started")
        self.wall_time = _time.perf_counter() - self._started_at
        with _trace.span("perfctr.stop", cpus=len(self.cpus)):
            for cpu in self.cpus:
                self.backend.stop_core(cpu, self.core_assignments)
            for socket, cpu in self.socket_locks.items():
                if socket in self._degraded_sockets:
                    continue
                try:
                    self.backend.stop_uncore(cpu)
                except Exception as exc:
                    if not _degradable(exc):
                        raise
                    self._degrade(socket, f"uncore stop on cpu {cpu}: {exc}",
                                  raise_strict=False)
        self._stopped = True

    def close(self) -> None:
        """Release everything, absorbing secondary failures.

        Safe to call multiple times and in any state; after close the
        counters are guaranteed disabled (best effort against a
        faulting driver) and the overflow handlers deregistered."""
        if self._closed:
            return
        self._closed = True
        if self.active:
            self.wall_time = _time.perf_counter() - self._started_at
            self._teardown()
            self._stopped = True
        else:
            self._release_locks()
        self._end_epoch()
        self._unregister_overflow_handlers()
        self.backend.release()
        if self.lease is not None and self.lease.on_release is not None:
            self.lease.on_release(self)

    def _end_epoch(self) -> None:
        if self._epoch is None:
            return
        if self.lease is not None and self.lease.owns_epoch:
            # An adopted epoch belongs to the lease holder; the
            # scheduler ends it after the lease's locks are released.
            self._epoch = None
            return
        try:
            self.driver.end_epoch(self._epoch)
        except Exception:
            pass
        self._epoch = None

    def _teardown(self) -> None:
        """Best-effort disable of every counter this session touched,
        then release its socket locks."""
        for cpu in self.cpus:
            try:
                self.backend.stop_core(cpu, self.core_assignments)
            except Exception:
                pass
        for socket, cpu in self.socket_locks.items():
            try:
                self.backend.stop_uncore(cpu)
            except Exception:
                pass
        self._release_locks()

    def _release_locks(self) -> None:
        """Drop this session's socket locks.  The driver compares pid
        *and* epoch before touching an entry, so a lock lost to a
        stale-reclaim is left with its new owner (the mismatch is
        counted as ``recover.lock_conflict``)."""
        if self._epoch is None:
            return
        if not self.backend.capabilities.needs_socket_locks:
            return
        for socket in self.socket_locks:
            try:
                self.driver.release_socket_lock(socket, self._epoch)
            except Exception:
                pass

    def __enter__(self) -> "PerfCtrSession":
        if not self.active:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- degradation and overflow bookkeeping ---------------------------------

    def _degrade(self, socket: int, what: str, *,
                 raise_strict: bool = True) -> None:
        message = (f"uncore measurement degraded on socket {socket} "
                   f"({what}); its events report NaN")
        if self.strict_io and raise_strict:
            raise DegradedError(message)
        self._degraded_sockets.add(socket)
        self.warnings.append(message)

    def _guarded_uncore(self, socket: int, cpu: int, what: str,
                        op: Callable[[], object]) -> None:
        try:
            op()
        except Exception as exc:
            if not _degradable(exc):
                raise
            self._degrade(socket, f"uncore {what} on cpu {cpu}: {exc}")

    def _register_overflow_handler(self, cpu: int) -> None:
        if cpu in self._handlers:
            return

        def handler(hwthread: int, status_bit: int,
                    _cpu: int = cpu) -> None:
            key = (_cpu, status_bit)
            self._overflows[key] = self._overflows.get(key, 0) + 1

        self._handlers[cpu] = handler
        self.machine.core_pmus[cpu].overflow_handlers.append(handler)

    def _unregister_overflow_handlers(self) -> None:
        for cpu, handler in self._handlers.items():
            handlers = self.machine.core_pmus[cpu].overflow_handlers
            if handler in handlers:
                handlers.remove(handler)
        self._handlers.clear()

    @staticmethod
    def _status_bit(a: Assignment) -> int:
        """IA32_PERF_GLOBAL_STATUS bit index of an assignment's counter
        (PMC i -> bit i, FIXC i -> bit 32+i)."""
        if a.counter.cls == "FIXC":
            return 32 + a.counter.index
        return a.counter.index

    # -- reading ----------------------------------------------------------------

    def read_raw(self, cpu: int) -> dict[str, float]:
        """Current counter values for one CPU, keyed by event name.
        Uncore counts appear only for the socket-lock owner.

        Values are overflow-corrected: each observed wrap-around adds
        one full counter period (``2**width``), and the baseline
        snapshot taken at start is subtracted, so counts stay exact
        across wraps and non-zero initial counter state."""
        period = float(1 << self.machine.spec.pmu.counter_width)
        base = self._base.get(cpu, {})
        values: dict[str, float] = {}
        raw = self.backend.read_batch(cpu, self.core_assignments)
        for a in self.core_assignments:
            value = float(raw[a.counter.name])
            value += self._overflows.get((cpu, self._status_bit(a)), 0) \
                * period
            values[a.event.name] = value - base.get(a.counter.name, 0.0)
        if self.uncore_assignments:
            socket = self.machine.spec.socket_of(cpu)
            if self.socket_locks.get(socket) != cpu:
                # Socket lock: the count is attributed to one thread per
                # socket; everyone else reports zero for uncore events.
                for a in self.uncore_assignments:
                    values[a.event.name] = 0.0
            elif socket in self._degraded_sockets:
                for a in self.uncore_assignments:
                    values[a.event.name] = float("nan")
            else:
                try:
                    raw = self.backend.read_uncore_batch(
                        cpu, self.uncore_assignments)
                except Exception as exc:
                    if not _degradable(exc):
                        raise
                    self._degrade(socket, f"uncore read on cpu {cpu}: {exc}")
                    for a in self.uncore_assignments:
                        values[a.event.name] = float("nan")
                else:
                    # The uncore PMU has no overflow interrupt here, so
                    # wrap correction is width-based (one wrap max).
                    for a in self.uncore_assignments:
                        values[a.event.name] = counter_delta(
                            float(raw[a.counter.name]),
                            base.get(a.counter.name, 0.0),
                            self.machine.spec.pmu.counter_width)
        return values

    def read(self, *, wall_time: float | None = None) -> MeasurementResult:
        group = self.group.name if self.group is not None else None
        with _trace.span("perfctr.read", group=group, cpus=len(self.cpus)):
            counts = {cpu: self.read_raw(cpu) for cpu in self.cpus}
        result = MeasurementResult(
            cpus=list(self.cpus), counts=counts,
            wall_time=self.wall_time if wall_time is None else wall_time,
            group=self.group, warnings=list(self.warnings),
            io_retries=self.backend.retries)
        if self.group is not None:
            derive_metrics(result, self.group, self.machine.spec.clock_hz)
        return result


def derive_metrics(result: MeasurementResult, group: GroupDef,
                   clock_hz: float) -> None:
    """Evaluate a group's metric formulas per CPU.

    ``time`` is derived from the unhalted-cycles event when present
    (exactly how the real tool computes per-core runtime), falling back
    to wall-clock time otherwise."""
    cycles_events = ("CPU_CLK_UNHALTED_CORE", "CPU_CLOCKS_UNHALTED",
                     "PM_RUN_CYC")
    for cpu in result.cpus:
        variables = dict(result.counts[cpu])
        region_time = result.wall_time
        for name in cycles_events:
            if variables.get(name, 0.0) > 0:
                region_time = variables[name] / clock_hz
                break
        variables["time"] = region_time if region_time > 0 else float("nan")
        variables["clock"] = clock_hz
        result.metrics[cpu] = {
            label: evaluate(formula, variables)
            for label, formula in group.metrics
        }


class LikwidPerfCtr:
    """The likwid-perfCtr tool bound to one machine.

    ``strict_io=True`` turns degraded (NaN-producing) outcomes into
    :class:`~repro.errors.DegradedError`; ``retry_policy`` tunes the
    bounded-backoff retry of transient msr faults.  ``access_mode``
    selects the counter-access backend (``msr`` or ``perf``, the
    ``--access-mode`` flag); alternatively an :class:`AccessBackend`
    instance is accepted and shared by every session (one active
    session at a time), in which case its driver is adopted."""

    def __init__(self, machine: SimMachine, driver: MsrDriver | None = None,
                 *, strict_io: bool = False,
                 retry_policy: RetryPolicy | None = None,
                 access_mode: str = "msr",
                 backend: AccessBackend | None = None):
        self.machine = machine
        if backend is not None:
            self.driver = backend.driver
        else:
            self.driver = driver or MsrDriver(machine)
        self._backend = backend
        self.access_mode = backend.capabilities.name if backend is not None \
            else access_mode
        self.counters = CounterMap(machine.spec)
        self.strict_io = strict_io
        self.retry_policy = retry_policy

    def _resolve(self, group_or_events: str) \
            -> tuple[list[Assignment], GroupDef | None]:
        table = self.machine.spec.events
        if is_event_string(group_or_events):
            specs = parse_event_string(group_or_events)
            group = None
        else:
            group = lookup_group(self.machine.spec, group_or_events)
            specs = list(group.events)
        assignments = validate_assignments(table, self.counters, specs)
        # The Intel fixed counters always count (paper: CPI for free).
        present = {a.event.name for a in assignments}
        for extra in auto_fixed_assignments(table, self.counters):
            if extra.event.name not in present:
                assignments.append(extra)
        return assignments, group

    def session(self, cpus: str | list[int],
                group_or_events: str, *,
                lease: SessionLease | None = None) -> PerfCtrSession:
        """Configure a measurement (``-c <cpus> -g <group|events>``).

        ``lease`` attaches a scheduler-granted :class:`SessionLease`
        (adopted epoch + lifecycle hooks, see repro.server)."""
        if isinstance(cpus, str):
            cpus = parse_corelist(cpus,
                                  max_cpu=self.machine.num_hwthreads - 1)
        assignments, group = self._resolve(group_or_events)
        backend = self._backend if self._backend is not None \
            else backend_for(self.access_mode, self.driver)
        return PerfCtrSession(self.machine, self.driver, cpus,
                              assignments, group, strict_io=self.strict_io,
                              retry_policy=self.retry_policy,
                              backend=backend, lease=lease)

    def wrap(self, cpus: str | list[int], group_or_events: str,
             run: Callable[[], object]) -> MeasurementResult:
        """Wrapper mode: measure an application over its full runtime.

        The callable stands for the wrapped binary; anything it
        executes on the measured cores lands in the counters.  If the
        workload raises, the session is torn down (counters disabled,
        socket locks released) before the exception propagates.
        """
        with _trace.span("perfctr.wrap", group=group_or_events):
            session = self.session(cpus, group_or_events)
            with session:
                with _trace.span("perfctr.workload"):
                    payload = run()
                session.stop()
                wall = getattr(payload, "total_time", None)
                return session.read(wall_time=wall)

    def available_events(self) -> list[str]:
        return self.machine.spec.events.names()
