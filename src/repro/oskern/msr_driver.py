"""The Linux ``msr`` kernel module, simulated.

likwid-perfCtr "uses the Linux msr module to modify the MSRs from user
space.  The msr module ... implements the read/write access to MSRs
based on device files" (paper, §II.A).  This module reproduces that
interface: per-CPU device files ``/dev/cpu/N/msr`` supporting 8-byte
pread/pwrite at the file offset equal to the register address.

The module must be *loaded* before device files can be opened, and
opening requires root unless the device permissions were relaxed —
the two installation stumbling blocks the real tool documents.

Beyond the happy path, the driver can *inject faults*: a seeded,
deterministic :class:`FaultPlan` reproduces the failure modes a
long-running monitoring daemon sees in the field — transient
``EAGAIN``/``EIO`` on pread/pwrite, the module being unloaded under an
open file, device permissions flipping mid-run, addresses going
permanently bad, and counters forced to overflow after a programmable
number of events.  The perfctr runtime is hardened against all of
them (see :mod:`repro.core.perfctr.measurement`).
"""

from __future__ import annotations

import random
import struct
import time as _time
from dataclasses import dataclass, field

from repro import trace as _trace
from repro.errors import (JournalError, MsrError, MsrIOError,
                          MsrPermissionError, ProcessKilled,
                          SimulatedInterrupt)
from repro.hw.machine import SimMachine
from repro.oskern.journal import MsrJournal, state_mutating_addresses
from repro.oskern.locks import SocketLockTable
from repro.oskern.proc import SimProcessTable
from repro.trace.metrics import MetricsRegistry


@dataclass
class DriverStats:
    """Access accounting: the basis of the tool's low-overhead claim —
    a measurement costs a fixed number of device-file operations, not
    anything proportional to the application's runtime.

    ``opens``/``closes`` make handle leaks observable (a resilient
    runtime must end a run with ``live_handles == 0`` even when the
    workload raised); ``faults`` counts injected failures so retry
    behaviour can be asserted on."""

    opens: int = 0
    reads: int = 0
    writes: int = 0
    closes: int = 0
    faults: int = 0

    @property
    def operations(self) -> int:
        return self.reads + self.writes

    @property
    def live_handles(self) -> int:
        """Currently open device files (leak detector)."""
        return self.opens - self.closes

    def reset(self) -> None:
        self.opens = self.reads = self.writes = 0
        self.closes = self.faults = 0


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seedable schedule of msr-driver faults.

    All randomness comes from one ``random.Random(seed)`` stream that
    advances once per fault decision, so a given plan against a given
    operation sequence always injects the same faults — tests and the
    fault-injection CI job are exactly reproducible.

    Fault kinds (all independent, all optional):

    * ``read_fault_rate`` / ``write_fault_rate`` — probability that a
      pread/pwrite raises a *transient* fault (``transient_errno``,
      default ``EAGAIN``).  Retrying the operation draws fresh
      randomness and will eventually succeed.
    * ``unload_after`` — after this many device operations (opens +
      reads + writes) the module behaves as if ``rmmod msr`` ran:
      new opens fail, and I/O on already-open files raises a
      non-transient ``ENODEV``.
    * ``revoke_write_after`` — after this many operations the device
      nodes lose write permission; new writable opens raise
      :class:`~repro.errors.MsrPermissionError` (already-open files
      keep their access mode, like real fds).
    * ``sticky_addresses`` — offsets that permanently fail with a
      non-transient ``EIO`` (a broken register, in effect).
    * ``overflow_after`` — whenever the tool layer zeroes a counter
      register, preload it with ``2**width - overflow_after`` instead,
      so the counter overflows (wraps past zero) after that many
      events — the standard trick for forcing mid-run wrap-around.
    * ``kill_after`` — after this many device operations the tool
      *process model dies* (SIGKILL semantics): the operation raises
      :class:`~repro.errors.ProcessKilled`, the driver's pid is marked
      dead, and **every** later driver call raises the same — no
      teardown runs, MSR state stays dirty, socket locks stay held and
      the write-ahead journal stays orphaned.  Recovery is the job of
      a *new* process (``driver.respawn()`` + the recovery engine, or
      ``--recover`` on the CLI).  Fires once.
    * ``sigint_after`` — after this many operations the process model
      receives a simulated SIGINT: the operation raises
      :class:`~repro.errors.SimulatedInterrupt`, which propagates
      through the session context managers so the *graceful* teardown
      path runs (counters disabled, locks released, journal retired).
      Fires once; teardown's own device operations proceed normally.
    """

    seed: int = 0
    read_fault_rate: float = 0.0
    write_fault_rate: float = 0.0
    transient_errno: str = "EAGAIN"
    unload_after: int | None = None
    revoke_write_after: int | None = None
    sticky_addresses: tuple[int, ...] = ()
    overflow_after: int | None = None
    kill_after: int | None = None
    sigint_after: int | None = None

    def __post_init__(self) -> None:
        for name in ("read_fault_rate", "write_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.transient_errno not in ("EAGAIN", "EIO"):
            raise ValueError(
                f"transient_errno must be EAGAIN or EIO, "
                f"got {self.transient_errno!r}")
        if self.overflow_after is not None and self.overflow_after < 1:
            raise ValueError("overflow_after must be >= 1")
        for name in ("kill_after", "sigint_after"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")

    @classmethod
    def from_string(cls, text: str) -> "FaultPlan":
        """Parse the CLI syntax: comma-separated ``key=value`` pairs.

        Keys are the field names (``sticky`` may repeat and accepts
        hex addresses; any other repeated key is rejected rather than
        silently keeping the last value)::

            seed=7,read_fault_rate=0.1
            unload_after=20
            sticky=0x38F,sticky=0xC1
            overflow_after=1000
        """
        kwargs: dict = {}
        sticky: list[int] = []
        for part in filter(None, (p.strip() for p in text.split(","))):
            if "=" not in part:
                raise ValueError(f"bad fault spec {part!r} (need key=value)")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in ("sticky", "sticky_addresses") and key in kwargs:
                raise ValueError(f"duplicate fault key {key!r}")
            if key in ("sticky", "sticky_addresses"):
                sticky.append(int(value, 0))
            elif key in ("read_fault_rate", "write_fault_rate"):
                kwargs[key] = float(value)
            elif key in ("seed", "unload_after", "revoke_write_after",
                         "overflow_after", "kill_after", "sigint_after"):
                kwargs[key] = int(value, 0)
            elif key == "transient_errno":
                kwargs[key] = value
            else:
                raise ValueError(f"unknown fault key {key!r}")
        if sticky:
            kwargs["sticky_addresses"] = tuple(sticky)
        return cls(**kwargs)


@dataclass
class _FaultState:
    """Mutable per-driver state of an armed FaultPlan."""

    plan: FaultPlan
    rng: random.Random
    op_count: int = 0
    sticky: frozenset = field(default_factory=frozenset)
    kill_fired: bool = False
    sigint_fired: bool = False


class MsrFile:
    """An open ``/dev/cpu/N/msr`` file descriptor."""

    def __init__(self, driver: "MsrDriver", cpu: int, writable: bool):
        self._driver = driver
        self._machine = driver.machine
        self.cpu = cpu
        self.writable = writable
        self.closed = False
        self._stats = driver.stats
        # Bound-method caches for the journaled-write hot path (the
        # journal and register space never change under an open fd).
        self._peek = driver.machine.msr[cpu].peek
        self._mutable = state_mutating_addresses(driver.machine.spec)
        self._record_write = driver.journal.record_write \
            if driver.journal is not None else None

    def _check_open(self) -> None:
        self._driver._check_process()
        if self.closed:
            raise MsrError(f"I/O on closed msr device for cpu {self.cpu}")
        if not self._driver.loaded:
            raise MsrIOError(
                "ENODEV",
                f"msr module unloaded under open device for cpu {self.cpu}",
                cpu=self.cpu)

    def pread(self, address: int) -> bytes:
        """Read 8 bytes at offset *address* (one RDMSR)."""
        self._check_open()
        tracer = _trace.TRACER
        if not tracer.enabled:
            self._driver._before_op(self.cpu, address, write=False)
            self._stats.reads += 1
            return struct.pack("<Q", self._machine.rdmsr(self.cpu, address))
        t0 = _time.perf_counter_ns()
        try:
            self._driver._before_op(self.cpu, address, write=False)
            self._stats.reads += 1
            return struct.pack("<Q", self._machine.rdmsr(self.cpu, address))
        finally:
            metrics = tracer.metrics
            metrics.incr("msr.pread")
            metrics.observe("msr.pread.ns", _time.perf_counter_ns() - t0)

    def pwrite(self, address: int, data: bytes) -> None:
        """Write 8 bytes at offset *address* (one WRMSR)."""
        self._check_open()
        if not self.writable:
            raise MsrError(f"msr device for cpu {self.cpu} opened read-only")
        if len(data) != 8:
            raise MsrError(f"msr writes must be 8 bytes, got {len(data)}")
        tracer = _trace.TRACER
        if not tracer.enabled:
            self._do_pwrite(address, data)
            return
        t0 = _time.perf_counter_ns()
        try:
            self._do_pwrite(address, data)
        finally:
            metrics = tracer.metrics
            metrics.incr("msr.pwrite")
            metrics.observe("msr.pwrite.ns", _time.perf_counter_ns() - t0)

    def _do_pwrite(self, address: int, data: bytes) -> None:
        self._driver._before_op(self.cpu, address, write=True)
        value = struct.unpack("<Q", data)[0]
        value = self._driver._rewrite_value(address, value)
        self._stats.writes += 1
        self._machine.wrmsr(self.cpu, address, value)

    # Convenience integer forms used by the tool layer.

    def read_msr(self, address: int) -> int:
        return struct.unpack("<Q", self.pread(address))[0]

    def write_msr(self, address: int, value: int) -> None:
        self.pwrite(address, struct.pack("<Q", value & (2**64 - 1)))

    def journaled_write(self, address: int, value: int) -> None:
        """The crash-safe write path for state-mutating registers.

        Write-ahead ordering: the journal record — before-value, new
        value, cpu, register, session epoch — is appended (and, for a
        file-backed journal, flushed) *before* the device write, so a
        crash at any instant leaves either an un-acted-on record
        (recovery restores an unchanged value — idempotent) or a
        record for a completed write (recovery undoes it).  The
        before-value is the device's own knowledge of its register
        file, so journaling never perturbs the operation clock or the
        fault dice — a journaled run injects the same faults at the
        same points as an unjournaled one.

        With journaling disabled (``--no-journal``) this degrades to
        a plain :meth:`write_msr`; either way the address must be in
        the architecture's state-mutating classification (the LK5xx
        lint statically verifies the tool layer only writes through
        here)."""
        record = self._record_write
        if record is None:
            self.write_msr(address, value)
            return
        if address not in self._mutable:
            raise JournalError(
                f"journaled write to MSR 0x{address:X}, which is not a "
                f"state-mutating register of {self._machine.name} "
                f"(classifier bug — see docs/linting.md LK502)")
        record(self._driver.current_epoch, self.cpu, address,
               self._peek(address), value & 0xFFFFFFFFFFFFFFFF)
        self.write_msr(address, value)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._stats.closes += 1

    # Context-manager form so ad-hoc users get guaranteed closes too.

    def __enter__(self) -> "MsrFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MsrDriver:
    """The msr kernel module: loadable, with device-node permissions,
    and (optionally) a deterministic fault schedule."""

    def __init__(self, machine: SimMachine, *, loaded: bool = True,
                 device_writable: bool = True,
                 faults: FaultPlan | None = None,
                 metrics: MetricsRegistry | None = None,
                 journal: MsrJournal | None = None,
                 journaling: bool = True,
                 procs: SimProcessTable | None = None,
                 pid: int | None = None,
                 locks: SocketLockTable | None = None):
        self.machine = machine
        self.loaded = loaded
        self.device_writable = device_writable
        self.stats = DriverStats()
        # Fault accounting is reconciled with the perfctr retry loop
        # through one registry: the driver counts every injected fault
        # here (msr.faults.*) and CounterProgrammer counts every
        # absorbed/abandoned one in the same registry (msr.io.*), so
        # the two sides cannot drift apart (docs/observability.md).
        self.metrics = metrics if metrics is not None else _trace.metrics()
        self.fault_plan = faults
        self._faults: _FaultState | None = None
        if faults is not None:
            self._faults = _FaultState(
                plan=faults, rng=random.Random(faults.seed),
                sticky=frozenset(faults.sticky_addresses))
        # Crash-safety state: the write-ahead journal (on by default,
        # in-memory unless a file-backed one is passed in), the shared
        # socket-lock table, and the simulated process the driver acts
        # for.  ``journaling=False`` is the --no-journal path.
        self.procs = procs if procs is not None else SimProcessTable()
        self.pid = pid if pid is not None else self.procs.spawn()
        if not journaling:
            self.journal: MsrJournal | None = None
        else:
            self.journal = journal if journal is not None \
                else MsrJournal(metrics=self.metrics)
        # A shared lock table (repro.server: many session drivers over
        # one node) must be keyed by the same process table this
        # driver's pid lives in, or liveness checks would lie.
        if locks is not None and locks.procs is not self.procs:
            raise ValueError(
                "shared SocketLockTable must use the driver's process "
                "table (pass procs= alongside locks=)")
        self.locks = locks if locks is not None \
            else SocketLockTable(self.procs)
        self.current_epoch = 0
        self._open_epochs: set[int] = set()
        self._epoch_counter = 0
        self._process_dead = False

    # -- process model ---------------------------------------------------------

    @property
    def process_alive(self) -> bool:
        return not self._process_dead

    def _check_process(self) -> None:
        if self._process_dead:
            raise ProcessKilled(
                f"pid {self.pid} was killed mid-session; msr state may "
                f"be dirty — recover before measuring")

    def _die(self) -> None:
        """SIGKILL the process model: mark the pid dead and refuse
        every further driver operation."""
        self._process_dead = True
        self.procs.kill(self.pid)
        raise ProcessKilled(
            f"pid {self.pid} killed after "
            f"{self._faults.op_count if self._faults else 0} device "
            f"operations (kill_after fault); no teardown will run")

    def terminate(self) -> None:
        """SIGKILL the process model *from outside* (the server's
        lease preemption).  Unlike the fault-scheduled :meth:`_die`
        this does not raise — the preempting scheduler is not the
        dying process; it marks the pid dead so every further driver
        operation fails, socket locks go stale, and the write-ahead
        journal stays orphaned for recovery to replay."""
        self._process_dead = True
        self.procs.kill(self.pid)

    def respawn(self) -> int:
        """Start a new process model against the same hardware (the
        recovering tool invocation).  The dirty MSR state, held locks
        and orphaned journal are untouched — that is recovery's job."""
        self.pid = self.procs.spawn()
        self._process_dead = False
        self.current_epoch = 0
        return self.pid

    # -- session epochs --------------------------------------------------------

    def begin_epoch(self) -> int:
        """Open a session epoch: the unit the journal and socket locks
        attribute mutations to."""
        self._check_process()
        if self.journal is not None:
            epoch = self.journal.begin_epoch()
        else:
            self._epoch_counter += 1
            epoch = self._epoch_counter
        self._open_epochs.add(epoch)
        self.current_epoch = epoch
        return epoch

    def end_epoch(self, epoch: int) -> None:
        """Close a session epoch.  When no epoch remains open and no
        socket lock is held, the journal is retired — a cleanly ended
        run leaves nothing to recover."""
        if self._process_dead:
            return          # a dead process runs no epilogue
        self._open_epochs.discard(epoch)
        if self.current_epoch == epoch:
            self.current_epoch = 0
        if self.journal is not None and not self._open_epochs \
                and not self.locks.held():
            self.journal.clear()

    # -- socket locks ----------------------------------------------------------

    def acquire_socket_lock(self, socket: int, cpu: int,
                            epoch: int) -> None:
        """Take a socket's uncore lock for this pid/epoch, journaling
        the transition.  A stale lock (dead owner) is reclaimed in
        place and counted in ``recover.stale_locks_reclaimed``; a
        live owner raises :class:`~repro.errors.SocketLockError`."""
        self._check_process()
        holder = self.locks.holder(socket)
        fresh = self.locks.acquire(socket, cpu, self.pid, epoch)
        if not fresh:
            self.metrics.incr("recover.stale_locks_reclaimed")
            if self.journal is not None and holder is not None:
                self.journal.record_unlock(holder.epoch, socket,
                                           holder.owner_pid)
        if self.journal is not None:
            self.journal.record_lock(epoch, socket, self.pid)

    def release_socket_lock(self, socket: int, epoch: int) -> bool:
        """Drop a socket lock held by this pid/epoch.

        Returns ``False`` — and counts ``recover.lock_conflict`` —
        when the lock was lost to another owner mid-session, leaving
        the new owner's entry untouched.  A dead process releases
        nothing (its locks go stale instead)."""
        if self._process_dead:
            return False
        if not self.locks.release(socket, self.pid, epoch):
            if self.locks.holder(socket) is not None:
                self.metrics.incr("recover.lock_conflict")
            return False
        if self.journal is not None:
            self.journal.record_unlock(epoch, socket, self.pid)
        return True

    # -- module lifecycle ------------------------------------------------------

    def load(self) -> None:
        """modprobe msr"""
        self.loaded = True

    def unload(self) -> None:
        self.loaded = False

    def open(self, cpu: int, *, write: bool = True) -> MsrFile:
        """Open ``/dev/cpu/<cpu>/msr``."""
        self._check_process()
        self._count_op()
        if not self.loaded:
            raise MsrError(
                "msr module not loaded: /dev/cpu/*/msr does not exist "
                "(run 'modprobe msr')")
        if not 0 <= cpu < self.machine.num_hwthreads:
            raise MsrError(f"no such device /dev/cpu/{cpu}/msr")
        if write and not self.device_writable:
            raise MsrPermissionError(
                f"permission denied opening /dev/cpu/{cpu}/msr for writing")
        self.stats.opens += 1
        return MsrFile(self, cpu, writable=write)

    # -- fault machinery -------------------------------------------------------

    def _count_op(self) -> None:
        """Advance the operation clock and fire any scheduled state
        flips (module unload, permission revocation, process death)."""
        state = self._faults
        if state is None:
            return
        state.op_count += 1
        plan = state.plan
        if plan.unload_after is not None \
                and state.op_count > plan.unload_after and self.loaded:
            self.loaded = False
        if plan.revoke_write_after is not None \
                and state.op_count > plan.revoke_write_after \
                and self.device_writable:
            self.device_writable = False
        if plan.kill_after is not None and not state.kill_fired \
                and state.op_count > plan.kill_after:
            state.kill_fired = True
            self._die()         # raises ProcessKilled
        if plan.sigint_after is not None and not state.sigint_fired \
                and state.op_count > plan.sigint_after:
            state.sigint_fired = True
            raise SimulatedInterrupt(
                f"simulated SIGINT after {state.op_count - 1} device "
                f"operations; graceful teardown should follow")

    def _before_op(self, cpu: int, address: int, *, write: bool) -> None:
        """Roll the dice for one pread/pwrite; raise to inject."""
        state = self._faults
        if state is None:
            return
        self._count_op()
        if not self.loaded:
            # The op clock just crossed unload_after: this very
            # operation observes the module's disappearance.
            raise MsrIOError(
                "ENODEV",
                f"msr module unloaded under open device for cpu {cpu}",
                cpu=cpu, address=address)
        plan = state.plan
        if address in state.sticky:
            self.stats.faults += 1
            self.metrics.incr("msr.faults.sticky")
            raise MsrIOError(
                "EIO", f"sticky fault at msr 0x{address:X} on cpu {cpu}",
                cpu=cpu, address=address)
        rate = plan.write_fault_rate if write else plan.read_fault_rate
        if rate > 0.0 and state.rng.random() < rate:
            self.stats.faults += 1
            self.metrics.incr("msr.faults.transient")
            op = "pwrite" if write else "pread"
            raise MsrIOError(
                plan.transient_errno,
                f"transient {op} fault at msr 0x{address:X} on cpu {cpu}",
                transient=True, cpu=cpu, address=address)

    def _rewrite_value(self, address: int, value: int) -> int:
        """Forced overflow: zeroing a counter register preloads it near
        the top of its range instead, so it wraps after
        ``overflow_after`` counted events."""
        state = self._faults
        if state is None or state.plan.overflow_after is None:
            return value
        if value == 0 and address in self.machine.counter_addresses():
            top = 1 << self.machine.counter_width
            return top - state.plan.overflow_after
        return value
