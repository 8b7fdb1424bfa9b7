"""Counter resources: naming, validation, allocation and programming.

Maps the tool-level counter names (``PMC0``, ``FIXC1``, ``UPMC3``,
``UFIXC0``) onto MSR addresses for a given architecture, validates
event→counter assignments against hardware constraints (fixed events
only on their fixed counter, uncore events only on uncore counters),
and programs/reads the registers through msr device files.

Uncore counters are socket-scope, so a measurement spanning several
cores of one socket must elect exactly one *socket lock owner* per
socket; only that CPU programs and reads the uncore PMU and the counts
are attributed to it (paper §II.A: "socket locks ... enforce that all
uncore event counts are assigned to one thread per socket").
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass

from repro.analysis.checks import assignment_diagnostic, encoding_diagnostics
from repro.errors import CounterError
from repro.hw import registers as regs
from repro.hw.events import EventDef, EventTable
from repro.hw.spec import ArchSpec, per_spec
from repro.core.perfctr.events import EventOptions, EventSpec
from repro.oskern.msr_driver import MsrDriver


@dataclass(frozen=True)
class CounterInfo:
    """One physical counter visible to the tool."""

    name: str
    cls: str          # PMC | FIXC | UPMC | UFIXC
    index: int
    config_addr: int | None   # PERFEVTSEL address (None for fixed)
    counter_addr: int

    @property
    def is_uncore(self) -> bool:
        return self.cls in ("UPMC", "UFIXC")


class CounterMap:
    """All counters of one architecture, by name (immutable once
    built; obtain the shared instance with :func:`counter_map_for`)."""

    def __init__(self, spec: ArchSpec):
        self.spec = spec
        self._counters: dict[str, CounterInfo] = {}
        pmu = spec.pmu
        for i in range(pmu.num_pmcs):
            self._add(CounterInfo(f"PMC{i}", "PMC", i,
                                  pmu.evtsel_address(i), pmu.pmc_address(i)))
        if pmu.has_fixed:
            for i in range(3):
                self._add(CounterInfo(f"FIXC{i}", "FIXC", i, None,
                                      regs.IA32_FIXED_CTR0 + i))
        for i in range(pmu.num_uncore_pmcs):
            self._add(CounterInfo(f"UPMC{i}", "UPMC", i,
                                  regs.MSR_UNCORE_PERFEVTSEL0 + i,
                                  regs.MSR_UNCORE_PMC0 + i))
        if pmu.has_uncore_fixed:
            self._add(CounterInfo("UFIXC0", "UFIXC", 0, None,
                                  regs.MSR_UNCORE_FIXED_CTR0))

    def _add(self, info: CounterInfo) -> None:
        self._counters[info.name] = info

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def lookup(self, name: str) -> CounterInfo:
        try:
            return self._counters[name]
        except KeyError:
            raise CounterError(
                f"no counter {name!r} on {self.spec.name}") from None

    def names(self, cls: str | None = None) -> list[str]:
        return sorted((n for n, c in self._counters.items()
                       if cls is None or c.cls == cls),
                      key=lambda n: self._counters[n].index)


@per_spec
def counter_map_for(spec: ArchSpec) -> CounterMap:
    """The architecture's counter map, built once per ArchSpec and
    shared by every perfctr, session and tool that needs it."""
    return CounterMap(spec)


@dataclass(frozen=True)
class Assignment:
    """A validated event→counter binding."""

    event: EventDef
    counter: CounterInfo
    options: EventOptions = EventOptions()


def validate_assignments(table: EventTable, counters: CounterMap,
                         specs: list[EventSpec]) -> list[Assignment]:
    """Resolve and validate a parsed event string for an architecture.

    The rules live in :mod:`repro.analysis.checks`, shared with the
    static linter; a violation raises the diagnostic's rendered form
    so runtime errors carry the same stable LKxxx codes lint reports.
    """
    out: list[Assignment] = []
    for spec in specs:
        event = table.lookup(spec.event)
        counter = counters.lookup(spec.counter)
        bad = assignment_diagnostic(event, counter, spec.options)
        if bad is not None:
            raise CounterError(str(bad))
        out.append(Assignment(event, counter, spec.options))
    return out


def auto_fixed_assignments(table: EventTable,
                           counters: CounterMap) -> list[Assignment]:
    """The always-counted fixed events on Intel (paper: INSTR_RETIRED_ANY
    and CPU_CLK_UNHALTED_CORE "are always counted ... so that the
    derived CPI metric is easily obtained")."""
    out: list[Assignment] = []
    if not self_has_fixed(counters):
        return out
    for name in ("INSTR_RETIRED_ANY", "CPU_CLK_UNHALTED_CORE",
                 "CPU_CLK_UNHALTED_REF"):
        if name in table:
            event = table.lookup(name)
            if event.is_fixed:
                out.append(Assignment(
                    event, counters.lookup(f"FIXC{event.fixed_index}")))
    return out


def self_has_fixed(counters: CounterMap) -> bool:
    return bool(counters.names("FIXC"))


def counter_delta(current: float, previous: float, width: int) -> float:
    """Difference of two counter readings, corrected for wrap-around.

    Hardware counters are *width* bits wide (48 on every arch here);
    when a counter wraps between two readouts the raw difference goes
    negative by exactly one period, so adding ``2**width`` back
    recovers the true delta — as long as at most one wrap happened in
    the interval, which a sane sampling period guarantees.  NaN inputs
    (degraded uncore reads) pass through unchanged."""
    delta = current - previous
    if delta < 0:
        delta += float(1 << width)
    return delta


# ---------------------------------------------------------------------------
# programming through the msr driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff, optionally with seeded jitter —
    the msr programmer's (:data:`MSR_RETRIES`) and the server clients'
    (:data:`repro.server.retry.CLIENT_RETRIES`).  ``max_attempts``
    counts the first try.  The sleep before retry *n* (0-based) is
    ``min(backoff_cap, backoff_base * 2**n)``, times
    ``(1 + jitter * U[0,1))`` drawn from *rng* when one is passed."""

    max_attempts: int = 8
    backoff_base: float = 0.0001   # seconds before the first retry
    backoff_cap: float = 0.002     # per-retry sleep ceiling
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0.0 or self.backoff_cap < 0.0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, retry: int, rng: random.Random | None = None) -> float:
        """Seconds to sleep before retry number *retry* (0-based)."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** retry))
        if rng is None:
            return base
        return base * (1.0 + self.jitter * rng.random())


#: The msr programmer's default: the worst-case stall per operation
#: stays under ~3 ms while surviving the fault rates a loaded system
#: realistically shows.  Non-transient faults are never retried.
MSR_RETRIES = RetryPolicy(max_attempts=8, backoff_base=0.0001,
                          backoff_cap=0.002)


class CounterProgrammer:
    """Programs, starts, stops and reads one CPU's share of a setup.

    Every msr operation goes through a bounded-retry wrapper so
    transient driver faults are invisible to results (the counts are
    identical to a fault-free run) while remaining observable in
    ``retries`` and ``DriverStats.faults``.

    Retry accounting is *derived* from the driver's metrics registry
    rather than tallied separately: the driver counts every injected
    transient fault (``msr.faults.transient``) and this wrapper counts
    every absorbed one (``msr.io.retries``) in the same registry, so
    ``MeasurementResult.io_retries`` and the driver's fault counts are
    reconciled by construction (regression-tested under a seeded 10%
    EAGAIN plan)."""

    def __init__(self, driver: MsrDriver, counters: CounterMap,
                 policy: RetryPolicy | None = None):
        self.driver = driver
        self.counters = counters
        self.spec = counters.spec
        self.policy = policy or MSR_RETRIES
        self._metrics = driver.metrics
        self._retries_base = self._metrics.value("msr.io.retries")
        self.backoff_seconds = 0.0  # total time spent backing off

    @property
    def retries(self) -> int:
        """Transient faults absorbed by this programmer (registry-backed:
        the same counter the driver's fault accounting reconciles with)."""
        return self._metrics.value("msr.io.retries") - self._retries_base

    # -- retrying I/O helpers ------------------------------------------------

    def _read(self, msr, address: int) -> int:
        if self.driver.fault_plan is None:
            return msr.read_msr(address)
        return self._io(lambda: msr.read_msr(address))

    def _write(self, msr, address: int, value: int) -> None:
        # Every state-mutating write goes through the journaling
        # driver API (crash safety: docs/robustness.md; statically
        # enforced by the LK501 lint).  With journaling off this is a
        # plain device write.
        if self.driver.fault_plan is None:
            msr.journaled_write(address, value)
            return
        self._io(lambda: msr.journaled_write(address, value))

    def _io(self, op):
        from repro.errors import MsrIOError
        retry = 0
        while True:
            try:
                return op()
            except MsrIOError as exc:
                if not exc.transient:
                    raise
                retry += 1
                if retry >= self.policy.max_attempts:
                    self._metrics.incr("msr.io.giveups")
                    raise MsrIOError(
                        exc.errno_name,
                        f"giving up after {retry} transient faults: {exc}",
                        cpu=exc.cpu, address=exc.address,
                        exhausted=True) from exc
                self._metrics.incr("msr.io.retries")
                delay = self.policy.delay(retry - 1)
                if delay > 0.0:
                    self.backoff_seconds += delay
                    self._metrics.observe("msr.io.backoff_ns", delay * 1e9)
                    _time.sleep(delay)

    def _check_encoding(self, a: Assignment) -> None:
        """Refuse to write an encoding the linter would reject (same
        LK3xx rules, from :mod:`repro.analysis.checks`)."""
        diags = encoding_diagnostics(a.event, self.spec.pmu,
                                     cmask=a.options.cmask,
                                     arch=self.spec.name)
        if diags:
            raise CounterError(str(diags[0]))

    # -- core counters -------------------------------------------------------

    def setup_core(self, cpu: int, assignments: list[Assignment]) -> None:
        """Write event selections and zero the involved counters."""
        pmu = self.spec.pmu
        msr = self.driver.open(cpu)
        try:
            if pmu.has_global_ctrl:
                self._write(msr, pmu.global_ctrl_address(), 0)
            fixed_ctrl = 0
            for a in assignments:
                if a.counter.is_uncore:
                    continue
                self._check_encoding(a)
                if a.counter.cls == "FIXC":
                    fixed_ctrl |= regs.fixed_ctr_ctrl_encode(a.counter.index)
                else:
                    # A global-control register (Intel, POWER9's MMCR0
                    # analog) gates counting, so EN can be staged here;
                    # AMD has no global control and must keep EN clear
                    # until start.
                    self._write(msr, a.counter.config_addr, regs.evtsel_encode(
                        a.event.event_code, a.event.umask,
                        enable=pmu.has_global_ctrl,
                        **a.options.evtsel_kwargs()))
                self._write(msr, a.counter.counter_addr, 0)
            if fixed_ctrl:
                self._write(msr, regs.IA32_FIXED_CTR_CTRL, fixed_ctrl)
        finally:
            msr.close()

    def start_core(self, cpu: int, assignments: list[Assignment]) -> None:
        """Enable counting (global-control where present; EN bits on AMD)."""
        pmu = self.spec.pmu
        msr = self.driver.open(cpu)
        try:
            if not pmu.has_global_ctrl:
                for a in assignments:
                    if not a.counter.is_uncore and a.counter.cls == "PMC":
                        self._write(msr, a.counter.config_addr,
                                    regs.evtsel_encode(
                                        a.event.event_code, a.event.umask,
                                        enable=True,
                                        **a.options.evtsel_kwargs()))
                return
            ctrl = 0
            for a in assignments:
                if a.counter.is_uncore:
                    continue
                if a.counter.cls == "FIXC":
                    ctrl |= regs.global_ctrl_fixed_bit(a.counter.index)
                else:
                    ctrl |= regs.global_ctrl_pmc_bit(a.counter.index)
            self._write(msr, pmu.global_ctrl_address(), ctrl)
        finally:
            msr.close()

    def stop_core(self, cpu: int, assignments: list[Assignment]) -> None:
        pmu = self.spec.pmu
        msr = self.driver.open(cpu)
        try:
            if not pmu.has_global_ctrl:
                for a in assignments:
                    if not a.counter.is_uncore and a.counter.cls == "PMC":
                        self._write(msr, a.counter.config_addr,
                                    regs.evtsel_encode(
                                        a.event.event_code, a.event.umask,
                                        enable=False,
                                        **a.options.evtsel_kwargs()))
            else:
                self._write(msr, pmu.global_ctrl_address(), 0)
        finally:
            msr.close()

    def read_core(self, cpu: int,
                  assignments: list[Assignment]) -> dict[str, int]:
        """Read the core-scope counters; keys are counter names."""
        msr = self.driver.open(cpu, write=False)
        try:
            return {a.counter.name: self._read(msr, a.counter.counter_addr)
                    for a in assignments if not a.counter.is_uncore}
        finally:
            msr.close()

    # -- uncore counters (socket-lock owner only) -------------------------------

    def setup_uncore(self, cpu: int, assignments: list[Assignment]) -> None:
        msr = self.driver.open(cpu)
        try:
            self._write(msr, regs.MSR_UNCORE_PERF_GLOBAL_CTRL, 0)
            fixed = False
            for a in assignments:
                if not a.counter.is_uncore:
                    continue
                self._check_encoding(a)
                if a.counter.cls == "UFIXC":
                    fixed = True
                else:
                    self._write(msr, a.counter.config_addr,
                                regs.evtsel_encode(
                                    a.event.event_code, a.event.umask,
                                    enable=True,
                                    **a.options.evtsel_kwargs()))
                self._write(msr, a.counter.counter_addr, 0)
            if fixed:
                self._write(msr, regs.MSR_UNCORE_FIXED_CTR_CTRL, 1)
        finally:
            msr.close()

    def start_uncore(self, cpu: int, assignments: list[Assignment]) -> None:
        msr = self.driver.open(cpu)
        try:
            ctrl = 0
            for a in assignments:
                if not a.counter.is_uncore:
                    continue
                if a.counter.cls == "UFIXC":
                    ctrl |= 1 << 32
                else:
                    ctrl |= regs.global_ctrl_pmc_bit(a.counter.index)
            self._write(msr, regs.MSR_UNCORE_PERF_GLOBAL_CTRL, ctrl)
        finally:
            msr.close()

    def stop_uncore(self, cpu: int) -> None:
        msr = self.driver.open(cpu)
        try:
            self._write(msr, regs.MSR_UNCORE_PERF_GLOBAL_CTRL, 0)
        finally:
            msr.close()

    def read_uncore(self, cpu: int,
                    assignments: list[Assignment]) -> dict[str, int]:
        msr = self.driver.open(cpu, write=False)
        try:
            return {a.counter.name: self._read(msr, a.counter.counter_addr)
                    for a in assignments if a.counter.is_uncore}
        finally:
            msr.close()
