"""A PAPI-like library over the same hardware substrate.

The comparison baseline for the paper's Table I.  It reproduces the
*classic PAPI programming model* — a C-flavoured library API around
EventSets, configured in code, attached to the calling thread::

    papi = PapiLibrary(machine, cpu=3)
    papi.PAPI_library_init(PAPI_VER_CURRENT)
    es = papi.PAPI_create_eventset()
    papi.PAPI_add_event(es, PAPI_TOT_INS)
    papi.PAPI_start(es)
    ...                       # application work
    values = papi.PAPI_stop(es)

Design-point contrasts with LIKWID, encoded here and probed by the
Table I benchmark:

* library first, no standalone command-line workflow;
* events configured in code, not on a command line;
* one EventSet measures the calling thread's CPU — no multicore
  measurement, no uncore/socket-lock support, no pinning facility;
* errors are returned as negative codes (raised here as
  :class:`~repro.errors.PapiError` carrying the code).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.perfctr.counters import (Assignment, CounterProgrammer,
                                         counter_map_for)
from repro.errors import PapiError
from repro.hw.events import CounterScope
from repro.hw.machine import SimMachine
from repro.oskern.msr_driver import MsrDriver
from repro.papi.presets import NATIVE_MAPPINGS, PRESETS

PAPI_VER_CURRENT = (4 << 24)  # "PAPI 4.0.0"
PAPI_OK = 0
PAPI_EINVAL = -1
PAPI_ENOMEM = -2
PAPI_ENOEVNT = -7
PAPI_ECNFLCT = -8
PAPI_ENOTRUN = -9
PAPI_EISRUN = -10
PAPI_ENOEVST = -11


class _State(Enum):
    STOPPED = "stopped"
    RUNNING = "running"


@dataclass
class _EventSet:
    handle: int
    cpu: int
    events: list[int] = field(default_factory=list)   # preset codes
    assignments: list[Assignment] = field(default_factory=list)
    state: _State = _State.STOPPED
    accumulated: list[int] = field(default_factory=list)


class PapiLibrary:
    """One process's PAPI state, attached to a fixed CPU."""

    def __init__(self, machine: SimMachine, cpu: int = 0,
                 driver: MsrDriver | None = None):
        self.machine = machine
        self.cpu = cpu
        self.driver = driver or MsrDriver(machine)
        self.counters = counter_map_for(machine.spec)
        self.programmer = CounterProgrammer(self.driver, self.counters)
        self._initialised = False
        self._eventsets: dict[int, _EventSet] = {}
        self._next_handle = 1
        try:
            self._native = NATIVE_MAPPINGS[machine.spec.name]
        except KeyError:
            raise PapiError(PAPI_EINVAL,
                            f"unsupported substrate {machine.spec.name}") from None

    # -- init -------------------------------------------------------------------

    def PAPI_library_init(self, version: int) -> int:
        if version != PAPI_VER_CURRENT:
            raise PapiError(PAPI_EINVAL, "library/header version mismatch")
        self._initialised = True
        return PAPI_VER_CURRENT

    def PAPI_num_counters(self) -> int:
        return self.machine.spec.pmu.num_pmcs

    def PAPI_query_event(self, code: int) -> int:
        self._check_init()
        if code not in PRESETS:
            raise PapiError(PAPI_ENOEVNT, f"unknown preset 0x{code:X}")
        if code not in self._native:
            raise PapiError(PAPI_ENOEVNT,
                            f"{PRESETS[code].symbol} has no native mapping "
                            f"on {self.machine.spec.name}")
        return PAPI_OK

    # -- eventset lifecycle ----------------------------------------------------------

    def PAPI_create_eventset(self) -> int:
        self._check_init()
        handle = self._next_handle
        self._next_handle += 1
        self._eventsets[handle] = _EventSet(handle=handle, cpu=self.cpu)
        return handle

    def PAPI_add_event(self, eventset: int, code: int) -> int:
        es = self._get(eventset)
        self._check_stopped(es)
        self.PAPI_query_event(code)
        native = self.machine.spec.events.lookup(self._native[code])
        if native.scope is CounterScope.UNCORE:
            # Classic PAPI has "no explicit support for measuring
            # shared resources" (Table I).
            raise PapiError(PAPI_ECNFLCT,
                            f"{PRESETS[code].symbol} maps to an uncore "
                            "event; not supported")
        assignment = self._allocate(es, native)
        es.events.append(code)
        es.assignments.append(assignment)
        es.accumulated.append(0)
        return PAPI_OK

    def _allocate(self, es: _EventSet, native) -> Assignment:
        """First-fit allocation: fixed events to their fixed counter,
        everything else to a free PMC."""
        used = {a.counter.name for a in es.assignments}
        if native.is_fixed:
            name = f"FIXC{native.fixed_index}"
            if name in self.counters and name not in used:
                return Assignment(native, self.counters.lookup(name))
            raise PapiError(PAPI_ECNFLCT,
                            f"fixed counter for {native.name} unavailable")
        for name in self.counters.names("PMC"):
            if name in used:
                continue
            counter = self.counters.lookup(name)
            if native.allowed_on(counter.index):
                return Assignment(native, counter)
        raise PapiError(PAPI_ECNFLCT, "eventset exceeds counter resources")

    def PAPI_start(self, eventset: int) -> int:
        es = self._get(eventset)
        if es.state is _State.RUNNING:
            raise PapiError(PAPI_EISRUN, "eventset already running")
        if not es.assignments:
            raise PapiError(PAPI_EINVAL, "empty eventset")
        self.programmer.setup_core(es.cpu, es.assignments)
        self.programmer.start_core(es.cpu, es.assignments)
        es.state = _State.RUNNING
        return PAPI_OK

    def _read_values(self, es: _EventSet) -> list[int]:
        raw = self.programmer.read_core(es.cpu, es.assignments)
        return [int(raw[a.counter.name]) for a in es.assignments]

    def PAPI_read(self, eventset: int) -> list[int]:
        es = self._get(eventset)
        if es.state is not _State.RUNNING:
            raise PapiError(PAPI_ENOTRUN, "eventset not running")
        return [acc + v for acc, v in
                zip(es.accumulated, self._read_values(es))]

    def PAPI_accum(self, eventset: int) -> list[int]:
        """Fold current counts into the accumulator and reset counters."""
        es = self._get(eventset)
        if es.state is not _State.RUNNING:
            raise PapiError(PAPI_ENOTRUN, "eventset not running")
        values = self._read_values(es)
        es.accumulated = [a + v for a, v in zip(es.accumulated, values)]
        self.programmer.setup_core(es.cpu, es.assignments)  # zero + rearm
        self.programmer.start_core(es.cpu, es.assignments)
        return list(es.accumulated)

    def PAPI_stop(self, eventset: int) -> list[int]:
        es = self._get(eventset)
        if es.state is not _State.RUNNING:
            raise PapiError(PAPI_ENOTRUN, "eventset not running")
        self.programmer.stop_core(es.cpu, es.assignments)
        values = [acc + v for acc, v in
                  zip(es.accumulated, self._read_values(es))]
        es.state = _State.STOPPED
        es.accumulated = [0] * len(es.assignments)
        return values

    def PAPI_reset(self, eventset: int) -> int:
        es = self._get(eventset)
        es.accumulated = [0] * len(es.assignments)
        if es.state is _State.RUNNING:
            self.programmer.setup_core(es.cpu, es.assignments)
            self.programmer.start_core(es.cpu, es.assignments)
        return PAPI_OK

    def PAPI_cleanup_eventset(self, eventset: int) -> int:
        es = self._get(eventset)
        self._check_stopped(es)
        es.events.clear()
        es.assignments.clear()
        es.accumulated.clear()
        return PAPI_OK

    def PAPI_destroy_eventset(self, eventset: int) -> int:
        es = self._get(eventset)
        self._check_stopped(es)
        if es.events:
            raise PapiError(PAPI_EINVAL,
                            "eventset must be cleaned up before destroy")
        del self._eventsets[eventset]
        return PAPI_OK

    # -- helpers -----------------------------------------------------------------------

    def _check_init(self) -> None:
        if not self._initialised:
            raise PapiError(PAPI_EINVAL, "PAPI_library_init not called")

    def _get(self, eventset: int) -> _EventSet:
        self._check_init()
        try:
            return self._eventsets[eventset]
        except KeyError:
            raise PapiError(PAPI_ENOEVST,
                            f"no such eventset {eventset}") from None

    @staticmethod
    def _check_stopped(es: _EventSet) -> None:
        if es.state is _State.RUNNING:
            raise PapiError(PAPI_EISRUN, "eventset is running")
