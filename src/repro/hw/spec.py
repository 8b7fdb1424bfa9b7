"""Architecture specification dataclasses.

An :class:`ArchSpec` is the single source of truth describing one of
the paper's machines (Westmere EP, Nehalem EP, Core 2, AMD Istanbul,
...).  Everything else derives from it: the CPUID tables encode it,
likwid-topology decodes it back, the scheduler uses its thread layout,
and the performance model uses its :class:`MachinePerf` parameters.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

from repro.hw.apic import ApicLayout, layout_for
from repro.hw.events import EventTable
from repro.hw.pmu import PmuSpec


@dataclass(frozen=True)
class CacheSpec:
    """One cache level as reported by CPUID leaf 0x4 / AMD ext leaves."""

    level: int
    type: str                # "Data cache", "Instruction cache", "Unified cache"
    size: int                # bytes
    associativity: int
    line_size: int = 64
    inclusive: bool = True
    threads_sharing: int = 1  # hardware threads sharing one instance

    @property
    def sets(self) -> int:
        return self.size // (self.associativity * self.line_size)

    @property
    def is_data(self) -> bool:
        return self.type in ("Data cache", "Unified cache")


@dataclass(frozen=True)
class MachinePerf:
    """Calibration parameters for the analytic performance model.

    These stand in for the physical memory subsystem of the paper's
    testbeds.  Values are chosen so the *shape* of the paper's results
    reproduces (saturation points, socket scaling, SMT behaviour);
    see DESIGN.md section 6.
    """

    # Sustained main-memory bandwidth of one socket with enough threads
    # (bytes/s) and the concurrency needed to reach it.
    socket_mem_bw: float = 20.0e9
    # Bandwidth a single in-flight thread can extract from the memory
    # controller (latency-limited; < socket_mem_bw).
    thread_mem_bw: float = 9.0e9
    # Shared last-level-cache bandwidth per socket (bytes/s).
    socket_l3_bw: float = 80.0e9
    # Per-core L3 bandwidth limit (one core cannot saturate the ring).
    thread_l3_bw: float = 24.0e9
    # ccNUMA: fraction of full bandwidth when accessing the remote socket.
    remote_mem_penalty: float = 0.55
    # Socket interconnect (QPI/HyperTransport): aggregate bandwidth cap
    # for all remote streams targeting one socket's memory (bytes/s).
    interconnect_bw: float = 11.0e9
    # SMT: issue-slot efficiency of 2 threads sharing one core relative
    # to one thread (1.0 = perfect doubling of issue resources).
    smt_issue_scale: float = 1.15
    # Per-core load/store path widths for cache-resident working sets,
    # used by the bandwidth-map microbenchmark (bytes per cycle).
    l1_bytes_per_cycle: float = 16.0
    l2_bytes_per_cycle: float = 8.0


@dataclass(frozen=True)
class ArchSpec:
    """Complete description of one simulated machine."""

    name: str                 # short key, e.g. "westmere_ep"
    cpu_name: str             # display string, e.g. "Intel Westmere EP processor"
    vendor: str               # "GenuineIntel" | "AuthenticAMD"
    family: int
    model: int
    stepping: int
    clock_hz: float
    sockets: int
    cores_per_socket: int
    threads_per_core: int
    # Physical core ids inside the package (APIC core field); may be
    # non-contiguous, e.g. (0, 1, 2, 8, 9, 10) on Westmere EP hexacore.
    core_ids: tuple[int, ...]
    caches: tuple[CacheSpec, ...]
    pmu: PmuSpec
    events: EventTable
    cpuid_style: str          # "leaf11" | "leaf4" | "legacy" | "amd"
    perf: MachinePerf = field(default_factory=MachinePerf)
    numa_domains_per_socket: int = 1
    memory_per_socket: int = 12 * 1024**3  # bytes of DRAM per socket
    feature_flags: tuple[str, ...] = ()
    has_misc_enable: bool = False  # likwid-features support (Core 2 only)
    leaf2_descriptors: tuple[int, ...] = ()  # legacy cache descriptors
    dtlb_entries: int = 64         # second-level data-TLB entries
    page_size: int = 4096

    def __post_init__(self) -> None:
        if len(self.core_ids) != self.cores_per_socket:
            raise ValueError(
                f"{self.name}: core_ids has {len(self.core_ids)} entries "
                f"for {self.cores_per_socket} cores")

    # -- derived topology ---------------------------------------------------

    @property
    def threads_per_socket(self) -> int:
        return self.cores_per_socket * self.threads_per_core

    @property
    def num_hwthreads(self) -> int:
        return self.sockets * self.threads_per_socket

    @property
    def num_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def apic_layout(self) -> ApicLayout:
        return layout_for(self.threads_per_core - 1, max(self.core_ids))

    def hwthread_location(self, hwthread: int) -> tuple[int, int, int]:
        """Map an OS hardware-thread id to (socket, core_index, smt).

        The OS numbering follows the Linux convention seen in the
        paper's Westmere listing: all SMT-0 siblings first (socket 0's
        cores, then socket 1's, ...), then all SMT-1 siblings.
        """
        if not 0 <= hwthread < self.num_hwthreads:
            raise ValueError(f"hwthread {hwthread} out of range")
        smt, rest = divmod(hwthread, self.num_cores)
        socket, core_index = divmod(rest, self.cores_per_socket)
        return socket, core_index, smt

    def apic_id(self, hwthread: int) -> int:
        """APIC ID of an OS hardware thread."""
        socket, core_index, smt = self.hwthread_location(hwthread)
        return self.apic_layout.compose(socket, self.core_ids[core_index], smt)

    def hwthreads_of_core(self, socket: int, core_index: int) -> list[int]:
        """OS ids of all SMT siblings on one physical core."""
        return [smt * self.num_cores + socket * self.cores_per_socket + core_index
                for smt in range(self.threads_per_core)]

    def hwthreads_of_socket(self, socket: int) -> list[int]:
        """OS ids of all hardware threads on one socket."""
        out: list[int] = []
        for core_index in range(self.cores_per_socket):
            out.extend(self.hwthreads_of_core(socket, core_index))
        return out

    def socket_of(self, hwthread: int) -> int:
        return self.hwthread_location(hwthread)[0]

    def physical_core_of(self, hwthread: int) -> tuple[int, int]:
        """(socket, core_index) — identifies the physical core."""
        socket, core_index, _smt = self.hwthread_location(hwthread)
        return socket, core_index

    def scatter_order(self) -> list[int]:
        """Hardware threads ordered for "scatter" placement: round-robin
        across sockets, filling physical cores before SMT siblings —
        the distribution the paper uses for the pinned STREAM runs
        (Fig. 5) and the one KMP_AFFINITY=scatter produces."""
        order: list[int] = []
        for smt in range(self.threads_per_core):
            for core_index in range(self.cores_per_socket):
                for socket in range(self.sockets):
                    order.append(smt * self.num_cores
                                 + socket * self.cores_per_socket + core_index)
        return order

    def compact_order(self) -> list[int]:
        """Hardware threads ordered for "compact" placement: fill all
        SMT threads of a core, then the next core, then the next
        socket (KMP_AFFINITY=compact)."""
        order: list[int] = []
        for socket in range(self.sockets):
            for core_index in range(self.cores_per_socket):
                order.extend(self.hwthreads_of_core(socket, core_index))
        return order

    # -- ccNUMA -----------------------------------------------------------

    @property
    def num_numa_domains(self) -> int:
        return self.sockets * self.numa_domains_per_socket

    def numa_domain_of(self, hwthread: int) -> int:
        """NUMA domain id of a hardware thread: domains tile each
        socket over consecutive core indices."""
        socket, core_index, _smt = self.hwthread_location(hwthread)
        cores_per_domain = max(1, self.cores_per_socket
                               // self.numa_domains_per_socket)
        return (socket * self.numa_domains_per_socket
                + min(core_index // cores_per_domain,
                      self.numa_domains_per_socket - 1))

    def hwthreads_of_numa_domain(self, domain: int) -> list[int]:
        """Hardware threads of one NUMA domain, in core order with SMT
        siblings adjacent (the likwid-topology NUMA listing order)."""
        out: list[int] = []
        socket = domain // self.numa_domains_per_socket
        for core_index in range(self.cores_per_socket):
            for hw in self.hwthreads_of_core(socket, core_index):
                if self.numa_domain_of(hw) == domain:
                    out.append(hw)
        return out

    @property
    def memory_per_numa_domain(self) -> int:
        return self.memory_per_socket // self.numa_domains_per_socket

    def numa_distance(self, a: int, b: int) -> int:
        """ACPI SLIT-style distance: 10 local, 21 across sockets, 16
        between domains of one socket."""
        if a == b:
            return 10
        sock_a = a // self.numa_domains_per_socket
        sock_b = b // self.numa_domains_per_socket
        return 16 if sock_a == sock_b else 21

    def data_caches(self) -> tuple[CacheSpec, ...]:
        """Data and unified caches, ordered by level (likwid-topology
        omits instruction caches, as the paper notes)."""
        return tuple(sorted((c for c in self.caches if c.is_data),
                            key=lambda c: c.level))

    def last_level_cache(self) -> CacheSpec:
        return self.data_caches()[-1]


_T = TypeVar("_T")


def per_spec(build: Callable[[ArchSpec], _T]) -> Callable[[ArchSpec], _T]:
    """Memoize ``build(spec)`` once per :class:`ArchSpec`.

    An ArchSpec cannot be hashed (its :class:`EventTable` is a dict
    wrapper), but the registry holds exactly one spec per arch, so the
    memo is keyed by ``spec.name`` and a hit must be the *same* spec
    object; a different spec of the same name (a test's modified copy)
    rebuilds and replaces the entry.  Use it only for values derived
    purely from the spec and never mutated by callers."""
    memo: dict[str, tuple[ArchSpec, _T]] = {}

    @functools.wraps(build)
    def cached(spec: ArchSpec) -> _T:
        hit = memo.get(spec.name)
        if hit is not None and hit[0] is spec:
            return hit[1]
        value = build(spec)
        memo[spec.name] = (spec, value)
        return value
    return cached
