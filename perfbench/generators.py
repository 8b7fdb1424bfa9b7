"""Seeded input generators, one per workload.

Every generator is a pure function of its seed (and round index): the
same seed gives the same inputs, and the program under test sees only
what these functions return.  The server request mix mirrors the shape
of ``repro.server.loadtest.generate_requests`` (skewed tenants, 1-2
cpus on one socket, an occasional cross-socket lease, a long tail that
outlives the lease) but is owned here, so editing the load-test
harness cannot change the benchmark's load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.server.scheduler import SessionRequest

SERVER_ARCH = "westmere_ep"
SERVER_GROUPS = ("FLOPS_DP", "MEM", "BRANCH")


@dataclass(frozen=True)
class ServerMix:
    """The shape of one server workload's traffic."""

    nodes: int            # fleet size: few, so the two clients collide
    batch: int            # sessions per round
    windows: int          # windows of a normal session
    window: float         # virtual seconds per window
    lease_limit: float    # scheduler preemption threshold
    long_fraction: float  # sessions that outlive the lease
    long_windows: int     # windows of a long session
    tenants: int = 4


SERVER_MIXES = {
    # Per-session setup dominates: 2 windows, ~5% preempted.
    "server-short": ServerMix(nodes=3, batch=192, windows=2, window=0.05,
                              lease_limit=1.0, long_fraction=0.05,
                              long_windows=64),
    # Per-window work dominates: 90 short windows, never preempted
    # (two interleaved sessions hold a lease for at most 1.8 s).
    "server-windows": ServerMix(nodes=3, batch=48, windows=90,
                                window=0.01, lease_limit=5.0,
                                long_fraction=0.0, long_windows=0),
}

#: Hardware threads per socket and sockets of SERVER_ARCH (Westmere EP:
#: 2 sockets x 6 cores x 2 SMT threads).
_SOCKETS, _PER_SOCKET = 2, 12


def _spread(rng: random.Random, items: list, n: int) -> list:
    """``n`` items in the proportions of ``items``, in seeded order."""
    out = [items[i % len(items)] for i in range(n)]
    rng.shuffle(out)
    return out


def server_requests(mix: ServerMix, seed: int,
                    round_index: int) -> list[SessionRequest]:
    """One round's session requests.

    The seed decides the order and every per-request draw, but each
    property's proportions are fixed per round (exactly ``round(batch
    * long_fraction)`` long sessions, the groups, nodes, cpu counts
    and tenant shares evenly spread), so runs with different seeds
    measure the same amount of work."""
    rng = random.Random(f"server:{seed}:{round_index}")
    n = mix.batch
    tenants = [f"tenant{t}" for t in range(mix.tenants)
               for _ in range(mix.tenants - t)]        # skewed shares
    long = set(rng.sample(range(n), round(n * mix.long_fraction)))
    cross = set(rng.sample(range(n), round(n * 0.1)))
    columns = zip(_spread(rng, [f"node{i:03d}" for i in range(mix.nodes)],
                          n),
                  _spread(rng, list(SERVER_GROUPS), n),
                  _spread(rng, tenants, n),
                  _spread(rng, [1, 1, 2], n))
    requests = []
    for i, (node, group, tenant, ncpus) in enumerate(columns):
        socket = rng.randrange(_SOCKETS)
        base = socket * _PER_SOCKET
        cpus = rng.sample(range(base, base + _PER_SOCKET), ncpus)
        if i in cross:
            cpus.append(((socket + 1) % _SOCKETS) * _PER_SOCKET)
        requests.append(SessionRequest(
            node=node, cpus=tuple(sorted(set(cpus))), group=group,
            tenant=tenant,
            windows=mix.long_windows if i in long else mix.windows,
            window=mix.window, seed=rng.randrange(1 << 30)))
    return requests


def is_long(mix: ServerMix, request: SessionRequest) -> bool:
    """Whether a request outlives its lease (and must be preempted)."""
    return request.windows * request.window > mix.lease_limit


@dataclass(frozen=True)
class StreamCall:
    """One ``stream_samples`` call: a single STREAM triad run."""

    nthreads: int
    pinned: bool
    seed: int


#: The Fig. 4/5 sweep: thread counts, and samples per count.
STREAM_ARCH = "westmere_ep"
STREAM_THREADS = (1, 2, 4, 8, 12, 24)
STREAM_PINNED_SAMPLES = 3
STREAM_UNPINNED_SAMPLES = 12


def stream_calls(seed: int, round_index: int) -> list[StreamCall]:
    """One round of the pinning study: pinned and unpinned samples at
    every thread count, in a seeded order, each with its own
    scheduler seed."""
    rng = random.Random(f"stream:{seed}:{round_index}")
    calls = [StreamCall(n, pinned, rng.randrange(1 << 30))
             for n in STREAM_THREADS
             for pinned, count in ((True, STREAM_PINNED_SAMPLES),
                                   (False, STREAM_UNPINNED_SAMPLES))
             for _ in range(count)]
    rng.shuffle(calls)
    return calls


#: Every command line the cli-cold workload may run, by front-end
#: (module under ``repro.cli``).  The expected output values of each
#: are pinned in ``cli_expected.json``.
CLI_CATALOGUE: dict[str, tuple[tuple[str, ...], ...]] = {
    "topology_cmd": ((), ("--arch", "nehalem_ep"), ("--arch", "core2")),
    "perfctr_cmd": (("-c", "0-3", "-g", "FLOPS_DP", "stream_icc"),
                    ("-c", "0-5", "-g", "FLOPS_DP", "stream_icc"),
                    ("--arch", "westmere_ep", "-c", "0-11", "-g",
                     "FLOPS_DP", "stream_icc"),
                    ("-c", "0-3", "-g", "MEM", "jacobi_wavefront"),
                    ("-c", "0-7", "-g", "MEM", "jacobi_wavefront"),
                    ("--arch", "westmere_ep", "-c", "0-5", "-g", "MEM",
                     "jacobi_wavefront")),
    "pin_cmd": (("-c", "0-3", "stream_icc"), ("-c", "0-5", "stream_icc"),
                ("-c", "0,6,1,7", "stream_icc")),
}


def cli_key(module: str, argv: tuple[str, ...]) -> str:
    return " ".join((module,) + tuple(argv))


def cli_invocations(seed: int, round_index: int
                    ) -> list[tuple[str, tuple[str, ...]]]:
    """One round: ``likwid-topology``, ``likwid-perfctr -g FLOPS_DP``,
    ``likwid-perfctr -g MEM`` and ``likwid-pin`` once each, in a
    seeded order.  Each front-end cycles through its variants from a
    seeded offset, so every run covers the catalogue evenly."""
    rng = random.Random(f"cli:{seed}")
    perfctr = CLI_CATALOGUE["perfctr_cmd"]
    kinds = [("topology_cmd", CLI_CATALOGUE["topology_cmd"]),
             ("perfctr_cmd", perfctr[:3]), ("perfctr_cmd", perfctr[3:]),
             ("pin_cmd", CLI_CATALOGUE["pin_cmd"])]
    offsets = [rng.randrange(len(variants)) for _, variants in kinds]
    plan = [(module, variants[(round_index + off) % len(variants)])
            for (module, variants), off in zip(kinds, offsets)]
    random.Random(f"cli:{seed}:{round_index}").shuffle(plan)
    return plan
