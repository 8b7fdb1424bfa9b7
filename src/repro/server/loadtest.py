"""The load-test harness: hundreds of clients against a fleet.

``likwid-server load-test`` boots a full in-process stack — fleet of
:class:`~repro.server.scheduler.NodeScheduler` nodes, asyncio
multiplexer, JSON-lines TCP listener — and drives it with many
concurrent :class:`~repro.server.client.ServerClient` connections
pulling session requests off one shared work list.  The request mix
is generated deterministically from one seed: a skewed tenant
distribution (tenant 0 offers the most load), a fraction of
long-running sessions (these outlive the lease limit and are
preempted), and a fraction with tight deadlines (these time out while
queued behind contended sockets).

The report reconciles **exact accounting** — every submitted session
terminal as completed / timed-out / rejected / preempted, nothing
unaccounted, nothing failed — and ``verify()`` additionally replays
completed sessions standalone and requires bit-identical results
(:mod:`repro.server.workload`).
"""

from __future__ import annotations

import asyncio
import time as _time
from dataclasses import dataclass, field

from repro.agent.fleet import NodeSpec
from repro.core.perfctr.groups import groups_for
from repro.errors import ServerError
from repro.hw.arch import create_machine
from repro.server.chaos import ChaosPlan
from repro.server.client import ServerClient
from repro.server.protocol import ProtocolServer, recover_protocol
from repro.server.retry import RetryPolicy
from repro.server.scheduler import SessionRequest
from repro.server.server import ReproServer
from repro.server.wal import ServerWal
from repro.server.workload import (result_from_dict, results_identical,
                                   run_standalone)

#: Client retry policy sized for the crash-restart gap: the server is
#: unreachable while recovery replays the WAL, and every refused
#: connect burns one attempt, so the budget must outlast the gap.
LOADTEST_RETRIES = RetryPolicy(max_attempts=12, backoff_base=0.001,
                               backoff_cap=0.5, jitter=0.5)

#: Candidate groups, all within single-set counter capacity on every
#: supported architecture (no multiplexing → no schedule-dependent
#: scaling, a precondition for bit-identity under interleaving).
DEFAULT_GROUPS = ("FLOPS_DP", "MEM", "BRANCH")


@dataclass(frozen=True)
class LoadTestConfig:
    """One load-test run's shape (fully determined by ``seed``)."""

    sessions: int = 200            # total submissions
    clients: int = 50              # concurrent client connections
    nodes: int = 4                 # fleet size
    tenants: int = 4               # tenant population (skewed load)
    seed: int = 0
    arch: str = "westmere_ep"
    groups: tuple[str, ...] = DEFAULT_GROUPS
    window: float = 0.05           # virtual seconds per window
    windows: int = 2               # windows of a normal session
    long_windows: int = 64         # windows of a long session
    long_fraction: float = 0.05    # sessions that exceed the lease
    deadline_fraction: float = 0.1  # sessions with a tight deadline
    deadline: float = 0.1          # the tight deadline (virtual s)
    lease_limit: float = 1.0       # scheduler preemption threshold
    max_queue: int = 1024          # admission bound per node
    faults: str | None = None      # FaultPlan syntax, per node
    chaos: str | None = None       # ChaosPlan syntax, armed per client
    kill_after: int | None = None  # SIGKILL+restart the server after
    #                                this many terminal sessions

    def __post_init__(self):
        if self.sessions < 1 or self.clients < 1 or self.nodes < 1 \
                or self.tenants < 1:
            raise ServerError("sessions/clients/nodes/tenants must "
                              "be positive")


def node_specs(config: LoadTestConfig) -> list[NodeSpec]:
    faults = config.faults
    specs = []
    for i in range(config.nodes):
        plan = faults
        if plan and "seed=" not in plan:
            plan = f"seed={config.seed + i},{plan}"
        specs.append(NodeSpec(name=f"node{i:03d}", arch=config.arch,
                              seed=config.seed + i, faults=plan))
    return specs


def generate_requests(config: LoadTestConfig) -> list[SessionRequest]:
    """The deterministic request mix.

    Uses one ``random.Random(seed)`` stream; tenant choice is skewed
    (tenant ``t`` offers weight ``tenants - t``), cpu sets are 1-2
    cpus on one socket (occasionally spanning two sockets, a
    multi-socket lease), and the long/tight-deadline fractions are
    decided per request."""
    import random
    rng = random.Random(config.seed)
    machine = create_machine(config.arch)
    spec = machine.spec
    provided = groups_for(spec)
    groups = tuple(g for g in config.groups if g in provided)
    if not groups:
        raise ServerError(f"{config.arch} provides none of "
                          f"{', '.join(config.groups)}")
    weights = [config.tenants - t for t in range(config.tenants)]
    per_socket = spec.num_hwthreads // spec.sockets
    requests = []
    for i in range(config.sessions):
        node = f"node{i % config.nodes:03d}"
        tenant = f"tenant{rng.choices(range(config.tenants), weights)[0]}"
        socket = rng.randrange(spec.sockets)
        base = socket * per_socket
        cpus = tuple(sorted(rng.sample(
            range(base, base + per_socket), rng.choice((1, 1, 2)))))
        if spec.sockets > 1 and rng.random() < 0.1:
            other = (socket + 1) % spec.sockets
            cpus = tuple(sorted(cpus + (other * per_socket,)))
        windows = config.long_windows \
            if rng.random() < config.long_fraction else config.windows
        deadline = config.deadline \
            if rng.random() < config.deadline_fraction else None
        requests.append(SessionRequest(
            node=node, cpus=cpus, group=rng.choice(groups),
            tenant=tenant, windows=windows, window=config.window,
            deadline=deadline, seed=config.seed + i))
    return requests


@dataclass
class LoadTestReport:
    """Everything ``--verify`` and the CI smoke job assert on."""

    config: LoadTestConfig
    submitted: int = 0
    counts: dict = field(default_factory=dict)
    elapsed: float = 0.0           # real seconds, whole run
    queue_wait: dict = field(default_factory=dict)
    tenant_service: dict = field(default_factory=dict)
    sessions: list = field(default_factory=list)   # terminal docs
    archs: dict = field(default_factory=dict)      # node -> arch
    retries: int = 0               # client retry attempts, all causes
    dedup_hits: int = 0            # idempotent replays served
    server_restarts: int = 0       # mid-run SIGKILL + recovery cycles
    chaos: dict = field(default_factory=dict)      # injected fault counts

    @property
    def throughput(self) -> float:
        return self.submitted / self.elapsed if self.elapsed else 0.0

    @property
    def fairness(self) -> float:
        """max/min tenant share of scheduler service time (1.0 is
        perfectly even; only meaningful under saturation)."""
        served = [v for v in self.tenant_service.values() if v > 0]
        if len(served) < 2:
            return 1.0
        return max(served) / min(served)

    def accounting_errors(self) -> list[str]:
        """Exact accounting: every submission terminal, none failed."""
        out = []
        total = sum(self.counts.get(k, 0) for k in
                    ("completed", "timed_out", "rejected", "preempted",
                     "cancelled", "failed"))
        if total != self.submitted:
            out.append(f"accounting hole: {total} terminal != "
                       f"{self.submitted} submitted")
        if self.counts.get("failed", 0):
            out.append(f"{self.counts['failed']} session(s) failed")
        if self.counts.get("pending", 0):
            out.append(f"{self.counts['pending']} session(s) pending")
        if len(self.sessions) != self.submitted:
            out.append(f"client saw {len(self.sessions)} terminal "
                       f"documents != {self.submitted} submitted")
        admitted = self.counts.get("submitted", self.submitted)
        if admitted != self.submitted:
            out.append(f"server admitted {admitted} sessions != "
                       f"{self.submitted} client submissions "
                       f"(a retry was executed twice?)")
        seen = [(doc.get("node"), doc.get("session"))
                for doc in self.sessions]
        if len(set(seen)) != len(seen):
            dupes = len(seen) - len(set(seen))
            out.append(f"{dupes} duplicate terminal document(s) for "
                       f"the same session")
        return out

    def verify(self, *, sample: int | None = None) -> list[str]:
        """Accounting plus standalone bit-identity replay of completed
        sessions (all of them, or an evenly spaced ``sample``)."""
        errors = self.accounting_errors()
        completed = [doc for doc in self.sessions
                     if doc.get("state") == "completed"]
        if sample is not None and sample < len(completed):
            stride = max(1, len(completed) // sample)
            completed = completed[::stride][:sample]
        for doc in completed:
            req = SessionRequest(
                node=doc["node"], cpus=tuple(doc["cpus"]),
                group=doc["group"], tenant=doc["tenant"],
                windows=doc["windows"], window=doc["window"],
                seed=doc["seed"])
            arch = self.archs.get(doc["node"], self.config.arch)
            alone = run_standalone(req, arch)
            served = result_from_dict(doc["result"])
            if not results_identical(served, alone):
                errors.append(
                    f"{doc['node']}/session {doc['session']}: result "
                    f"differs from standalone replay")
        return errors

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "counts": dict(self.counts),
            "elapsed_s": self.elapsed,
            "throughput_sessions_per_s": self.throughput,
            "queue_wait": dict(self.queue_wait),
            "fairness_max_over_min": self.fairness,
            "tenant_service": dict(self.tenant_service),
            "retries": self.retries,
            "dedup_hits": self.dedup_hits,
            "server_restarts": self.server_restarts,
            "chaos_injected": dict(self.chaos),
        }


async def _drive(config: LoadTestConfig) -> LoadTestReport:
    specs = node_specs(config)
    chaos_spec = config.chaos
    if chaos_spec and "seed=" not in chaos_spec:
        chaos_spec = f"seed={config.seed},{chaos_spec}"
    plan = ChaosPlan.from_string(chaos_spec) if chaos_spec else None
    # The WAL is in-memory: the simulated SIGKILL kills the server
    # object, not the interpreter, exactly like the PR 5 crash tests.
    wal = ServerWal() if config.kill_after is not None else None
    server = ReproServer.from_specs(specs,
                                    lease_limit=config.lease_limit,
                                    max_queue=config.max_queue,
                                    wal=wal)
    state = {"proto": ProtocolServer(server)}
    host, port = await state["proto"].start()
    requests = generate_requests(config)
    work = list(reversed(requests))     # pop() preserves order
    report = LoadTestReport(config=config, submitted=len(requests),
                            archs={s.name: s.arch for s in specs})
    clients: list[ServerClient] = []

    async def client_worker(i: int) -> None:
        client = ServerClient(host, port,
                              client_id=f"load-{i:03d}",
                              retry=LOADTEST_RETRIES, chaos=plan)
        clients.append(client)
        try:
            while work:
                req = work.pop()
                doc = await client.submit(req, wait=True)
                report.sessions.append(doc)
        finally:
            await client.close()

    async def killer() -> None:
        """One mid-run SIGKILL + WAL recovery + rebind on the same
        port; the clients ride it out through their retry policies."""
        while len(report.sessions) < config.kill_after and work:
            await asyncio.sleep(0.005)
        old = state["proto"]
        residues = await old.abort()
        new_proto = await recover_protocol(
            specs, wal, residues=residues,
            lease_limit=config.lease_limit,
            max_queue=config.max_queue)
        new_proto.dedup_hits += old.dedup_hits   # carry the counter
        await new_proto.start(host, port)
        state["proto"] = new_proto
        report.server_restarts += 1

    tasks = [client_worker(i) for i in range(config.clients)]
    if config.kill_after is not None:
        tasks.append(killer())
    began = _time.perf_counter()
    try:
        await asyncio.gather(*tasks)
        report.elapsed = _time.perf_counter() - began
        proto = state["proto"]
        status = proto.server.status()
        report.counts = status["total"]
        report.queue_wait = status["queue_wait"]
        report.dedup_hits = proto.dedup_hits
        report.retries = sum(c.retries for c in clients)
        for client in clients:
            if client.chaos is not None:
                for kind, n in client.chaos.injected.items():
                    report.chaos[kind] = report.chaos.get(kind, 0) + n
        for sched in proto.server.nodes.values():
            for t in range(config.tenants):
                tenant = f"tenant{t}"
                report.tenant_service[tenant] = \
                    report.tenant_service.get(tenant, 0.0) \
                    + sched.queue.service(tenant)
    finally:
        await state["proto"].close()
    return report


def run_load_test(config: LoadTestConfig) -> LoadTestReport:
    """Run the whole harness on a private event loop (sync entry
    point for the CLI and the benchmark suite)."""
    return asyncio.run(_drive(config))
