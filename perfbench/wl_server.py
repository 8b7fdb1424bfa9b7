"""The server workloads: a closed loop of 2 clients against an
in-process ``ReproServer`` + ``ProtocolServer``.

Each round boots a fresh server (its set-up time is one ``setup_s``
sample), connects two ``ServerClient`` connections, and runs one
seeded batch of sessions through them: each client submits its next
session only when the previous one reached a terminal state.  After
the timed region the round is checked: exact accounting, the state
each input implies, and a sample of completed sessions replayed
standalone bit for bit.  A fresh server per round keeps memory flat,
so a faster program does not pay for holding more sessions.
"""

from __future__ import annotations

import asyncio
import statistics
from collections import deque

from perfbench import checks
from perfbench.common import (Round, drive, installed, timed_region)
from perfbench.generators import (SERVER_ARCH, SERVER_MIXES, ServerMix,
                                  is_long, server_requests)
from perfbench.layers import take_wire
from perfbench.spans import clock
from repro.agent.fleet import NodeSpec
from repro.errors import ReproError
from repro.server.client import ServerClient
from repro.server.protocol import ProtocolServer
from repro.server.retry import NO_RETRY
from repro.server.server import ReproServer
from repro.server.workload import (result_from_dict, results_identical,
                                   run_standalone)

CLIENTS = 2
#: Completed sessions per round replayed standalone.
REPLAY_SAMPLE = 4
#: p99 of session latency: thousands of sessions per run.
TAIL_Q = 99


def _specs(mix: ServerMix) -> list[NodeSpec]:
    return [NodeSpec(name=f"node{i:03d}", arch=SERVER_ARCH, seed=i)
            for i in range(mix.nodes)]


async def _round(mix: ServerMix, seed: int, index: int, tr) -> Round:
    requests = server_requests(mix, seed, index)
    work = deque(enumerate(requests))
    docs: list[tuple[int, dict]] = []
    latencies: list[float] = []
    errors: list[str] = []

    async def client_loop(client: ServerClient) -> None:
        while work:
            i, request = work.popleft()
            began = clock()
            try:
                doc = await client.submit(request, wait=True)
            except ReproError as exc:
                errors.append(f"request {i}: {exc}")
                continue
            latencies.append(clock() - began)
            docs.append((i, doc))

    with installed(tr):
        began = clock()
        server = ReproServer.from_specs(_specs(mix),
                                        lease_limit=mix.lease_limit,
                                        max_queue=len(requests))
        proto = ProtocolServer(server)
        host, port = await proto.start()
        clients = [ServerClient(host, port, client_id=f"bench-{i}",
                                retry=NO_RETRY) for i in range(CLIENTS)]
        try:
            for client in clients:
                await client.ping()
            setup = clock() - began
            with timed_region(tr):
                began = clock()
                await asyncio.gather(*(client_loop(c) for c in clients))
                elapsed = clock() - began
        except BaseException:
            await _shutdown(clients, proto)
            raise
    status = server.status()
    extra = {"completed": status["total"]["completed"],
             "granted": sum(status["total"][k] for k in
                            ("completed", "preempted", "failed")),
             "queue_wait_p99": status["queue_wait"]["p99"]}
    if tr is not None:
        mapping = {}
        for node, sched in server.nodes.items():
            for sid, sess in sched.sessions.items():
                mapping[f"obj:{id(sess.psession)}"] = f"{node}/{sid}"
                mapping[f"obj:{id(sess.workload)}"] = f"{node}/{sid}"
        tr.rec.resolve_ids(mapping, prefix=f"r{index}:")
        extra["wire"] = take_wire(tr.rec)
    await _shutdown(clients, proto)

    long = {i for i, r in enumerate(requests) if is_long(mix, r)}
    errors += checks.accounting_errors(requests, docs, status["total"],
                                       long)
    failed = len(requests) if errors else 0
    completed = [(i, d) for i, d in docs if d.get("state") == "completed"]
    stride = max(1, len(completed) // REPLAY_SAMPLE)
    for i, doc in completed[::stride][:REPLAY_SAMPLE]:
        alone = run_standalone(requests[i], SERVER_ARCH)
        if not results_identical(result_from_dict(doc["result"]), alone):
            errors.append(f"request {i}: result differs from the "
                          f"standalone replay")
            failed = min(len(requests), failed + 1)
    return Round(ops=len(requests), elapsed=elapsed, latencies=latencies,
                 failed=failed, errors=errors, setup=setup, extra=extra)


async def _shutdown(clients, proto) -> None:
    for client in clients:
        await client.close()
    await proto.close()


def _layer_extra(rounds: list[Round]) -> dict[str, float]:
    wire = [w for r in rounds for w in r.extra.get("wire", ())]
    granted = sum(r.extra["granted"] for r in rounds)
    return {
        "server.wire_s": statistics.fmean(wire) if wire else 0.0,
        "server.completed_ratio":
            sum(r.extra["completed"] for r in rounds) / granted
            if granted else 0.0,
        "server.queue_wait_p99_virtual_s":
            statistics.median(r.extra["queue_wait_p99"] for r in rounds),
    }


def run(workload: str, *, seed: int, seconds: float, trace: bool):
    mix = SERVER_MIXES[workload]

    def run_round(index: int, tr) -> Round:
        return asyncio.run(_round(mix, seed, index, tr))

    return drive(workload, seconds=seconds, trace=trace, seed=seed,
                 run_round=run_round, setups=[], tail_q=TAIL_Q,
                 layer_extra=_layer_extra)
