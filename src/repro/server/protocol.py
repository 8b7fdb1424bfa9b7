"""JSON-lines wire protocol for likwid-server.

One request object per line, one response object per line, over a
plain TCP stream — the simplest protocol that still exercises real
concurrency (many sockets multiplexed onto one asyncio loop).  Every
response carries ``"ok"``; failures carry ``"error"`` plus a stable
machine-readable ``"code"`` and a ``"retryable"`` flag, and never
tear down the connection (a client's bad submission must not disturb
its other in-flight sessions — fuzzed garbage, torn lines and
oversized lines all get an error reply on a live connection).

Verbs:

``ping``
    Liveness probe → ``{"ok": true, "server": "likwid-server"}``.
``status``
    Fleet-wide terminal-state accounting + queue-wait summary.
``submit``
    One :class:`~repro.server.scheduler.SessionRequest` (fields
    inline).  With ``"wait": true`` (default) the response is the
    terminal session document; with ``false`` it returns the session
    id immediately for a later ``wait``.
``wait``
    Block until session ``{"node", "session"}`` is terminal.
``cancel``
    Cancel a queued or running session.
``ingest``
    A serialized agent :class:`~repro.agent.batch.SampleBatch` for
    the server-side aggregator (the ``likwid-agent --server`` path).

**Idempotency.**  ``submit``, ``cancel`` and ``ingest`` may carry
``"client"`` (a client-chosen id) and ``"seq"`` (a per-client
sequence number).  The pair is the request's idempotency key: the
server remembers, in a bounded window, what each key resolved to, so
a client that lost a reply can retry the same request and land on the
*same* outcome — a retried ``submit`` returns the already-admitted
session instead of running it twice, a retried ``ingest`` never
double-counts into the aggregator.  A key reused for a *different*
request body is an ``idempotency-conflict`` error.

**Crash safety.**  Given a :class:`~repro.server.wal.ServerWal`, the
protocol journals every submission's intent before acting on it;
:func:`recover_protocol` rebuilds a server from the log after a
SIGKILL (see the wal module docstring for the replay taxonomy).
"""

from __future__ import annotations

import asyncio
import json
import zlib
from collections import OrderedDict

from repro import trace as _trace
from repro.agent.aggregate import Aggregator
from repro.agent.fleet import NodeSpec
from repro.errors import ReproError, ServerError
from repro.server.ingest import batch_from_dict
# Re-exported for backwards compatibility: these lived here before
# the scheduler needed them for crash recovery.
from repro.server.scheduler import (REQUEST_FIELDS, NodeResidue,
                                    request_from_dict, request_to_dict)
from repro.server.server import ReproServer, SessionHandle
from repro.server.wal import ServerWal

__all__ = ["ProtocolServer", "recover_protocol", "REQUEST_FIELDS",
           "request_from_dict", "request_to_dict", "idempotency_key",
           "request_fingerprint"]


def idempotency_key(doc: dict) -> str | None:
    """The request's idempotency key, or None when the client did not
    opt in (both ``client`` and ``seq`` are required)."""
    client = doc.get("client")
    seq = doc.get("seq")
    if client is None or seq is None:
        return None
    return f"{client}:{seq}"


def request_fingerprint(doc: dict) -> int:
    """CRC32 over the canonical JSON of the request fields — the
    conflict detector for idempotency-key reuse.  Computed over the
    *normalized* round-trip so wire-level representation differences
    (list vs tuple, omitted defaults) never alias a conflict."""
    return _canonical_fp(request_to_dict(request_from_dict(doc)))


def _canonical_fp(fields: dict) -> int:
    blob = json.dumps(fields, sort_keys=True,
                      separators=(",", ":")).encode()
    return zlib.crc32(blob)


class ProtocolServer:
    """Serve the JSON-lines protocol over TCP for one ReproServer.

    ``dedup_window`` bounds the idempotency memory (keys beyond it
    fall out oldest-first; a retry storm that outlives the window is
    a client misconfiguration, not a server leak)."""

    def __init__(self, server: ReproServer, *,
                 aggregator: Aggregator | None = None,
                 wal: ServerWal | None = None,
                 dedup_window: int = 4096):
        self.server = server
        self.aggregator = aggregator if aggregator is not None \
            else Aggregator()
        self.wal = wal if wal is not None else server.wal
        if self.wal is not None and server.wal is None:
            server.wal = self.wal
        self.dedup_window = dedup_window
        self.ingested = 0
        self.dedup_hits = 0
        #: key -> {"event": Event, "fp": int}            (in flight)
        #:     -> {"node": str, "session": int, "fp": int} (resolved)
        self._dedup: "OrderedDict[str, dict]" = OrderedDict()
        #: ingest key -> accepted count (replayed on retry).
        self._ingest_seen: "OrderedDict[str, int]" = OrderedDict()
        self._tcp: asyncio.AbstractServer | None = None
        self._conns: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False

    # -- idempotency window ----------------------------------------------------

    def _dedup_put(self, key: str, entry: dict) -> None:
        self._dedup[key] = entry
        self._dedup.move_to_end(key)
        while len(self._dedup) > self.dedup_window:
            # Never evict an in-flight entry: concurrent retries are
            # parked on its event and must observe the resolution.
            for old_key, old in self._dedup.items():
                if "event" not in old:
                    del self._dedup[old_key]
                    break
            else:
                break

    def _ingest_put(self, key: str, accepted: int) -> None:
        self._ingest_seen[key] = accepted
        self._ingest_seen.move_to_end(key)
        while len(self._ingest_seen) > self.dedup_window:
            self._ingest_seen.popitem(last=False)

    async def _dedup_lookup(self, key: str, fp: int) -> dict | None:
        """Resolve *key* against the window; returns the resolved
        entry, or None when the key is unseen.  Parks on in-flight
        entries (the concurrent-retry race: the original submit has
        not finished admitting yet)."""
        while True:
            entry = self._dedup.get(key)
            if entry is None:
                return None
            if entry["fp"] != fp:
                raise ServerError(
                    f"idempotency key {key!r} reused for a different "
                    f"request", code="idempotency-conflict")
            if "event" not in entry:
                self._dedup.move_to_end(key)
                return entry
            await entry["event"].wait()

    # -- dispatch --------------------------------------------------------------

    async def dispatch(self, doc: dict) -> dict:
        if self._draining:
            raise ServerError("server is shutting down",
                              code="shutting-down", retryable=True)
        op = doc.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ServerError(f"unknown op {op!r}", code="unknown-op")
        return await handler(doc)

    async def _op_ping(self, doc: dict) -> dict:
        return {"ok": True, "server": "likwid-server",
                "nodes": sorted(self.server.nodes)}

    async def _op_status(self, doc: dict) -> dict:
        status = self.server.status()
        status["ok"] = True
        status["ingested"] = self.ingested
        status["dedup_hits"] = self.dedup_hits
        return status

    async def _session_reply(self, node: str, session_id: int,
                             wait: bool) -> dict:
        """The reply for a (possibly deduplicated) submission."""
        handle = self.server._handles.get((node, session_id))
        if handle is None:
            sched = self.server.node(node)
            session = sched.sessions.get(session_id)
            if session is None:
                raise ServerError(
                    f"unknown session {session_id} on {node}",
                    code="unknown-session")
            reply = session.as_dict()
        elif wait:
            session = await handle.wait()
            reply = session.as_dict()
        else:
            reply = {"session": handle.id, "node": node,
                     "state": handle.state.value}
        reply["ok"] = True
        return reply

    async def _op_submit(self, doc: dict) -> dict:
        wait = doc.get("wait", True)
        key = idempotency_key(doc)
        req = request_from_dict(doc)
        if key is None:
            # No idempotency opt-in: PR 9 behaviour, execute as-is.
            handle = await self._admit(None, req)
            return await self._session_reply(req.node, handle.id, wait)
        fp = _canonical_fp(request_to_dict(req))
        entry = await self._dedup_lookup(key, fp)
        if entry is not None:
            self.dedup_hits += 1
            _trace.incr("server.dedup_hits")
            reply = await self._session_reply(entry["node"],
                                              entry["session"], wait)
            reply["deduplicated"] = True
            return reply
        pending = {"event": asyncio.Event(), "fp": fp}
        self._dedup_put(key, pending)
        try:
            handle = await self._admit(key, req)
        except BaseException:
            # Deterministic failure (bad node, bad request): retries
            # re-execute and fail identically; nothing to memoize.
            del self._dedup[key]
            raise
        finally:
            pending["event"].set()
        self._dedup_put(key, {"node": req.node, "session": handle.id,
                              "fp": fp})
        return await self._session_reply(req.node, handle.id, wait)

    async def _admit(self, key: str | None, req) -> SessionHandle:
        """Journal the intent, then admit (write-ahead ordering: an
        intent with no admit record means the crash hit before the
        scheduler created a session — safe to resubmit fresh).  The
        ADMIT record is written *inside* :meth:`ReproServer.submit`,
        atomically with session creation: this handler task can be
        cancelled by a crash at any await point, and the node loop may
        even run the session to terminal before we resume — an admit
        written here, after the await, could be lost while the session
        it names already executed."""
        intent = None
        if self.wal is not None:
            intent = self.wal.record_intent(key, request_to_dict(req))
        return await self.server.submit(req, intent=intent)

    async def _op_wait(self, doc: dict) -> dict:
        return await self._session_reply(doc.get("node"),
                                         doc.get("session"), True)

    async def _op_cancel(self, doc: dict) -> dict:
        ok = await self.server.cancel(doc.get("node"),
                                      doc.get("session"))
        return {"ok": True, "cancelled": ok}

    async def _op_ingest(self, doc: dict) -> dict:
        key = idempotency_key(doc)
        if key is not None and key in self._ingest_seen:
            self.dedup_hits += 1
            _trace.incr("server.dedup_hits")
            return {"ok": True, "accepted": self._ingest_seen[key],
                    "deduplicated": True}
        batch = batch_from_dict(doc.get("batch") or {})
        # No awaits between decode and aggregate: the ingest path is
        # atomic per event-loop turn, so unlike submit it needs no
        # in-flight dedup entry.
        self.aggregator.ingest(batch)
        self.ingested += len(batch)
        if self.wal is not None:
            self.wal.record_ingest(key, len(batch))
        if key is not None:
            self._ingest_put(key, len(batch))
        return {"ok": True, "accepted": len(batch)}

    # -- transport -------------------------------------------------------------

    @staticmethod
    def _error_reply(exc: BaseException) -> dict:
        if isinstance(exc, ServerError):
            return {"ok": False, "error": str(exc), "code": exc.code,
                    "retryable": exc.retryable}
        if isinstance(exc, ReproError):
            return {"ok": False, "error": str(exc),
                    "code": "server-error", "retryable": False}
        return {"ok": False, "error": f"bad request line: {exc}",
                "code": "bad-json", "retryable": False}

    @staticmethod
    async def _read_request_line(reader: asyncio.StreamReader
                                 ) -> bytes | None:
        """One request line; None at EOF (including EOF mid-line — a
        torn request has no one to reply to).  A line exceeding the
        stream limit is drained to its newline and reported, so the
        connection survives oversized garbage."""
        try:
            line = await reader.readline()
        except ValueError:
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk or b"\n" in chunk:
                    break
            raise ServerError("request line too long",
                              code="oversized-request") from None
        if not line or not line.endswith(b"\n"):
            return None
        return line

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Connection callback: register the connection before its
        handler task first runs, so close() and abort() also reach a
        connection whose handler has not started yet."""
        self._conns.add(writer)
        task = asyncio.get_running_loop().create_task(
            self.handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._connection_done)

    def _connection_done(self, task: asyncio.Task) -> None:
        """Forget a finished handler and report what it raised (the
        loop's exception handler, as asyncio's own callback does)."""
        self._conn_tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            task.get_loop().call_exception_handler({
                "message": "connection handler failed",
                "exception": task.exception(), "task": task})

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await self._read_request_line(reader)
                except ServerError as exc:
                    reply = self._error_reply(exc)
                else:
                    if line is None:
                        break
                    try:
                        doc = json.loads(line)
                        if not isinstance(doc, dict):
                            raise ServerError(
                                "request must be an object",
                                code="bad-request")
                        reply = await self.dispatch(doc)
                    except asyncio.CancelledError:
                        raise
                    except (ReproError, ValueError) as exc:
                        reply = self._error_reply(exc)
                    except Exception as exc:
                        # A handler bug must not take down the
                        # connection, let alone the server task.
                        reply = {"ok": False, "code": "internal",
                                 "retryable": False,
                                 "error": f"internal error: "
                                          f"{type(exc).__name__}: {exc}"}
                try:
                    writer.write(json.dumps(reply, sort_keys=True)
                                 .encode() + b"\n")
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        except asyncio.CancelledError:
            # The server was SIGKILLed (abort()): die quietly, like
            # the process this task models would.
            pass
        finally:
            self._conns.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Bind the TCP listener; returns the bound (host, port) —
        port 0 picks a free port, the test-friendly default."""
        self.server.start()
        self._draining = False
        self._tcp = await asyncio.start_server(self._accept, host, port)
        bound = self._tcp.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, drain every node to idle
        (in-flight waits get their replies), then close the client
        connections that are still open — including one whose client
        gave up mid-request and never hung up — so no server-side
        socket outlives the server."""
        self._draining = True
        await self._stop_listening()
        await self.server.close()
        await self._drop_connections(abort=False)

    async def abort(self) -> dict[str, NodeResidue]:
        """Simulated SIGKILL: the listener closes, every live client
        connection is severed mid-whatever (transports aborted, no
        FIN handshakes, handler tasks cancelled), and the underlying
        server crashes — returning the per-node hardware residue that
        :func:`recover_protocol` needs."""
        self._draining = True
        await self._stop_listening()
        await self._drop_connections(abort=True)
        return await self.server.crash()

    async def _stop_listening(self) -> None:
        """Close the listener without leaking an accept in flight (on
        Python 3.11 a transport built after ``Server.close()`` fails
        and leaks its socket): stop polling, give pending accepts two
        loop turns (callback, then its task) to attach, then close."""
        if self._tcp is None:
            return
        loop = asyncio.get_running_loop()
        for sock in self._tcp.sockets:
            loop.remove_reader(sock.fileno())
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        self._tcp.close()

    async def _drop_connections(self, *, abort: bool) -> None:
        """Close (FIN) or abort (RST) every live connection and wait
        until each is closed and its handler task done, then for the
        listener (which since Python 3.12 waits for its connections)."""
        writers = list(self._conns)
        for w in writers:
            if not abort:
                w.close()
            elif w.transport is not None:
                w.transport.abort()
        tasks = list(self._conn_tasks)
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, *(w.wait_closed() for w in writers),
                             return_exceptions=True)
        self._conns.clear()
        self._conn_tasks.clear()
        if self._tcp is not None:
            await self._tcp.wait_closed()
            self._tcp = None

    async def serve_forever(self) -> None:
        if self._tcp is None:
            raise ServerError("start() the listener first")
        await self._tcp.serve_forever()


async def recover_protocol(specs: list[NodeSpec], wal: ServerWal, *,
                           residues: dict[str, NodeResidue] | None = None,
                           lease_limit: float = 1.0,
                           max_queue: int = 64,
                           aggregator: Aggregator | None = None,
                           dedup_window: int = 4096) -> ProtocolServer:
    """Rebuild a protocol server from a crashed incarnation's WAL.

    In order: reconstruct the node schedulers on the surviving
    hardware residue and run per-node :class:`~repro.oskern.recovery
    .RecoveryEngine` recovery (pristine MSR state *before* anything
    executes), then replay the log — adopt terminal documents, fence
    sessions that were running, requeue admitted-but-never-granted
    sessions under their original ids and intended-but-never-admitted
    ones under fresh ids — and finally restore the idempotency
    windows so pre-crash retries still deduplicate.  The caller binds
    the TCP listener (typically on the crashed server's port)."""
    replay = wal.replay()
    server = ReproServer.from_specs(
        specs, lease_limit=lease_limit, max_queue=max_queue,
        wal=wal, residues=residues or {})
    recovered = sum(len(sched.recover())
                    for sched in server.nodes.values())
    if recovered:
        _trace.incr("server.recovery.orphans_fenced", recovered)
    proto = ProtocolServer(server, aggregator=aggregator, wal=wal,
                           dedup_window=dedup_window)
    server.start()
    keys_by_sid = {sid: key for key, sid in replay.dedup.items()}
    for node, sid, doc in replay.terminals:
        if node not in server.nodes:
            continue
        sess = server.nodes[node].adopt_terminal(doc)
        server._handles[(node, sid)] = SessionHandle(sess)
        key = keys_by_sid.get((node, sid))
        if key is not None:
            proto._dedup_put(key, {"node": node, "session": sid,
                                   "fp": request_fingerprint(doc)})
    for node, sid, reqdoc in replay.fenced:
        if node not in server.nodes:
            continue
        sess = server.nodes[node].adopt_fenced(
            reqdoc, sid,
            reason="server crashed mid-session; fenced by recovery")
        server._handles[(node, sid)] = SessionHandle(sess)
        key = keys_by_sid.get((node, sid))
        if key is not None:
            proto._dedup_put(key, {"node": node, "session": sid,
                                   "fp": request_fingerprint(reqdoc)})
    for node, sid, reqdoc, key in replay.requeue_admitted:
        if node not in server.nodes:
            continue
        req = request_from_dict(reqdoc)
        intent = wal.record_intent(key, reqdoc)
        handle = await server.submit(req, session_id=sid, intent=intent)
        if key is not None:
            proto._dedup_put(key, {"node": node, "session": handle.id,
                                   "fp": request_fingerprint(reqdoc)})
    for reqdoc, key in replay.requeue_intended:
        req = request_from_dict(reqdoc)
        if req.node not in server.nodes:
            continue
        intent = wal.record_intent(key, reqdoc)
        handle = await server.submit(req, intent=intent)
        if key is not None:
            proto._dedup_put(key, {"node": req.node,
                                   "session": handle.id,
                                   "fp": request_fingerprint(reqdoc)})
    for key, accepted in replay.ingest:
        proto.ingested += accepted
        if key is not None:
            proto._ingest_put(key, accepted)
    if not replay.empty:
        _trace.incr("server.recovery.restarts")
    return proto
