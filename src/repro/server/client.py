"""Client API for likwid-server: one protocol core, two transports.

:class:`_ClientCore` does no I/O.  It owns the client id, the
idempotency stamping, the per-call deadline, the retry decision and
its seeded backoff, the chaos fates, JSON encoding, reply checks and
the verbs.  A call is a generator that yields I/O steps — ``(name of
a transport method, argument)`` pairs — and receives each result.
A transport only connects, closes, aborts, writes, reads a line and
sleeps, and drives that generator:

* :class:`ServerClient` on asyncio streams, one request in flight
  per connection (the load harness opens hundreds of these);
* :class:`SyncServerClient` on a blocking socket, for
  ``likwid-server submit`` and the agent's
  :class:`~repro.server.ingest.ServerIngestSink`.

Every call runs under a :class:`~repro.server.retry.RetryPolicy`
(seeded-jitter exponential backoff keyed by the client id),
reconnects after any transport failure, and honours a per-call
wall-clock ``deadline``.  ``submit``/``cancel``/``ingest`` carry
idempotency keys (``client`` + ``seq``, stamped once per logical
operation and stable across its retries), so a retry after a lost
reply lands on the server's dedup window instead of re-executing.
A :class:`~repro.server.chaos.ChaosPlan` armed on a client injects
faults at the stream/socket seam as retryable
:class:`~repro.errors.ChaosError`, which the retry loop absorbs like
genuine network weather.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import socket
import time

from repro import trace as _trace
from repro.errors import ChaosError, ServerError
from repro.server import chaos as _chaos
from repro.server.chaos import ChaosPlan
from repro.server.retry import CLIENT_RETRIES, RetryPolicy, retryable
from repro.server.scheduler import SessionRequest, request_to_dict

_CLIENT_IDS = itertools.count(1)

#: The I/O steps a call yields; each names the transport method that
#: performs it.
_CONNECT = "_io_connect"    # arg: seconds left (None = no deadline)
_WRITE = "_io_write"        # arg: bytes
_READLINE = "_io_readline"  # arg: seconds left; result: the line
_ABORT = "_io_abort"        # arg: None
_SLEEP = "_io_sleep"        # arg: seconds


def _default_client_id() -> str:
    return f"client-{os.getpid()}-{next(_CLIENT_IDS)}"


def _reply_error(reply: dict) -> ServerError:
    return ServerError(reply.get("error", "server error"),
                       code=reply.get("code", "server-error"),
                       retryable=bool(reply.get("retryable", False)))


def _nonempty(line: bytes) -> bytes:
    if not line:
        raise ServerError("server closed the connection",
                          code="connection-lost", retryable=True)
    return line


def _checked(reply: dict) -> dict:
    if not reply.get("ok"):
        raise _reply_error(reply)
    return reply


class _CallClock:
    """Per-call deadline bookkeeping (wall clock, not virtual)."""

    def __init__(self, deadline: float | None):
        self.deadline = deadline
        self.start = time.monotonic()

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        left = self.deadline - (time.monotonic() - self.start)
        if left <= 0.0:
            raise ServerError(
                f"call deadline of {self.deadline}s exceeded",
                code="deadline-exceeded")
        return left


class _ClientCore:
    """The request/retry contract shared by both transports.  A
    transport subclass supplies ``_connected``, ``_checked_call`` and
    the ``_io_*`` step methods.

    ``retry=None`` means :data:`~repro.server.retry.CLIENT_RETRIES`
    (:data:`~repro.server.retry.NO_RETRY` fails fast); ``deadline`` is
    the default per-call wall-clock budget (None = wait forever, the
    load-harness default since terminal waits are legitimately
    long)."""

    def __init__(self, host: str, port: int, client_id: str | None,
                 retry: RetryPolicy | None, deadline: float | None,
                 chaos: ChaosPlan | None):
        self.host = host
        self.port = port
        self.client_id = client_id if client_id is not None \
            else _default_client_id()
        self.retry = retry if retry is not None else CLIENT_RETRIES
        self.deadline = deadline
        self.chaos = chaos.arm(self.client_id) \
            if chaos is not None and chaos.active else None
        self.retries = 0
        self._rng = random.Random(f"retry:{self.client_id}")
        self._seq = 0

    # -- idempotency keys ------------------------------------------------------

    def next_seq(self) -> int:
        """Allocate an idempotency sequence number for a caller that
        stamps its own requests (the ingest sink's spill ring stamps
        each batch once so a drained retry still deduplicates)."""
        self._seq += 1
        return self._seq

    def _stamp(self, doc: dict) -> dict:
        """Attach the idempotency key: stamped once per logical
        operation, stable across every retry of it."""
        doc["client"] = self.client_id
        doc["seq"] = self.next_seq()
        return doc

    def _refuse_check(self) -> None:
        if self.chaos is not None and self.chaos.refuse_connect():
            raise ChaosError("connection refused (injected)",
                             kind="refused")

    # -- the call as a sequence of I/O steps -----------------------------------

    def _call_steps(self, doc: dict, deadline: float | None):
        """One logical call: attempts under the retry policy.  Its
        value is the reply; error replies the server marked retryable
        are retried in here, so a returned error reply is terminal."""
        clock = _CallClock(deadline if deadline is not None
                           else self.deadline)
        attempt = 0
        while True:
            try:
                return (yield from self._attempt_steps(doc, clock))
            except Exception as exc:
                if isinstance(exc, ServerError) \
                        and exc.code == "deadline-exceeded":
                    raise
                if not retryable(exc):
                    raise
                attempt += 1
                self.retries += 1
                _trace.incr("server.retries")
                yield _ABORT, None
                if attempt >= self.retry.max_attempts:
                    raise ServerError(
                        f"retries exhausted after {attempt} "
                        f"attempt(s): {exc}",
                        code="retries-exhausted") from exc
                clock.remaining()
                yield _SLEEP, self.retry.delay(attempt - 1, self._rng)

    def _attempt_steps(self, doc: dict, clock: _CallClock):
        """One attempt: (re)connect, send, read and check the reply,
        with the armed chaos plan deciding each fate."""
        if not self._connected:
            yield _CONNECT, clock.remaining()
        data = json.dumps(doc).encode() + b"\n"
        ch = self.chaos
        fate = _chaos.DELIVER
        if ch is not None:
            pause = ch.delay()
            if pause:
                yield _SLEEP, pause
            fate = ch.request_fate()
            if fate == _chaos.TORN_REQUEST:
                yield _WRITE, ch.tear(data)
                yield _ABORT, None
                raise ChaosError("connection lost mid-request "
                                 "(injected)", kind="torn-request")
            if fate == _chaos.DUPLICATE:
                data = data + data
        yield _WRITE, data
        if ch is not None:
            reply_fate = ch.reply_fate()
            if reply_fate == _chaos.DROP_REPLY:
                yield _ABORT, None
                raise ChaosError("connection lost before reply "
                                 "(injected)", kind="dropped-reply")
            if reply_fate == _chaos.TORN_REPLY:
                _nonempty((yield _READLINE, clock.remaining()))  # cadence
                yield _ABORT, None
                raise ChaosError("reply line torn mid-JSON "
                                 "(injected)", kind="torn-reply")
        line = _nonempty((yield _READLINE, clock.remaining()))
        if fate == _chaos.DUPLICATE:
            # The duplicate delivery produced a second reply (or a
            # dedup replay); it must leave the stream before the next
            # request keeps order.
            _nonempty((yield _READLINE, clock.remaining()))
        try:
            reply = json.loads(line)
        except ValueError:
            raise ServerError("torn reply: response line is not JSON",
                              code="torn-reply", retryable=True) \
                from None
        if not reply.get("ok") and reply.get("retryable"):
            raise _reply_error(reply)
        return reply

    # -- verbs -----------------------------------------------------------------
    # Each returns what the transport's ``_checked_call`` returns: the
    # reply on the sync client, an awaitable of it on the async one.

    def ping(self, *, deadline: float | None = None):
        return self._checked_call({"op": "ping"}, deadline)

    def status(self, *, deadline: float | None = None):
        return self._checked_call({"op": "status"}, deadline)

    def submit(self, request: SessionRequest, *, wait: bool = True,
               deadline: float | None = None):
        """Submit one session; with ``wait`` (default) blocks until
        the terminal state and returns the full session document."""
        doc = request_to_dict(request)
        doc["op"] = "submit"
        doc["wait"] = wait
        return self._checked_call(self._stamp(doc), deadline)

    def wait(self, node: str, session_id: int, *,
             deadline: float | None = None):
        return self._checked_call(
            {"op": "wait", "node": node, "session": session_id},
            deadline)

    def cancel(self, node: str, session_id: int, *,
               deadline: float | None = None):
        return self._checked_call(self._stamp(
            {"op": "cancel", "node": node, "session": session_id}),
            deadline)


class ServerClient(_ClientCore):
    """Async transport: asyncio streams, one outstanding request at a
    time (the protocol matches replies to requests by order)."""

    def __init__(self, host: str, port: int, *,
                 client_id: str | None = None,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None,
                 chaos: ChaosPlan | None = None):
        super().__init__(host, port, client_id, retry, deadline, chaos)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def __aenter__(self) -> "ServerClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def connect(self) -> None:
        self._refuse_check()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        """Flush and close the connection.  Waits for the transport
        to actually close — dropping the writer reference without
        ``wait_closed`` loses buffered data and leaks the transport
        until GC."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def call(self, doc: dict, *,
                   deadline: float | None = None) -> dict:
        """One request/response round trip (serialized per client),
        retried under the client's policy."""
        async with self._lock:
            return await self._run(self._call_steps(doc, deadline))

    async def _attempt(self, doc: dict, clock: _CallClock) -> dict:
        """A single attempt, without the retry loop."""
        return await self._run(self._attempt_steps(doc, clock))

    async def _checked_call(self, doc: dict,
                            deadline: float | None) -> dict:
        return _checked(await self.call(doc, deadline=deadline))

    async def _run(self, steps):
        """Drive a step generator, feeding back each result or
        throwing in each exception."""
        value = exc = None
        while True:
            try:
                op, arg = steps.send(value) if exc is None \
                    else steps.throw(exc)
            except StopIteration as done:
                return done.value
            try:
                value, exc = await getattr(self, op)(arg), None
            except Exception as err:
                value, exc = None, err

    # -- I/O steps -------------------------------------------------------------

    @property
    def _connected(self) -> bool:
        return self._writer is not None

    async def _io_connect(self, remaining: float | None) -> None:
        await asyncio.wait_for(self.connect(), remaining)

    async def _io_write(self, data: bytes) -> None:
        self._writer.write(data)
        await self._writer.drain()

    async def _io_readline(self, remaining: float | None) -> bytes:
        return await asyncio.wait_for(self._reader.readline(), remaining)

    async def _io_abort(self, _) -> None:
        """Sever the connection without ceremony (chaos and retry
        paths; the next attempt reconnects)."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            transport = writer.transport
            if transport is not None:
                transport.abort()

    _io_sleep = staticmethod(asyncio.sleep)


class SyncServerClient(_ClientCore):
    """Blocking transport for synchronous call sites.

    ``timeout`` caps a single socket operation; ``deadline`` caps a
    whole logical call across all its retries."""

    def __init__(self, host: str, port: int, *,
                 timeout: float | None = 30.0,
                 client_id: str | None = None,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None,
                 chaos: ChaosPlan | None = None):
        super().__init__(host, port, client_id, retry, deadline, chaos)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._file = None

    def __enter__(self) -> "SyncServerClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def connect(self) -> None:
        self._refuse_check()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        """Close file and socket; exception-safe — a failing buffered
        flush in ``_file.close()`` must never leak the socket."""
        sock, self._sock = self._sock, None
        file, self._file = self._file, None
        if sock is None:
            return
        try:
            if file is not None:
                file.close()
        except (OSError, ValueError):
            pass
        finally:
            sock.close()

    def call(self, doc: dict, *,
             deadline: float | None = None) -> dict:
        """One request/response round trip, retried under the
        client's policy."""
        return self._run(self._call_steps(doc, deadline))

    def _checked_call(self, doc: dict, deadline: float | None) -> dict:
        return _checked(self.call(doc, deadline=deadline))

    def _run(self, steps):
        """Drive a step generator, feeding back each result or
        throwing in each exception."""
        value = exc = None
        while True:
            try:
                op, arg = steps.send(value) if exc is None \
                    else steps.throw(exc)
            except StopIteration as done:
                return done.value
            try:
                value, exc = getattr(self, op)(arg), None
            except Exception as err:
                value, exc = None, err

    # -- I/O steps -------------------------------------------------------------

    @property
    def _connected(self) -> bool:
        return self._sock is not None

    def _io_connect(self, remaining: float | None) -> None:
        self.connect()          # capped by ``timeout``, as every op

    # The socket timeout is set before every write and read: a
    # deadline-shrunk read timeout must not carry over into a later
    # call that has no deadline.

    def _io_write(self, data: bytes) -> None:
        self._sock.settimeout(self.timeout)
        self._file.write(data)
        self._file.flush()

    def _io_readline(self, remaining: float | None) -> bytes:
        self._sock.settimeout(min(
            (t for t in (remaining, self.timeout) if t is not None),
            default=None))
        try:
            return self._file.readline()
        except socket.timeout:
            raise TimeoutError("timed out waiting for reply") from None

    def _io_abort(self, _) -> None:
        self.close()

    _io_sleep = staticmethod(time.sleep)


def parse_endpoint(text: str) -> tuple[str, int]:
    """``HOST:PORT`` → tuple (the --server argument syntax)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ServerError(f"bad server endpoint {text!r} "
                          f"(expected HOST:PORT)", code="bad-request")
    try:
        return host, int(port)
    except ValueError:
        raise ServerError(f"bad server port in {text!r}",
                          code="bad-request") from None
