"""Client-side robustness: close semantics, retry loop, deadlines.

Includes the regression tests for the two ``close()`` satellite
fixes: the async client must ``await writer.wait_closed()`` (dropping
the reference loses buffered data and leaks the transport until GC),
and the sync client must not leak its socket when the buffered file
wrapper's ``close()`` raises mid-flush.
"""

import asyncio
import gc
import os
import random
import socket
import warnings

import pytest

from repro.agent.fleet import NodeSpec
from repro.errors import ServerError
from repro.server.client import ServerClient, SyncServerClient
from repro.server.protocol import ProtocolServer
from repro.server.retry import (NO_RETRY, RetryPolicy, retryable,
                                TRANSPORT_ERRORS)
from repro.server.scheduler import SessionRequest
from repro.server.server import ReproServer


def _specs():
    return [NodeSpec(name="node000", arch="westmere_ep", seed=0)]


def with_stack(coro_factory):
    async def runner():
        server = ReproServer.from_specs(_specs(), lease_limit=10.0)
        proto = ProtocolServer(server)
        host, port = await proto.start()
        try:
            return await coro_factory(proto, host, port)
        finally:
            await proto.close()
    return asyncio.run(runner())


async def _mute(reader, writer):
    """A server that reads one request and never answers; it hangs up
    only when the client does."""
    try:
        await reader.readline()
        await reader.read()
    finally:
        writer.close()


def _exploding_writer_close():
    async def body(proto, host, port):
        client = ServerClient(host, port)
        await client.connect()
        real = client._writer

        class Exploding:
            def close(self):
                raise ConnectionResetError("already gone")

            async def wait_closed(self):
                raise AssertionError("unreachable")
        client._writer = Exploding()
        try:
            await client.close()            # must not raise
            assert client._writer is None
        finally:
            # The swapped-out writer is this test's to close.
            real.close()
            await real.wait_closed()
    with_stack(body)


def _deadline_not_retried():
    async def body():
        server = await asyncio.start_server(_mute, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()
        client = ServerClient(
            host, port, deadline=0.2,
            retry=RetryPolicy(max_attempts=50,
                              backoff_base=0.0001,
                              backoff_cap=0.001))
        try:
            with pytest.raises(ServerError) as exc:
                await client.ping()
            assert exc.value.code == "deadline-exceeded"
            # The budget bounds the whole call: a handful of
            # attempts at most, never the full 50.
            assert client.retries < 50
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
    asyncio.run(body())


class TestAsyncClose:
    def test_close_waits_for_transport(self):
        """Regression: close() must call wait_closed(), not just drop
        the writer."""
        closed = {"waited": False}

        async def body(proto, host, port):
            client = ServerClient(host, port)
            await client.connect()
            writer = client._writer
            orig = writer.wait_closed

            async def spying_wait_closed():
                closed["waited"] = True
                await orig()
            writer.wait_closed = spying_wait_closed
            await client.close()
            assert client._writer is None and client._reader is None
        with_stack(body)
        assert closed["waited"]

    def test_close_is_idempotent_and_safe_unconnected(self):
        async def body(proto, host, port):
            client = ServerClient(host, port)
            await client.close()            # never connected
            await client.connect()
            await client.close()
            await client.close()            # double close
        with_stack(body)

    def test_close_absorbs_transport_errors(self):
        _exploding_writer_close()


class TestSyncClose:
    def test_close_survives_failing_file_flush(self):
        """Regression: a failing buffered flush in file.close() must
        never leak the socket."""
        async def body(proto, host, port):
            def check():
                client = SyncServerClient(host, port)
                client.connect()
                sock = client._sock

                class ExplodingFile:
                    def close(self):
                        raise OSError("flush failed")
                client._file = ExplodingFile()
                client.close()              # must not raise
                assert client._sock is None
                # The real socket was closed despite the file error.
                assert sock.fileno() == -1
            await asyncio.to_thread(check)
        with_stack(body)

    def test_close_idempotent(self):
        client = SyncServerClient("127.0.0.1", 1)    # never connected
        client.close()
        client.close()


class _FlakyServer:
    """A raw TCP server that kills the first N connections before
    replying, then behaves."""

    def __init__(self, failures: int,
                 reply: bytes = b'{"ok": true, "pong": 1}\n'):
        self.failures = failures
        self.reply = reply
        self.connections = 0
        self._server = None

    async def handle(self, reader, writer):
        self.connections += 1
        await reader.readline()
        if self.connections <= self.failures:
            writer.transport.abort()
            return
        writer.write(self.reply)
        await writer.drain()
        writer.close()

    async def __aenter__(self):
        self._server = await asyncio.start_server(self.handle,
                                                  "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()


class TestRetryLoop:
    def test_retries_ride_out_transient_failures(self):
        async def body():
            flaky = _FlakyServer(failures=2)
            async with flaky as (host, port):
                client = ServerClient(
                    host, port, retry=RetryPolicy(
                        max_attempts=5, backoff_base=0.0001,
                        backoff_cap=0.001))
                try:
                    reply = await client.call({"op": "ping"})
                    assert reply["ok"]
                    assert client.retries == 2
                finally:
                    await client.close()
        asyncio.run(body())

    def test_no_retry_policy_fails_fast(self):
        async def body():
            flaky = _FlakyServer(failures=1)
            async with flaky as (host, port):
                client = ServerClient(host, port, retry=NO_RETRY)
                try:
                    with pytest.raises(ServerError) as exc:
                        await client.call({"op": "ping"})
                    assert exc.value.code == "retries-exhausted"
                    assert flaky.connections == 1
                finally:
                    await client.close()
        asyncio.run(body())

    def test_exhaustion_has_stable_code(self):
        async def body():
            flaky = _FlakyServer(failures=99)
            async with flaky as (host, port):
                client = ServerClient(
                    host, port, retry=RetryPolicy(
                        max_attempts=3, backoff_base=0.0001,
                        backoff_cap=0.001))
                try:
                    with pytest.raises(ServerError) as exc:
                        await client.call({"op": "ping"})
                    assert exc.value.code == "retries-exhausted"
                    assert client.retries == 3
                finally:
                    await client.close()
        asyncio.run(body())

    def test_fatal_error_replies_are_not_retried(self):
        async def body(proto, host, port):
            client = ServerClient(host, port)
            try:
                # call() returns fatal error replies (they are
                # terminal); only the typed verbs raise.
                reply = await client.call({"op": "warp"})
                assert reply["ok"] is False
                assert reply["code"] == "unknown-op"
                assert reply["retryable"] is False
                assert client.retries == 0
            finally:
                await client.close()
        with_stack(body)

    def test_sync_client_retries_too(self):
        async def body():
            flaky = _FlakyServer(failures=2)
            async with flaky as (host, port):
                def check():
                    client = SyncServerClient(
                        host, port, retry=RetryPolicy(
                            max_attempts=5, backoff_base=0.0001,
                            backoff_cap=0.001))
                    try:
                        reply = client.call({"op": "ping"})
                        assert reply["ok"]
                        assert client.retries == 2
                    finally:
                        client.close()
                await asyncio.to_thread(check)
        asyncio.run(body())


class TestDeadlines:
    def test_call_deadline_on_silent_server(self):
        async def body():
            server = await asyncio.start_server(_mute, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()
            client = ServerClient(host, port)
            try:
                with pytest.raises(ServerError) as exc:
                    await client.call({"op": "ping"}, deadline=0.2)
                assert exc.value.code == "deadline-exceeded"
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
        asyncio.run(body())

    def test_deadline_exceeded_is_not_retried(self):
        _deadline_not_retried()

    def test_sync_deadline(self):
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        client = SyncServerClient(host, port, timeout=0.05)
        try:
            with pytest.raises(ServerError) as exc:
                client.call({"op": "ping"}, deadline=0.2)
            assert exc.value.code == "deadline-exceeded"
        finally:
            client.close()
            listener.close()


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=10, backoff_base=0.01,
                             backoff_cap=0.05, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(r, rng) for r in range(6)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.01)
        assert delays[-1] == pytest.approx(0.05)

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_cap=1.0,
                             jitter=0.5)
        a = [policy.delay(2, random.Random(7)) for _ in range(5)]
        b = [policy.delay(2, random.Random(7)) for _ in range(5)]
        assert a == b                       # same rng, same jitter
        for delay in a:
            assert 0.04 <= delay <= 0.04 * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_retryable_classification(self):
        assert retryable(ConnectionResetError("x"))
        assert retryable(TimeoutError("x"))
        assert retryable(EOFError("x"))
        assert retryable(ServerError("x", retryable=True))
        assert not retryable(ServerError("x", code="bad-request"))
        assert not retryable(ValueError("x"))
        for kind in TRANSPORT_ERRORS:
            assert issubclass(kind, Exception)


class TestErrorCodes:
    def test_stable_codes_via_client_surface(self):
        async def body(proto, host, port):
            client = ServerClient(host, port)
            try:
                # Raw call() returns fatal error replies verbatim —
                # the wire code is the contract.
                for doc, code in [
                        ({"op": "warp"}, "unknown-op"),
                        ({"op": "submit", "node": "node000",
                          "cpus": "zero"}, "bad-request"),
                        ({"op": "wait", "node": "ghost",
                          "session": 1}, "unknown-node"),
                        ({"op": "wait", "node": "node000",
                          "session": 99}, "unknown-session")]:
                    reply = await client.call(doc)
                    assert reply["ok"] is False
                    assert reply["code"] == code
                    assert reply["retryable"] is False
            finally:
                await client.close()
        with_stack(body)

    def test_verbs_raise_typed_errors(self):
        async def body(proto, host, port):
            client = ServerClient(host, port)
            try:
                with pytest.raises(ServerError) as exc:
                    await client.wait("ghost", 1)
                assert exc.value.code == "unknown-node"
                assert not exc.value.retryable
                with pytest.raises(ServerError) as exc:
                    await client.wait("node000", 99)
                assert exc.value.code == "unknown-session"
            finally:
                await client.close()
        with_stack(body)

    def test_invalid_requests_become_rejected_sessions(self):
        """Shape-valid but semantically impossible submissions are
        *admitted and rejected* — a terminal state, so the accounting
        stays exact — rather than surfaced as protocol errors."""
        async def body(proto, host, port):
            client = ServerClient(host, port)
            try:
                doc = await client.submit(SessionRequest(
                    node="node000", cpus=(9999,), group="FLOPS_DP"))
                assert doc["state"] == "rejected"
                assert "cpu set" in doc["reason"]
            finally:
                await client.close()
        with_stack(body)

    def test_draining_server_is_retryable(self):
        async def body(proto, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            proto._draining = True
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            import json
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["code"] == "shutting-down"
            assert reply["retryable"] is True
            writer.close()
            await writer.wait_closed()
        with_stack(body)


def _open_fds() -> int | None:
    """Open file descriptors of this process (None where the platform
    does not list them)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


class TestNoLeakedConnections:
    """Nothing may leak a socket, on either side of the connection."""

    @pytest.mark.parametrize("scenario", [_exploding_writer_close,
                                          _deadline_not_retried])
    def test_scenario_leaves_no_resource_warning(self, scenario):
        # A leaked transport may outlive the block (pytest's log
        # capture can hold a reference to it), so the open descriptors
        # are counted too.
        fds = _open_fds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            scenario()
            gc.collect()
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []
        if fds is not None:
            assert _open_fds() == fds

    def test_close_drops_a_client_that_gave_up_mid_request(self):
        """A client that sent half a request line and went silent
        still holds its socket; close() must hang up on it instead of
        leaving the server side open (on Python >= 3.12 the listener's
        wait_closed() would otherwise wait for that client forever)."""
        async def runner():
            server = ReproServer.from_specs(_specs(), lease_limit=10.0)
            proto = ProtocolServer(server)
            host, port = await proto.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"op": "pi')
                await writer.drain()
                while not proto._conns:
                    await asyncio.sleep(0.01)
                await asyncio.wait_for(proto.close(), timeout=5)
                assert proto._conns == set()
                assert await asyncio.wait_for(reader.read(), 5) == b""
            finally:
                writer.close()
                await writer.wait_closed()
        asyncio.run(runner())
