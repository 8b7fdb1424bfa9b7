"""Drive either client transport from the same async test body.

``make_client("async", ...)`` is a plain :class:`ServerClient`.
``make_client("sync", ...)`` is a :class:`SyncServerClient` whose
blocking methods run in ``asyncio.to_thread``, so a test awaits them
exactly like the async client's while the event loop keeps serving
the in-process server.  Plain attributes (``retries``, ``chaos``)
read straight through.
"""

import asyncio

from repro.server.client import ServerClient, SyncServerClient

TRANSPORTS = ("async", "sync")

_BLOCKING = frozenset({"connect", "close", "call", "ping", "status",
                       "submit", "wait", "cancel"})


class InThread:
    """A :class:`SyncServerClient` with awaitable blocking methods."""

    def __init__(self, client: SyncServerClient):
        self.client = client

    def __getattr__(self, name):
        attr = getattr(self.client, name)
        if name not in _BLOCKING:
            return attr

        async def in_thread(*args, **kwargs):
            return await asyncio.to_thread(attr, *args, **kwargs)
        return in_thread


def make_client(transport: str, host: str, port: int, **kwargs):
    if transport == "async":
        return ServerClient(host, port, **kwargs)
    return InThread(SyncServerClient(host, port, **kwargs))
