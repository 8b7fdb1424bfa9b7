"""Retry classification and default policy for the server clients.

The clients back off under the msr plane's
:class:`~repro.core.perfctr.counters.RetryPolicy` with seeded jitter:
each draws from one ``random.Random`` keyed by its client id, so a
retry storm across many clients decorrelates (no thundering herd
against a restarting server) while any single client's schedule is
exactly reproducible — the chaos acceptance runs depend on that.
"""

from __future__ import annotations

from repro.core.perfctr.counters import RetryPolicy
from repro.errors import ServerError

__all__ = ["CLIENT_RETRIES", "NO_RETRY", "RetryPolicy",
           "TRANSPORT_ERRORS", "retryable"]

#: Exceptions that always indicate a transport-level failure the
#: client may retry against a fresh connection.  ``TimeoutError``
#: covers both socket timeouts and ``asyncio.wait_for`` expiry on a
#: single attempt (the per-*call* deadline is enforced separately).
TRANSPORT_ERRORS = (ConnectionError, OSError, EOFError, TimeoutError)


def retryable(exc: BaseException) -> bool:
    """Whether repeating the request against a (re)connected server
    can plausibly succeed.

    * :class:`ServerError` carries its own ``retryable`` flag — the
      server decided (``shutting-down`` yes, ``unknown-node`` no).
    * Transport errors (reset, refused, EOF, timeout) are always
      retryable: the reply was simply never observed.
    """
    if isinstance(exc, ServerError):
        return exc.retryable
    return isinstance(exc, TRANSPORT_ERRORS)


#: The clients' default: one initial attempt plus up to five retries,
#: backoff scaled to loopback latencies, 50% seeded jitter.
CLIENT_RETRIES = RetryPolicy(max_attempts=6, backoff_base=0.0005,
                             backoff_cap=0.05, jitter=0.5)

#: Retries disabled: a single attempt, no backoff.  Used by the
#: retry-overhead benchmark's raw path and available to callers that
#: want fail-fast behaviour.
NO_RETRY = RetryPolicy(max_attempts=1)
