"""Seeded network fault injection for the server plane.

PR 3 gave the msr *device* plane a deterministic :class:`~repro.oskern
.msr_driver.FaultPlan`; this module is the same philosophy applied to
the *network* plane: a :class:`ChaosPlan` is a seeded, deterministic
schedule of transport faults that the clients arm per connection
stream — connection refusals, mid-request and mid-reply disconnects,
torn JSON lines, duplicated deliveries, and injected latency.

All randomness comes from one ``random.Random`` stream per armed
endpoint, seeded by ``(plan seed, stream id)``, so a given client
against a given call sequence always injects the same faults — the
chaos CI job is exactly reproducible per client even though the
cross-client interleaving is scheduled by the event loop.

The faults are injected *client-side*, at the stream/socket-file
seam, which is where real network weather is observed: the server
never cooperates, so everything it survives (dedup, WAL recovery,
error replies) it survives against a genuinely oblivious peer.

Fault kinds (all independent, all optional; rates are per decision):

* ``refuse_rate`` — a ``connect()`` is refused outright.
* ``drop_request_rate`` — the connection tears mid-request: only a
  prefix of the JSON line reaches the server, then the stream dies.
* ``drop_reply_rate`` — the request is delivered and processed, but
  the connection dies before the reply is read.  This is the fault
  that *requires* idempotency keys: the client must retry an
  operation the server already executed.
* ``torn_reply_rate`` — the reply line arrives truncated mid-JSON.
* ``duplicate_rate`` — the request line is delivered twice (a
  retransmission storm); the server must deduplicate.
* ``delay_rate`` / ``delay_s`` — the request is delayed by
  ``delay_s`` real seconds before sending.

CLI syntax mirrors ``FaultPlan.from_string``::

    seed=3,refuse=0.05,drop_request=0.05,drop_reply=0.05,
    torn_reply=0.05,duplicate=0.1
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro import trace as _trace
from repro.oskern.msr_driver import parse_plan_spec

#: Short CLI aliases -> canonical field names.
_ALIASES = {
    "refuse": "refuse_rate",
    "drop_request": "drop_request_rate",
    "drop_reply": "drop_reply_rate",
    "torn_reply": "torn_reply_rate",
    "duplicate": "duplicate_rate",
    "delay": "delay_rate",
}

_RATE_FIELDS = ("refuse_rate", "drop_request_rate", "drop_reply_rate",
                "torn_reply_rate", "duplicate_rate", "delay_rate")

#: ``from_string`` converters per field.
_FIELDS = {**dict.fromkeys(_RATE_FIELDS + ("delay_s",), float),
           "seed": partial(int, base=0)}


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic, seedable schedule of network faults."""

    seed: int = 0
    refuse_rate: float = 0.0
    drop_request_rate: float = 0.0
    drop_reply_rate: float = 0.0
    torn_reply_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.0005

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1], got {rate}")
        if self.delay_s < 0.0:
            raise ValueError(
                f"delay_s must be >= 0, got {self.delay_s}")

    @property
    def active(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @classmethod
    def from_string(cls, text: str) -> "ChaosPlan":
        """Parse the CLI syntax: comma-separated ``key=value`` pairs.

        Keys are the field names or their short aliases (``refuse``,
        ``drop_request``, ``drop_reply``, ``torn_reply``,
        ``duplicate``, ``delay``); a repeated key is rejected rather
        than silently keeping the last value; empty segments are
        tolerated (trailing commas from shell composition)."""
        return cls(**parse_plan_spec(text, "chaos", _FIELDS,
                                     aliases=_ALIASES))

    def arm(self, stream_id: str) -> "ChaosState":
        """Arm the plan for one connection stream; the rng is keyed
        by ``(seed, stream_id)`` so every client draws an independent
        but reproducible fault sequence."""
        return ChaosState(self, random.Random(f"{self.seed}:{stream_id}"))


#: Request fates (one decision per request send).
DELIVER = "deliver"
TORN_REQUEST = "torn_request"
DUPLICATE = "duplicate"
#: Reply fates (one decision per reply read).
DROP_REPLY = "drop_reply"
TORN_REPLY = "torn_reply"


class ChaosState:
    """Mutable per-stream state of an armed :class:`ChaosPlan`.

    Every injection is counted locally (``injected``) and into the
    shared trace registry (``server.chaos.<kind>``) — always-on, like
    the msr fault counters, so chaos accounting reconciles even with
    tracing disabled."""

    def __init__(self, plan: ChaosPlan, rng: random.Random):
        self.plan = plan
        self.rng = rng
        self.injected: dict[str, int] = {}

    def _inject(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        _trace.incr(f"server.chaos.{kind}")

    def refuse_connect(self) -> bool:
        if self.plan.refuse_rate > 0.0 \
                and self.rng.random() < self.plan.refuse_rate:
            self._inject("refused")
            return True
        return False

    def request_fate(self) -> str:
        plan = self.plan
        if plan.drop_request_rate > 0.0 \
                and self.rng.random() < plan.drop_request_rate:
            self._inject("torn_request")
            return TORN_REQUEST
        if plan.duplicate_rate > 0.0 \
                and self.rng.random() < plan.duplicate_rate:
            self._inject("duplicated")
            return DUPLICATE
        return DELIVER

    def reply_fate(self) -> str:
        plan = self.plan
        if plan.drop_reply_rate > 0.0 \
                and self.rng.random() < plan.drop_reply_rate:
            self._inject("dropped_reply")
            return DROP_REPLY
        if plan.torn_reply_rate > 0.0 \
                and self.rng.random() < plan.torn_reply_rate:
            self._inject("torn_reply")
            return TORN_REPLY
        return DELIVER

    def delay(self) -> float:
        """Seconds of injected latency before this send (0.0 = none)."""
        plan = self.plan
        if plan.delay_rate > 0.0 \
                and self.rng.random() < plan.delay_rate:
            self._inject("delayed")
            return plan.delay_s
        return 0.0

    def tear(self, data: bytes) -> bytes:
        """A strict prefix of *data* — what survives a torn delivery.

        Always at least one byte short of complete (a torn line never
        carries its newline) and deterministic under the stream rng."""
        if len(data) <= 1:
            return b""
        return data[:self.rng.randrange(1, len(data))]
