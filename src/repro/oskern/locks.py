"""Uncore socket locks with owner liveness (paper §II.A, §III.C).

Uncore counters are socket-scope, so likwid-perfctr elects one thread
per socket — the *socket lock owner* — to program and read them.  The
original tool implements the lock as shared state that survives the
process; the consequence it long struggled with is a crashed run
leaving sockets locked for every subsequent measurement.

:class:`SocketLockTable` models the shared lock state with enough
metadata to fix that: each lock stores its **owner pid** and the
**session epoch** that acquired it.  Acquisition against a *live*
owner fails (:class:`~repro.errors.SocketLockError`, which the
perfctr runtime degrades to per-event NaN); acquisition against a
*dead* owner reclaims the stale lock in place instead of failing —
the ``recover.stale_locks_reclaimed`` metric counts every steal.
Release compares pid **and** epoch, so a session that lost its lock
to a reclaim cannot clobber the new owner's entry
(``recover.lock_conflict``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SocketLockError
from repro.oskern.proc import SimProcessTable


@dataclass(frozen=True)
class SocketLock:
    """One held lock: which socket, who owns it, since which epoch."""

    socket: int
    owner_pid: int
    epoch: int
    cpu: int = -1     # the owning hardware thread (informational)


class SocketLockTable:
    """Shared socket-lock state for one machine's uncore PMUs."""

    def __init__(self, procs: SimProcessTable):
        self.procs = procs
        self._locks: dict[int, SocketLock] = {}

    def holder(self, socket: int) -> SocketLock | None:
        return self._locks.get(socket)

    def held(self) -> dict[int, SocketLock]:
        """All currently held locks, by socket."""
        return dict(self._locks)

    def acquire(self, socket: int, cpu: int, pid: int,
                epoch: int) -> bool:
        """Take the lock for (pid, epoch).

        Returns ``True`` on a plain acquisition, ``False`` when a
        stale lock (dead owner) was reclaimed along the way.  Raises
        :class:`SocketLockError` when a *live* owner holds it."""
        current = self._locks.get(socket)
        stale = False
        if current is not None:
            if current.owner_pid == pid and current.epoch == epoch:
                return True          # re-entrant within one session
            if self.procs.alive(current.owner_pid):
                raise SocketLockError(
                    f"socket {socket} uncore lock held by live "
                    f"pid {current.owner_pid} (epoch {current.epoch})",
                    socket=socket, owner_pid=current.owner_pid)
            stale = True             # dead owner: reclaim in place
        self._locks[socket] = SocketLock(socket, pid, epoch, cpu)
        return not stale

    def release(self, socket: int, pid: int, epoch: int) -> bool:
        """Drop the lock if (pid, epoch) still owns it.

        Returns ``False`` — without touching the entry — when the
        lock is gone or owned by someone else (it was reclaimed or
        re-acquired mid-session); the caller records the conflict."""
        current = self._locks.get(socket)
        if current is None or current.owner_pid != pid \
                or current.epoch != epoch:
            return False
        del self._locks[socket]
        return True

    def force_release(self, socket: int) -> SocketLock | None:
        """Unconditional removal (recovery engine only)."""
        return self._locks.pop(socket, None)

    def acquire_waitable(self, socket: int, cpu: int, pid: int,
                         epoch: int, *, queue: "FairWaitQueue",
                         tenant: str = "", now: float = 0.0,
                         deadline: float | None = None,
                         payload: object = None) -> "LockWaiter | None":
        """Waitable single-socket acquisition (ISSUE 9).

        Where :meth:`acquire` raises :class:`SocketLockError` against
        a live owner, this enqueues the request on *queue* instead and
        returns the :class:`LockWaiter` ticket; the caller grants it
        later via :meth:`FairWaitQueue.grant_next` once the holder
        releases.  Returns ``None`` when the lock was taken
        immediately (including the stale-reclaim path)."""
        try:
            self.acquire(socket, cpu, pid, epoch)
        except SocketLockError:
            return queue.enqueue((socket,), tenant=tenant, now=now,
                                 deadline=deadline, payload=payload)
        return None


# -- waitable acquisition (ISSUE 9) -------------------------------------------

@dataclass
class LockWaiter:
    """One queued multi-socket lock request.

    ``sockets`` must all be free before the request is grantable (the
    grant is atomic — no partial acquisition, so two half-granted
    requests cannot deadlock each other).  ``seq`` is the queue-wide
    arrival number; ``enqueued_at`` and ``deadline`` are in the
    caller's clock domain (the server scheduler uses virtual node
    seconds, so waits are deterministic and replayable)."""

    sockets: tuple[int, ...]
    tenant: str = ""
    seq: int = 0
    enqueued_at: float = 0.0
    deadline: float | None = None      # max wait before expiry
    payload: object = None             # opaque caller state

    def expired(self, now: float) -> bool:
        return self.deadline is not None \
            and (now - self.enqueued_at) > self.deadline


@dataclass
class FairWaitQueue:
    """Deficit-fair, aging-aware wait queue for socket locks.

    The pick order is deficit round-robin across tenants: among the
    queued requests, the one whose tenant has consumed the least lock
    service (``charge``d virtual hold time) wins, ties broken FIFO by
    arrival ``seq``.  A backlogged light tenant therefore cannot be
    starved by a heavy one — shares equalize while both have work.

    Aging prevents head-of-line starvation of multi-socket requests:
    a request that has waited longer than ``age_limit`` *reserves* its
    sockets, blocking younger requests from overtaking it on any of
    them (the classic bounded-bypass rule).
    """

    age_limit: float | None = None
    _waiting: list[LockWaiter] = field(default_factory=list)
    _service: dict[str, float] = field(default_factory=dict)
    _seq: int = 0

    def __len__(self) -> int:
        return len(self._waiting)

    def waiting(self) -> list[LockWaiter]:
        return list(self._waiting)

    def service(self, tenant: str) -> float:
        """Accumulated lock service charged against a tenant."""
        return self._service.get(tenant, 0.0)

    def enqueue(self, sockets: tuple[int, ...], *, tenant: str = "",
                now: float = 0.0, deadline: float | None = None,
                payload: object = None) -> LockWaiter:
        self._seq += 1
        waiter = LockWaiter(tuple(sockets), tenant=tenant, seq=self._seq,
                            enqueued_at=now, deadline=deadline,
                            payload=payload)
        self._waiting.append(waiter)
        return waiter

    def cancel(self, waiter: LockWaiter) -> bool:
        """Remove a queued request (client cancellation); returns
        False when it was already granted or expired away."""
        try:
            self._waiting.remove(waiter)
        except ValueError:
            return False
        return True

    def charge(self, tenant: str, amount: float) -> None:
        """Account *amount* of lock hold time to a tenant (the
        deficit counter the fairness pick orders by)."""
        self._service[tenant] = self._service.get(tenant, 0.0) + amount

    def expire(self, now: float) -> list[LockWaiter]:
        """Remove and return every waiter whose deadline has passed
        (deadline timeouts fire while queued — the caller reports
        them as timed-out sessions)."""
        expired = [w for w in self._waiting if w.expired(now)]
        if expired:
            self._waiting = [w for w in self._waiting
                             if not w.expired(now)]
        return expired

    def _pick_order(self) -> list[LockWaiter]:
        return sorted(self._waiting,
                      key=lambda w: (self._service.get(w.tenant, 0.0),
                                     w.seq))

    def grant_next(self, busy: set[int],
                   now: float = 0.0) -> LockWaiter | None:
        """The next grantable request, removed from the queue, or
        None.  Walks the fairness order; a request whose sockets are
        busy is skipped (work conservation) unless it has aged past
        ``age_limit``, in which case its sockets are reserved against
        every younger request behind it."""
        reserved: set[int] = set()
        for waiter in self._pick_order():
            wanted = set(waiter.sockets)
            if not (wanted & busy) and not (wanted & reserved):
                self._waiting.remove(waiter)
                return waiter
            if self.age_limit is not None \
                    and (now - waiter.enqueued_at) >= self.age_limit:
                reserved |= wanted
        return None
