"""Process-level isolation between tests.

The CLI front-ends legitimately flip the process SIGPIPE disposition:
filter-style commands install ``SIG_DFL`` (``restore_sigpipe``, so
``likwid-topology | head`` dies quietly) while socket-hosting ones
install ``SIG_IGN`` (``ignore_sigpipe``, so a vanished peer surfaces
as ``BrokenPipeError``).  Inside one pytest process that disposition
would leak from a CLI test into every later socket test — a chaos
test writing into an aborted connection would then kill the whole
test run with a real SIGPIPE (observed: exit 141 at the first
server-plane test after ``tests/cli``).  Restore the interpreter's
startup default (ignored) after every test.

Server-plane tests must also leave no thread or file descriptor
behind: each one ends with no more live non-daemon threads and no
more open descriptors than it started with, or it fails.
"""

import os
import signal
import threading
import time

import pytest

#: Node-id prefixes of the tests under the leak guard.
_LEAK_GUARDED = ("tests/server/", "tests/cli/test_server_cli.py")

#: How long a test's threads and sockets get to finish closing.
_SETTLE_S = 1.0


@pytest.fixture(autouse=True)
def _isolate_sigpipe():
    yield
    try:
        signal.signal(signal.SIGPIPE, signal.SIG_IGN)
    except (AttributeError, ValueError):
        pass  # non-Unix platform or non-main thread


def _live_threads() -> set:
    return {t for t in threading.enumerate()
            if not t.daemon and t is not threading.main_thread()}


def _open_fds() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None     # the platform does not list descriptors


def _leaks(threads: set, fds: int | None) -> list[str]:
    leaks = [f"thread {t.name!r}" for t in _live_threads() - threads]
    now = _open_fds()
    if fds is not None and now is not None and now > fds:
        leaks.append(f"{now - fds} file descriptor(s)")
    return leaks


@pytest.fixture(autouse=True)
def _no_leaked_threads_or_fds(request):
    if not request.node.nodeid.startswith(_LEAK_GUARDED):
        yield
        return
    threads, fds = _live_threads(), _open_fds()
    yield
    give_up = time.monotonic() + _SETTLE_S
    while leaks := _leaks(threads, fds):
        if time.monotonic() > give_up:
            pytest.fail("test leaked " + ", ".join(leaks))
        time.sleep(0.01)
