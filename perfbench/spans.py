"""The benchmark's span recorder: layer timing from outside ``src/``.

The recorder wraps the public functions and methods through which one
layer of ``repro`` calls into the next, records a span around every
call, and restores the originals afterwards.  Nothing inside ``src/``
is changed or asked to cooperate.

A wrapper is installed where the caller looks the name up: a method
is replaced on its class, and a module-level function is replaced in
its defining module *and* in every ``repro`` module that imported it
by name (``from repro.hw.arch import create_machine`` binds the
function object into the importing module, so patching the defining
module alone would miss that caller).

Spans are kept in memory as tuples and written out once, as
Chrome/Perfetto trace JSON, when the run ends.  Self time is computed
online with a stack: a span's self time is its duration minus the
time of the spans nested directly inside it.

Coroutine functions (the protocol dispatcher, the client round trip)
are timed per *step*: each resumption of the coroutine is a frame on
the stack, so time the coroutine spends suspended -- waiting on the
network or on another task -- is never counted as its own.  The whole
await is kept as a separate interval span, which is what the
round-trip decomposition uses.

The recorder is single-threaded: the workloads it traces run on one
thread (asyncio tasks interleave, but never run in parallel).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

clock = time.perf_counter

#: Spans stored for export per run (about 100 bytes each in memory).
KEEP_SPANS = 100_000


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``attr`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``key`` maps ``(args, result)`` of a call to a trace-id hint: a
    session id such as ``"node001/17"``, or ``"obj:<id>"`` for an
    object that :meth:`SpanRecorder.resolve_ids` later maps to one.
    Spans without a key inherit the id of their parent."""

    span: str
    module: str
    attr: str
    key: Callable | None = None


class _Frame:
    __slots__ = ("idx", "start", "child", "layer")

    def __init__(self, idx: int, start: float, layer: bool):
        self.idx = idx
        self.start = start
        self.child = 0.0
        self.layer = layer


class SpanRecorder:
    """In-memory span store with per-name aggregates.

    ``stats[name]`` is ``[calls, total_s, self_s]``.  ``covered`` is
    the wall time spent inside at least one layer span (benchmark
    spans, named ``bench.*``, do not count).  ``intervals[name]`` maps
    a trace id to the duration of each coroutine span that resolved
    one.  At most :data:`KEEP_SPANS` spans are stored for export;
    aggregates keep counting past that."""

    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.stats: dict[str, list] = {}
        self.intervals: dict[str, dict[str, float]] = {}
        self.covered = 0.0
        self._stack: list[_Frame] = []
        self._layer_depth = 0
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, object]] = []
        self._resolved = 0

    # -- recording -------------------------------------------------------------

    def _reserve(self) -> int:
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(None)
            return len(self.spans) - 1
        self.dropped += 1
        return -1

    def _push(self, layer: bool, idx: int | None = None) -> _Frame:
        if idx is None:
            idx = self._reserve()
        frame = _Frame(idx, clock(), layer)
        self._stack.append(frame)
        if layer:
            self._layer_depth += 1
        return frame

    def _pop(self, frame: _Frame, name: str, *, step: bool = False
             ) -> tuple[float, float, int]:
        end = clock()
        dur = end - frame.start
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        if frame.layer:
            self._layer_depth -= 1
            if self._layer_depth == 0:
                self.covered += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[2] += dur - frame.child
        if not step:
            st[0] += 1
            st[1] += dur
        return end, dur, parent.idx if parent is not None else -1

    def span(self, name: str, tid: str | None = None) -> "_SpanContext":
        """A span around a block of benchmark code (``bench.*`` names
        give the spans of one operation a shared id without counting
        as layer time)."""
        return _SpanContext(self, name, tid)

    def record(self, name: str, start: float, end: float,
               tid: str | None = None) -> None:
        """Store a top-level span the caller timed itself (for code
        that must run before the recorder is imported)."""
        dur = end - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur
        if not name.startswith("bench."):
            self.covered += dur
        self._store(self._reserve(), (name, start, end, -1, tid, "X"))

    def _store(self, idx: int, record: tuple) -> None:
        if idx >= 0:
            self.spans[idx] = record

    def call_sync(self, name: str, fn, key, args, kwargs):
        frame = self._push(not name.startswith("bench."))
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end, _dur, parent = self._pop(frame, name)
            tid = key(args, result) if key is not None else None
            self._store(frame.idx,
                        (name, frame.start, end, parent, tid, "X"))

    # -- installing wrappers ---------------------------------------------------

    def _wrap(self, target: Target, fn):
        rec, name, key = self, target.span, target.key
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                return await _Stepped(rec, name, key, args,
                                      fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return rec.call_sync(name, fn, key, args, kwargs)
        return wrapper

    def install(self, targets, *, only_loaded: bool = False) -> None:
        """Wrap every target.  ``only_loaded`` skips targets whose
        module is not imported yet (so installing costs the traced
        program no extra imports)."""
        for target in targets:
            if only_loaded and target.module not in sys.modules:
                continue
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(target, original)
                self._patch(owner, attr, original, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(target, original)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)
            self._wrappers.append((wrapper, original))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original, including bindings that modules
        imported after :meth:`install` took from a patched module."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        if self._wrappers:
            back = {id(w): o for w, o in self._wrappers}
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(mod).items()):
                    if id(value) in back:
                        setattr(mod, name, back[id(value)])
        self._wrappers.clear()

    # -- ids, aggregates, export -----------------------------------------------

    def resolve_ids(self, mapping: dict[str, str], prefix: str = "") -> None:
        """Give every span recorded since the last call its final
        trace id: ``prefix`` plus its own hint mapped through
        ``mapping``, else (no hint, or an unmapped object) its
        parent's id.  Call it while the objects behind ``obj:`` hints
        are still alive (ids are reused after garbage collection)."""
        spans = self.spans
        for i in range(self._resolved, len(spans)):
            rec = spans[i]
            if rec is None:
                continue
            hint, tid = rec[4], None
            if hint is not None:
                mapped = mapping.get(hint, hint)
                if not mapped.startswith("obj:"):
                    tid = prefix + mapped
            if tid is None and rec[3] >= 0 and spans[rec[3]] is not None:
                tid = spans[rec[3]][4]
            if tid != hint:
                spans[i] = rec[:4] + (tid,) + rec[5:]
        self._resolved = len(spans)

    def merge(self, other: dict) -> None:
        """Fold a child process' exported aggregates into this one."""
        for name, (calls, total, self_s) in other["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        self.covered += other["covered"]

    def export(self) -> dict:
        """Aggregates and spans as plain JSON-able data."""
        return {"stats": self.stats, "covered": self.covered,
                "spans": [s for s in self.spans if s is not None]}

    @staticmethod
    def chrome_events(spans, *, pid: int = 1, t0: float = 0.0) -> list:
        """Chrome/Perfetto ``traceEvents`` for exported spans:
        complete events for synchronous spans, async begin/end pairs
        for coroutine intervals (which overlap each other)."""
        events = []
        for i, (name, start, end, parent, tid, kind) in enumerate(spans):
            ts = (start - t0) * 1e6
            args = {"id": tid, "parent": parent}
            cat = name.rsplit(".", 1)[0]
            if kind == "X":
                events.append({"name": name, "cat": cat, "ph": "X",
                               "ts": ts, "dur": (end - start) * 1e6,
                               "pid": pid, "tid": 1, "args": args})
            else:
                common = {"name": name, "cat": cat, "id": f"{pid}.{i}",
                          "pid": pid, "tid": 2}
                events.append(dict(common, ph="b", ts=ts, args=args))
                events.append(dict(common, ph="e",
                                   ts=(end - t0) * 1e6))
        return events


def write_chrome_trace(path, events, metadata: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": metadata}, fh)


class _SpanContext:
    def __init__(self, rec: SpanRecorder, name: str, tid: str | None):
        self.rec, self.name, self.tid = rec, name, tid

    def __enter__(self):
        self.frame = self.rec._push(not self.name.startswith("bench."))
        return self

    def __exit__(self, *exc):
        end, _dur, parent = self.rec._pop(self.frame, self.name)
        self.rec._store(self.frame.idx, (self.name, self.frame.start, end,
                                         parent, self.tid, "X"))


class _Stepped:
    """Awaitable that drives a coroutine one step at a time, timing
    each step as a frame on the recorder's stack."""

    __slots__ = ("rec", "name", "key", "args", "coro")

    def __init__(self, rec, name, key, args, coro):
        self.rec, self.name, self.key = rec, name, key
        self.args, self.coro = args, coro

    def __await__(self):
        rec, name = self.rec, self.name
        idx = rec._reserve()
        parent = rec._stack[-1].idx if rec._stack else -1
        start = clock()
        it = self.coro.__await__()
        value, exc, result = None, None, None
        try:
            while True:
                frame = rec._push(True, idx)
                try:
                    out = it.send(value) if exc is None else it.throw(exc)
                except StopIteration as stop:
                    result = stop.value
                    return result
                finally:
                    rec._pop(frame, name, step=True)
                try:
                    value, exc = (yield out), None
                except GeneratorExit:
                    it.close()
                    raise
                except BaseException as err:
                    value, exc = None, err
        finally:
            end = clock()
            st = rec.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += end - start
            tid = self.key(self.args, result) if self.key else None
            if tid is not None:
                rec.intervals.setdefault(name, {})[tid] = end - start
            rec._store(idx, (name, start, end, parent, tid, "async"))
