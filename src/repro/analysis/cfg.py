"""Intraprocedural control-flow graphs over Python AST (LK6xx base).

The protocol analyzer (:mod:`repro.analysis.protocol`) needs to ask
*path* questions the flat AST walks of LK1xx–LK5xx cannot answer:
"is this session stopped on **every** path out of the function,
including the one where the workload raised?", "is this device write
**dominated** by a journal append?".  This module builds the graph
those questions are asked on.

Design (sized to the checks, not to a general-purpose compiler):

* **One statement per basic block.**  Functions in this codebase are
  small (tens of statements), so the simplicity of ``in-state ==
  per-statement state`` beats the constant-factor win of maximal
  blocks.
* **Condition-labelled edges.**  An ``if``/``while`` test node emits
  ``(test, True)`` / ``(test, False)`` edges so a dataflow client can
  refine facts from the branch condition (LK603 uses this for
  ``journal is None`` guards).
* **Exception edges carry the *pre*-state.**  Every statement that
  contains a call, attribute access or subscript may raise; it gets
  an edge to the innermost handler (or the synthetic exceptional
  exit).  The dataflow engine propagates the statement's *in* state
  along that edge — if ``msr = driver.open(cpu)`` raises, ``msr``
  was never bound.
* **``finally`` bodies are inlined per continuation.**  A ``finally``
  runs on the normal, exceptional, ``return``, ``break`` and
  ``continue`` ways out of its ``try``; each distinct continuation
  gets its own copy of the finally sub-graph (cached per
  continuation, so nesting stays linear in practice).  ``with`` is
  desugared to ``try/finally`` around a synthetic
  :data:`WITH_ENTER`/:data:`WITH_EXIT` pair — exactly the property
  LK601 leans on: a context-managed session cannot leak.
* **Two exits.**  ``exit`` (returns and fall-off) and ``exc_exit``
  (uncaught exceptions) are separate synthetic nodes, so "leaks only
  on the exception path" is visible in the report.

The graph is deliberately *intra*procedural: called functions are
opaque (any call may raise, no call releases your resources for you
— LK604's cross-function story is handled by per-function summaries,
not by inlining).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

# Node kinds.
ENTRY = "entry"
EXIT = "exit"              # normal: returns and falling off the end
EXC_EXIT = "exc_exit"      # exceptional: uncaught raise
STMT = "stmt"
TEST = "test"              # if/while condition (branch edges)
LOOP_ITER = "loop_iter"    # for-loop header (iter/exhausted edges)
JOIN = "join"              # synthetic pass-through
HANDLER = "handler"        # except-clause entry (binds the alias)
WITH_ENTER = "with_enter"  # synthetic __enter__ of one with-item
WITH_EXIT = "with_exit"    # synthetic __exit__ of one with-item

#: Edge labels.  ``None`` is plain fall-through; ``("cond", test,
#: value)`` leaves a TEST node; ``("iter", bool)`` leaves a LOOP_ITER
#: node (True = another element); ``("exc",)`` is an exception edge
#: and carries the source statement's *in* state.
EXC = ("exc",)


@dataclass
class Node:
    """One CFG node; ``stmt`` is the underlying AST node (``None``
    for synthetic nodes), ``payload`` the :class:`ast.withitem` of a
    WITH_ENTER/WITH_EXIT pair."""

    nid: int
    kind: str
    stmt: ast.AST | None = None
    payload: ast.withitem | None = None

    @property
    def lineno(self) -> int | None:
        if self.stmt is not None and hasattr(self.stmt, "lineno"):
            return self.stmt.lineno
        if self.payload is not None:
            return self.payload.context_expr.lineno
        return None


@dataclass
class CFG:
    """The control-flow graph of one function (or lambda)."""

    name: str
    lineno: int
    nodes: dict[int, Node] = field(default_factory=dict)
    succs: dict[int, list[tuple[int, tuple | None]]] = \
        field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    exc_exit: int = 2

    def real_nodes(self) -> list[Node]:
        """Statement-bearing nodes in id (≈ source) order."""
        return [n for n in sorted(self.nodes.values(), key=lambda n: n.nid)
                if n.kind not in (ENTRY, EXIT, EXC_EXIT, JOIN)]


def may_raise(stmt: ast.AST) -> bool:
    """Conservative: anything that calls, dereferences or subscripts
    can raise.  Plain assignments of constants cannot."""
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Call, ast.Attribute, ast.Subscript,
                             ast.Raise, ast.Assert, ast.BinOp)):
            return True
    return False


class _Frame:
    """One enclosing construct that bends control flow."""

    __slots__ = ("kind", "header", "after", "dispatch", "finalbody",
                 "with_item", "cache")

    def __init__(self, kind: str, *, header: int | None = None,
                 after: int | None = None, dispatch: int | None = None,
                 finalbody: list | None = None,
                 with_item: ast.withitem | None = None):
        self.kind = kind            # "loop" | "except" | "finally"
        self.header = header        # loop: continue target
        self.after = after          # loop: break target
        self.dispatch = dispatch    # except: exception entry
        self.finalbody = finalbody  # finally: the stmts to inline
        self.with_item = with_item  # finally standing in for __exit__
        self.cache: dict = {}       # finally: continuation -> entry nid


class _Builder:
    def __init__(self, name: str, lineno: int):
        self.cfg = CFG(name=name, lineno=lineno)
        for nid, kind in ((0, ENTRY), (1, EXIT), (2, EXC_EXIT)):
            self.cfg.nodes[nid] = Node(nid, kind)
            self.cfg.succs[nid] = []
        self._next = 3
        self.frames: list[_Frame] = []
        # Dangling (src, label) pairs waiting for their successor.
        self._current: list[tuple[int, tuple | None]] = [(0, None)]

    # -- plumbing ----------------------------------------------------------

    def _new(self, kind: str, stmt: ast.AST | None = None,
             payload: ast.withitem | None = None) -> int:
        nid = self._next
        self._next += 1
        self.cfg.nodes[nid] = Node(nid, kind, stmt, payload)
        self.cfg.succs[nid] = []
        return nid

    def _edge(self, src: int, dst: int, label: tuple | None = None) -> None:
        self.cfg.succs[src].append((dst, label))

    def _attach(self, nid: int) -> None:
        """Point every dangling edge at *nid* and make it current."""
        for src, label in self._current:
            self._edge(src, nid, label)
        self._current = [(nid, None)]

    def _reachable(self) -> bool:
        return bool(self._current)

    # -- continuation routing (finally inlining) ---------------------------

    def _route(self, kind: str, depth: int) -> int:
        """Where control of *kind* ('exc'/'return'/'break'/'continue'/
        'normal') goes from inside ``frames[:depth]``, inlining every
        ``finally`` body crossed on the way out."""
        for i in range(depth - 1, -1, -1):
            fr = self.frames[i]
            if fr.kind == "finally":
                cont = self._route(kind, i)
                return self._finally_copy(fr, i, cont)
            if kind == "exc" and fr.kind == "except":
                return fr.dispatch
            if kind == "break" and fr.kind == "loop":
                return fr.after
            if kind == "continue" and fr.kind == "loop":
                return fr.header
        if kind == "exc":
            return self.cfg.exc_exit
        return self.cfg.exit

    def _finally_copy(self, fr: _Frame, depth: int, cont: int) -> int:
        """A copy of ``fr``'s finally body whose normal exit is
        *cont*; exceptions inside it route outward from ``fr``."""
        if cont in fr.cache:
            return fr.cache[cont]
        if fr.with_item is not None:
            # The finally stands in for __exit__: one synthetic node.
            entry = self._new(WITH_EXIT, None, fr.with_item)
            fr.cache[cont] = entry
            self._edge(entry, cont, None)
            return entry
        entry = self._new(JOIN)
        fr.cache[cont] = entry
        saved_frames, saved_current = self.frames, self._current
        self.frames = self.frames[:depth]
        self._current = [(entry, None)]
        try:
            for stmt in fr.finalbody:
                self._stmt(stmt)
                if not self._reachable():
                    break
            for src, label in self._current:
                self._edge(src, cont, label)
        finally:
            self.frames, self._current = saved_frames, saved_current
        return entry

    def _exc_edge(self, nid: int) -> None:
        self._edge(nid, self._route("exc", len(self.frames)), EXC)

    def _terminate(self, kind: str) -> None:
        target = self._route(kind, len(self.frames))
        for src, label in self._current:
            self._edge(src, target, label)
        self._current = []

    # -- statement dispatch -------------------------------------------------

    def build(self, body: list[ast.stmt]) -> CFG:
        for stmt in body:
            self._stmt(stmt)
            if not self._reachable():
                break
        if self._reachable():
            self._terminate("normal")
        return self.cfg

    def _stmt(self, stmt: ast.stmt) -> None:
        handler = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if handler is not None:
            handler(stmt)
            return
        nid = self._new(STMT, stmt)
        self._attach(nid)
        if may_raise(stmt):
            self._exc_edge(nid)

    def _stmt_Return(self, stmt: ast.Return) -> None:
        nid = self._new(STMT, stmt)
        self._attach(nid)
        if stmt.value is not None and may_raise(stmt):
            self._exc_edge(nid)
        self._terminate("return")

    def _stmt_Raise(self, stmt: ast.Raise) -> None:
        nid = self._new(STMT, stmt)
        self._attach(nid)
        self._current = [(nid, None)]
        self._terminate("exc")

    def _stmt_Break(self, stmt: ast.Break) -> None:
        nid = self._new(STMT, stmt)
        self._attach(nid)
        self._terminate("break")

    def _stmt_Continue(self, stmt: ast.Continue) -> None:
        nid = self._new(STMT, stmt)
        self._attach(nid)
        self._terminate("continue")

    def _stmt_If(self, stmt: ast.If) -> None:
        test = self._new(TEST, stmt.test)
        self._attach(test)
        if may_raise(stmt.test):
            self._exc_edge(test)
        exits: list[tuple[int, tuple | None]] = []
        for value, body in ((True, stmt.body), (False, stmt.orelse)):
            self._current = [(test, ("cond", stmt.test, value))]
            for s in body:
                self._stmt(s)
                if not self._reachable():
                    break
            exits.extend(self._current)
        self._current = exits

    def _stmt_While(self, stmt: ast.While) -> None:
        header = self._new(TEST, stmt.test)
        after = self._new(JOIN)
        self._attach(header)
        if may_raise(stmt.test):
            self._exc_edge(header)
        self.frames.append(_Frame("loop", header=header, after=after))
        self._current = [(header, ("cond", stmt.test, True))]
        try:
            for s in stmt.body:
                self._stmt(s)
                if not self._reachable():
                    break
            for src, label in self._current:     # back edge
                self._edge(src, header, label)
        finally:
            self.frames.pop()
        self._current = [(header, ("cond", stmt.test, False))]
        for s in stmt.orelse:
            self._stmt(s)
            if not self._reachable():
                break
        for src, label in self._current:
            self._edge(src, after, label)
        self._current = [(after, None)]

    def _stmt_For(self, stmt: ast.For) -> None:
        header = self._new(LOOP_ITER, stmt)
        after = self._new(JOIN)
        self._attach(header)
        self._exc_edge(header)                   # the iterator may raise
        self.frames.append(_Frame("loop", header=header, after=after))
        self._current = [(header, ("iter", True))]
        try:
            for s in stmt.body:
                self._stmt(s)
                if not self._reachable():
                    break
            for src, label in self._current:     # back edge
                self._edge(src, header, label)
        finally:
            self.frames.pop()
        self._current = [(header, ("iter", False))]
        for s in stmt.orelse:
            self._stmt(s)
            if not self._reachable():
                break
        for src, label in self._current:
            self._edge(src, after, label)
        self._current = [(after, None)]

    _stmt_AsyncFor = _stmt_For

    def _stmt_Try(self, stmt: ast.Try) -> None:
        if stmt.finalbody:
            fin = _Frame("finally", finalbody=stmt.finalbody)
            self.frames.append(fin)
            try:
                self._try_except(stmt)
            finally:
                self.frames.pop()
            if self._reachable():
                after = self._new(JOIN)
                copy = self._finally_copy(fin, len(self.frames), after)
                for src, label in self._current:
                    self._edge(src, copy, label)
                self._current = [(after, None)]
        else:
            self._try_except(stmt)

    _stmt_TryStar = _stmt_Try

    def _try_except(self, stmt: ast.Try) -> None:
        if not stmt.handlers:
            for s in stmt.body:
                self._stmt(s)
                if not self._reachable():
                    break
            for s in stmt.orelse:
                if not self._reachable():
                    break
                self._stmt(s)
            return
        dispatch = self._new(JOIN)
        catchall = any(h.type is None
                       or (isinstance(h.type, ast.Name)
                           and h.type.id in ("Exception", "BaseException"))
                       for h in stmt.handlers)
        if not catchall:
            # An unmatched exception keeps unwinding.
            self._edge(dispatch, self._route("exc", len(self.frames)), EXC)
        self.frames.append(_Frame("except", dispatch=dispatch))
        try:
            for s in stmt.body:
                self._stmt(s)
                if not self._reachable():
                    break
        finally:
            self.frames.pop()
        # else: runs on clean completion, outside the handlers' scope.
        for s in stmt.orelse:
            if not self._reachable():
                break
            self._stmt(s)
        exits = list(self._current)
        for h in stmt.handlers:
            entry = self._new(HANDLER, h)
            self._edge(dispatch, entry, None)
            self._current = [(entry, None)]
            for s in h.body:
                self._stmt(s)
                if not self._reachable():
                    break
            exits.extend(self._current)
        self._current = exits

    def _stmt_With(self, stmt: ast.With) -> None:
        self._with_items(stmt.items, stmt.body)

    def _stmt_AsyncWith(self, stmt: ast.AsyncWith) -> None:
        self._with_items(stmt.items, stmt.body)

    def _with_items(self, items: list[ast.withitem],
                    body: list[ast.stmt]) -> None:
        if not items:
            for s in body:
                self._stmt(s)
                if not self._reachable():
                    break
            return
        item, rest = items[0], items[1:]
        enter = self._new(WITH_ENTER, None, item)
        self._attach(enter)
        self._exc_edge(enter)                    # __enter__ may raise
        fin = _Frame("finally", with_item=item)
        self.frames.append(fin)
        try:
            self._with_items(rest, body)
        finally:
            self.frames.pop()
        if self._reachable():
            after = self._new(JOIN)
            copy = self._finally_copy(fin, len(self.frames), after)
            for src, label in self._current:
                self._edge(src, copy, label)
            self._current = [(after, None)]

    def _stmt_Assert(self, stmt: ast.Assert) -> None:
        nid = self._new(STMT, stmt)
        self._attach(nid)
        self._exc_edge(nid)                      # the assert may fail

    # Nested definitions are opaque single statements: their bodies are
    # separate CFGs and their closures make captured names escape
    # (handled by the client's escape analysis).
    def _stmt_FunctionDef(self, stmt: ast.FunctionDef) -> None:
        nid = self._new(STMT, stmt)
        self._attach(nid)

    _stmt_AsyncFunctionDef = _stmt_FunctionDef
    _stmt_ClassDef = _stmt_FunctionDef


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
              name: str | None = None) -> CFG:
    """Build the CFG of one function, method or lambda."""
    if isinstance(func, ast.Lambda):
        builder = _Builder(name or "<lambda>", func.lineno)
        body: list[ast.stmt] = [ast.Expr(func.body)]
        ast.copy_location(body[0], func.body)
    else:
        builder = _Builder(name or func.name, func.lineno)
        body = func.body
    return builder.build(body)
