"""A small forward dataflow engine over :mod:`repro.analysis.cfg`.

Worklist iteration to a fixpoint, parameterised by an
:class:`Analysis`: the client chooses the lattice by implementing
``join`` (set union for *may* properties — "is there **a** path on
which this session is still running?" — set intersection or boolean
AND for *must* properties — "is this write preceded by a journal
append on **every** path?"), the transfer function, and optionally a
branch-edge refinement (e.g. learn ``journal is None`` on the true
edge of that test).

Exception edges (label :data:`repro.analysis.cfg.EXC`) propagate the
statement's **in** state: an exception means the statement's effect
(the binding, the append) must not be assumed to have happened.

Facts must be immutable and hashable-equal (frozensets, tuples,
sorted item tuples for mappings); the engine relies on ``==`` to
detect the fixpoint.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.cfg import CFG, Node


class Analysis:
    """Client interface.  Subclass and override."""

    def initial(self):
        """The fact at function entry."""
        raise NotImplementedError

    def join(self, a, b):
        """Combine facts where paths merge."""
        raise NotImplementedError

    def transfer(self, node: Node, fact):
        """The fact after executing *node* with *fact* before it."""
        return fact

    def refine(self, fact, label):
        """Sharpen a fact along a labelled edge (branch outcomes).
        ``label`` is ``("cond", test, value)``, ``("iter", value)``
        or ``None``; exception edges are not refined."""
        return fact

    def exc_transfer(self, node: Node, fact):
        """The fact along *node*'s exception edge.  Default: the in
        state unchanged (the statement's effects must not be assumed).
        Clients can override to keep *teardown* effects — a
        ``close()`` that raises has still relinquished the handle, and
        flagging "leak because close itself failed" is pure noise."""
        return fact


def solve(cfg: CFG, analysis: Analysis) -> dict[int, object]:
    """In-facts for every reachable node, to a fixpoint.

    Unreachable nodes are absent from the result — a check that asks
    about them has nothing to report (dead code is flake8's job)."""
    in_facts: dict[int, object] = {cfg.entry: analysis.initial()}
    work: deque[int] = deque([cfg.entry])
    queued = {cfg.entry}
    while work:
        nid = work.popleft()
        queued.discard(nid)
        node = cfg.nodes[nid]
        fact_in = in_facts[nid]
        fact_out = analysis.transfer(node, fact_in)
        for dst, label in cfg.succs[nid]:
            if label is not None and label[0] == "exc":
                contrib = analysis.exc_transfer(node, fact_in)
            else:
                contrib = analysis.refine(fact_out, label)
            if dst in in_facts:
                merged = analysis.join(in_facts[dst], contrib)
            else:
                merged = contrib
            if dst not in in_facts or merged != in_facts[dst]:
                in_facts[dst] = merged
                if dst not in queued:
                    queued.add(dst)
                    work.append(dst)
    return in_facts
