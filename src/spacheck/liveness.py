"""Temporal property checking over an explored state graph.

Execution semantics are fixed: behaviors start in an initial state, take
steps of the next-state relation (stuttering allowed), and are weakly fair
with respect to the state-changing next step.  The admitted infinite
behaviors are therefore exactly (a) paths traversing state-changing edges
infinitely often and (b) paths that reach a quiescent state - one with no
edge to a different state - and stutter there forever.  A self-loop edge is
a stuttering step, so a fair cycle needs at least two distinct states; that
makes refuting a liveness property a search for a reachable nontrivial
strongly connected component, or a reachable quiescent state, inside the
region where the target predicate fails.

Pass/fail decisions run on numpy/scipy (compiled SCC and reachability over
one CSR matrix per graph, and predicate columns over all states at once).
A search restricted to a set of states gives every state outside it a row
of self-loops, so the compiled BFS and SCC passes reach such a state only
as a leaf or a singleton SCC, and the search ANDs what they return with the
set.  Between searches only the rows of states whose membership changed
are rewritten.  A counterexample's prefix comes from the scipy BFS that
decided the verdict, with deterministic tie-breaking (shortest entry first,
lowest state index on ties); only its loop is found in plain Python, by a
linear DFS.  A predicate column comes from the same compiler as guards and
invariants, `semantics._compile_expr`, given this module's table of column
source templates (numpy calls) instead of the scalar one, and is generated
once per predicate; when the column evaluation raises EvalError, the scalar
evaluator decides each state.

A `forall` over eventually, leadsto or always eventually searches its first
instance alone and sweeps the others, 64 at a time: each state holds a
uint64 word with one bit per instance, and the bits spread along the
explorer's BFS levels, then along the back edges, until they stop moving
(the multi-source BFS of Then et al., VLDB 2014).  The sweep passes an
instance whose reached states hold no quiescent state and no back edge
between two states on a cycle; every other instance is searched alone, so
the verdicts and traces are the search's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .model import (
    INT_MAX,
    INT_MIN,
    AlwaysEventually,
    Eventually,
    Expr,
    Invariant,
    LeadsTo,
    TemporalProperty,
    format_value,
)
from .explorer import Deadline, StateGraph, Trace, Verdict, check_invariant, discovery_path
from .semantics import EvalError, _expr_function, eval_const_set


# --- cached numeric view of a graph -------------------------------------------

# `_Analysis.restricted` rewrites all rows in one vectorised pass when the
# rows whose membership changed hold more than 1/8 of the edges.  Rewriting
# only those rows costs more per edge; it stopped paying at about 1/10 of
# the rows changed on math-dag and 1/3 on panels-wide (random rows).
_FULL_REWRITE_SHARE = 8


class _Analysis:
    """Numpy view of a StateGraph, built once per graph: per-variable value
    columns, quiescence flags, the states on a full-graph cycle, the initial
    mask, and one CSR matrix of the state-changing edges that `restricted`
    rewrites in place, row by row, for every search."""

    def __init__(self, graph: StateGraph):
        n = graph.n_states
        spec = graph.spec
        self.n = n
        self.columns = []
        for i, decl in enumerate(spec.variables):
            vals = [s[i] for s in graph.states]
            if decl.kind == "int":
                self.columns.append(np.array(vals, dtype=np.int64))
            elif decl.kind == "bool":
                self.columns.append(np.array(vals, dtype=bool))
            else:
                self.columns.append(np.array(vals, dtype=object))
        dst = np.frombuffer(graph.edge_dst, dtype=np.int64)
        src = np.repeat(np.arange(n, dtype=np.int32),
                        np.diff(np.frombuffer(graph.edge_start, dtype=np.int64)))
        # The first copy of each state-changing (source, target) pair, in edge
        # order, so that a BFS over the rows assigns the parents a BFS over
        # the graph's own edges would.  Two actions may lead to the same
        # state, but scipy's strong components loop forever on a repeated
        # edge (seen in scipy 1.17).
        key = src.astype(np.int64)
        key *= n
        key += dst
        _, first = np.unique(key, return_index=True)
        del key
        first.sort()
        first = first[src[first] != dst[first]]
        self.src = src[first]
        self.dst = dst[first].astype(np.int32)
        del src, dst, first  # freed before the matrix is allocated
        m = self.dst.size
        sc_deg = np.bincount(self.src, minlength=n)
        self.quiescent = sc_deg == 0
        # Around a cycle the BFS depth rises by at most 1 per edge and returns
        # to where it started, so every cycle has an edge that does not rise.
        depth = np.frombuffer(graph.depth, dtype=np.int64)
        back = depth[self.dst] <= depth[self.src]
        self.back_src, self.back_dst = self.src[back], self.dst[back]
        # Row n is a virtual source with one entry per state: the state
        # itself when it is a start of the search, else a self-loop at n.
        # The matrix starts out as the whole graph, with no starts.
        indptr = np.empty(n + 2, dtype=np.int32)
        indptr[0] = 0
        np.cumsum(sc_deg, out=indptr[1:n + 1])
        indptr[n + 1] = m + n
        indices = np.empty(m + n, dtype=np.int32)
        indices[:m] = self.dst
        indices[m:] = n
        self._csr = sparse.csr_matrix(
            (np.ones(m + n), indices, indptr), shape=(n + 1, n + 1)
        )
        self._row_start = self._csr.indptr[:n + 1]
        self._targets = self._csr.indices[:m]
        self._virtual = self._csr.indices[m:]
        self._inside = np.empty(m, dtype=bool)
        self._mask = np.ones(n, dtype=bool)
        self._starts = np.zeros(n, dtype=bool)
        if self.back_src.size:
            _, labels = csgraph.connected_components(
                self._csr, directed=True, connection="strong"
            )
            self.cyclic = (np.bincount(labels)[labels] >= 2)[:n]  # on a nontrivial SCC
        else:
            self.cyclic = np.zeros(n, dtype=bool)  # no back edge: a DAG
        self.can_stay = self.quiescent | self.cyclic
        self.initial_mask = np.zeros(n, dtype=bool)
        self.initial_mask[graph.initial] = True
        self.plan = None  # a _SweepPlan, built by the first sweep

    def restricted(self, mask: np.ndarray, starts: Optional[np.ndarray] = None):
        """The state-changing edges as an (n+1)-node CSR graph in which every
        state outside `mask` has a row of self-loops: a path or cycle can
        enter such a state but never leave it, so a search sees it only as a
        leaf or a singleton SCC, and a caller ANDs its result with `mask`.
        The virtual source n has an edge to each of `starts`, in ascending
        order.

        The matrix is rewritten in place, and only in the rows of states whose
        membership changed since the last call (and in the virtual row only at
        the starts that changed), so no caller may keep it, or a view of its
        arrays, beyond its own use."""
        changed = np.flatnonzero(mask != self._mask)
        first = self._row_start[changed]
        width = self._row_start[changed + 1] - first
        total = int(width.sum())
        if total * _FULL_REWRITE_SHARE > self._targets.size:
            # targets = src + inside * (dst - src): unlike a masked copy, it
            # takes no branch per edge, which a mixed mask would mispredict.
            # `src` is sorted, so `mask[src]` is read in order.
            np.take(mask, self.src, out=self._inside)
            np.subtract(self.dst, self.src, out=self._targets)
            np.multiply(self._targets, self._inside, out=self._targets)
            np.add(self._targets, self.src, out=self._targets)
        elif total:
            # The edge positions of the changed rows, row after row.
            offset = first.astype(np.int64)
            offset -= np.cumsum(width) - width
            pos = np.repeat(offset, width)
            pos += np.arange(total)
            self._targets[pos] = np.where(
                np.repeat(mask[changed], width), self.dst[pos], self.src[pos]
            )
        np.copyto(self._mask, mask)
        if starts is None:
            starts = np.zeros_like(self._starts)
        flipped = np.flatnonzero(starts != self._starts)
        self._virtual[flipped] = np.where(starts[flipped], flipped, self.n)
        np.copyto(self._starts, starts)
        return self._csr


def _analysis(graph: StateGraph) -> _Analysis:
    if graph._analysis is None:
        graph._analysis = _Analysis(graph)
    return graph._analysis


# --- predicate columns -----------------------------------------------------------


def _extremes(v) -> tuple:
    if isinstance(v, np.ndarray):
        return (int(v.min()), int(v.max())) if v.size else ()
    return (int(v),)


def _column_arith(fn: Callable) -> Callable:
    """Factory, for the column table, of the function that applies `+`,
    `-` or `*` to two operands.  Each is monotone in each operand (`*` is
    bilinear), so its exact results at the corners of the operands' ranges
    bound every element's; when a corner leaves 64 bits it raises EvalError
    instead of wrapping around."""
    def make(where: str, line: int, col: int) -> Callable:
        def arith(left, right):
            corners = [fn(x, y) for x in _extremes(left) for y in _extremes(right)]
            if any(not INT_MIN <= v <= INT_MAX for v in corners):
                raise EvalError("integer overflow", where, line, col)
            return fn(left, right)
        return arith
    return make


def _column_member(item, *elems):
    acc = item == elems[0]
    for v in elems[1:]:
        acc = np.logical_or(acc, item == v)
    return acc


# `semantics._compile_expr`'s operator table for fn(columns, binders), where
# columns[i] holds variable i of every stored state, so the source `s[i]` is
# a column: the result is a column, or a scalar when it does not depend on
# the state.  Both sides of and/or/implies/if are evaluated on every state.
_COLUMN_OPS = {
    "globals": {"np": np, "column_member": _column_member},
    "not": "np.logical_not({0})",
    "and": "np.logical_and({0}, {1})",
    "or": "np.logical_or({0}, {1})",
    "implies": "np.logical_or(np.logical_not({0}), {1})",
    "if": "np.where({0}, {1}, {2})",
    "range": "np.logical_and({1} <= ({t} := {0}), {t} <= {2})",
    "member": ("column_member({0}, {1})", ", "),
    "+": ("{f}({0}, {1})", _column_arith(operator.add)),
    "-": ("{f}({0}, {1})", _column_arith(operator.sub)),
    "*": ("{f}({0}, {1})", _column_arith(operator.mul)),
}


def _pred_column(graph: StateGraph, pred: Expr, where: str, binders: dict) -> np.ndarray:
    """Evaluate a predicate over every stored state.

    Compiles it with the column table, once per bound spec and predicate.
    When that raises EvalError (an integer overflow on some state, perhaps
    one that `and`/`or`/`if` would never evaluate), it re-runs the scalar
    evaluator on each state, which short-circuits exactly as specified and
    raises a located EvalError only when the failing operation is really
    evaluated.
    """
    ana = _analysis(graph)
    try:
        res = _expr_function(pred, graph.bound, where, _COLUMN_OPS)(ana.columns, binders)
    except EvalError:
        f = _expr_function(pred, graph.bound, where)
        return np.fromiter(
            (bool(f(s, binders)) for s in graph.states), dtype=bool, count=ana.n
        )
    if isinstance(res, np.ndarray) and res.shape == (ana.n,):
        return res.astype(bool, copy=False)
    return np.full(ana.n, bool(res))


# --- fair-lasso search -----------------------------------------------------------


@dataclass
class _FailInfo:
    quiescent_hits: np.ndarray  # reached quiescent states, ascending
    scc_hits: np.ndarray  # reached states on a nontrivial SCC, ascending
    scc_members: dict  # each of scc_hits -> frozenset of its SCC
    # The BFS that found the reached states, from the virtual source n (None
    # when the search did not need one): visiting order, and each state's
    # BFS parent (n for a start).
    order: Optional[np.ndarray] = None
    pred: Optional[np.ndarray] = None


def _search_fail(graph: StateGraph, restrict: np.ndarray, starts: np.ndarray,
                 within_restriction: bool) -> Optional[_FailInfo]:
    """Find admitted behaviors that stay in `restrict` forever.

    Starting states are `starts & restrict`; when `within_restriction` is
    true the path from a start must itself stay inside the restriction
    (otherwise every stored state counts as reachable, which is already true
    of the full graph).  Returns None when no such behavior exists.

    A nontrivial SCC of the restricted graph lies inside a nontrivial SCC of
    the full graph, and one that holds a reached state is wholly reached; so
    the SCC pass runs only over reached states on a full-graph cycle, and
    only when some back edge (see `_Analysis`) lies among them.

    The BFS also visits states outside `restrict` that an edge leads to, but
    only as leaves (see `_Analysis.restricted`): the states inside keep the
    order and the parents of a BFS that never left the restriction, and a
    failing search drops the others from `order` and `pred`.
    """
    ana = _analysis(graph)
    starts = starts & restrict
    if not starts.any() or not (restrict & ana.can_stay).any():
        return None
    order = pred = None
    if within_restriction:
        order, pred = csgraph.breadth_first_order(
            ana.restricted(restrict, starts), ana.n, directed=True, return_predecessors=True
        )
        reached = pred[:ana.n] >= 0  # a start's parent is n
        reached &= restrict
    else:
        reached = restrict

    quiescent_hits = np.flatnonzero(ana.quiescent & reached)

    scc_members: dict = {}
    core = reached & ana.cyclic
    if (core[ana.back_src] & core[ana.back_dst]).any():
        _, labels = csgraph.connected_components(
            ana.restricted(core), directed=True, connection="strong"
        )
        scc_hits = np.flatnonzero((np.bincount(labels)[labels] >= 2)[:ana.n])
        hit_labels = labels[scc_hits]
        by_label = np.argsort(hit_labels, kind="stable")
        cuts = np.flatnonzero(np.diff(hit_labels[by_label])) + 1
        for comp in np.split(scc_hits[by_label], cuts):
            mem = frozenset(comp.tolist())
            scc_members.update(dict.fromkeys(mem, mem))
    else:
        scc_hits = np.empty(0, dtype=np.int64)

    if quiescent_hits.size == 0 and scc_hits.size == 0:
        return None
    if order is not None:
        order = order[np.append(restrict, True)[order]]
        pred[:ana.n][~restrict] = pred[ana.n]  # scipy's "no parent"
    return _FailInfo(quiescent_hits, scc_hits, scc_members, order, pred)


# --- lasso extraction (failure path only) ------------------------------------------


def _bfs_prefix(info: _FailInfo) -> list:
    """The BFS path of `_search_fail` from a start to the nearest state that
    can stay forever (fewest steps, then lowest index), as state indices.

    The BFS is FIFO, so its levels are contiguous in `order` and the
    positions of the parents never decrease along it; each level ends where
    the parents leave the level before."""
    order, pred = info.order, info.pred
    n = pred.size - 1
    position = np.empty(n + 1, dtype=np.int64)
    position[order] = np.arange(order.size)
    parent_position = position[pred[order[1:]]]
    bounds = [0, 1]  # level 0 is the virtual source
    while bounds[-1] < order.size:
        bounds.append(int(np.searchsorted(parent_position, bounds[-1])) + 1)
    level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    candidates = np.concatenate((info.quiescent_hits, info.scc_hits))
    entry = int(candidates[np.lexsort((candidates, level[position[candidates]]))[0]])
    path = [entry]
    while pred[path[-1]] != n:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return path


def _edge_label(graph: StateGraph, u: int, v: int) -> str:
    for label, t in graph.out_edges(u):
        if t == v:
            return label
    raise AssertionError(f"no edge {u} -> {v}")


def _cycle_through(graph: StateGraph, entry: int, members: frozenset) -> list:
    """Depth-first walk over state-changing edges inside one SCC; returns the
    first cycle through `entry`, preferring lower state indices.

    A state whose subtree is exhausted is never entered again.  Until the
    cycle is found, every path from such a state to `entry` passes through a
    state on the current DFS path (the blocking argument of Johnson, SIAM J.
    Comput. 1975), so no simple path through it closes the loop: skipping it
    finds the same first cycle as a walk over all simple paths, in O(V+E)."""

    start, dst = graph.edge_start, graph.edge_dst

    def nbrs(u: int) -> list:
        return sorted({v for v in dst[start[u]:start[u + 1]] if v != u and v in members})

    path = [entry]
    entered = {entry}  # on the path, or exhausted
    iters = [iter(nbrs(entry))]
    while iters:
        try:
            v = next(iters[-1])
        except StopIteration:
            iters.pop()
            path.pop()
            continue
        if v == entry:
            return path
        if v in entered:
            continue
        path.append(v)
        entered.add(v)
        iters.append(iter(nbrs(v)))
    raise AssertionError("nontrivial SCC must contain a cycle")


def _self_loop_label(graph: StateGraph, i: int) -> Optional[str]:
    for label, t in graph.out_edges(i):
        if t == i:
            return label
    return None


def _assemble(graph: StateGraph, prefix: list, info: _FailInfo, entry: int) -> Trace:
    """Build the lasso trace: `prefix` ends at `entry`; the loop is either a
    perpetual stutter at a quiescent entry or a cycle through its SCC."""
    indices = list(prefix)
    actions = [_edge_label(graph, u, v) for u, v in zip(indices, indices[1:])]
    loop_start = len(indices) - 1
    if entry in info.scc_members:
        cycle = _cycle_through(graph, entry, info.scc_members[entry])
        for node in cycle[1:]:
            actions.append(_edge_label(graph, indices[-1], node))
            indices.append(node)
        loop_action = _edge_label(graph, indices[-1], entry)
    else:
        loop_action = _self_loop_label(graph, entry)
    return Trace(
        states=[graph.states[i] for i in indices],
        actions=actions,
        loop_start=loop_start,
        loop_action=loop_action,
    )


# --- the four checks ----------------------------------------------------------


def _verdict_error(name: str, kind: str, exc: EvalError) -> Verdict:
    return Verdict(name=name, kind=kind, status="error", detail=str(exc))


def check_eventually(graph: StateGraph, pred: Expr, *, name: str = "eventually",
                     binders: Optional[dict] = None) -> Verdict:
    """Pass iff every admitted behavior from every initial state reaches a
    state satisfying `pred`."""
    binders = binders or {}
    where = f"property {name}"
    try:
        pv = _pred_column(graph, pred, where, binders)
    except EvalError as e:
        return _verdict_error(name, "eventually", e)
    ana = _analysis(graph)
    restrict = ~pv
    info = _search_fail(graph, restrict, ana.initial_mask, within_restriction=True)
    if info is None:
        return Verdict(
            name=name, kind="eventually", status="pass",
            detail="every admitted behavior reaches the target",
        )
    prefix = _bfs_prefix(info)
    entry = prefix[-1]
    trace = _assemble(graph, prefix, info, entry)
    kind_of_loop = "stutters forever at quiescent state" if entry not in info.scc_members \
        else "cycles forever from state"
    return Verdict(
        name=name, kind="eventually", status="fail", trace=trace,
        detail=f"never reaches the target: {kind_of_loop} {entry}",
    )


def check_leadsto(graph: StateGraph, p: Expr, q: Expr, *, name: str = "leadsto",
                  binders: Optional[dict] = None) -> Verdict:
    """Pass iff from every reachable state satisfying `p`, every admitted
    continuation reaches a state satisfying `q`."""
    binders = binders or {}
    where = f"property {name}"
    try:
        pv = _pred_column(graph, p, where, binders)
        qv = _pred_column(graph, q, where, binders)
    except EvalError as e:
        return _verdict_error(name, "leadsto", e)
    restrict = ~qv
    obligations = pv & restrict
    info = _search_fail(graph, restrict, obligations, within_restriction=True)
    if info is None:
        return Verdict(
            name=name, kind="leadsto", status="pass",
            detail="every premise state leads to the conclusion",
        )
    tail = _bfs_prefix(info)  # begins at the witnessing premise state
    entry = tail[-1]
    witness = tail[0]
    head, _ = discovery_path(graph, witness)
    prefix = head[:-1] + tail
    trace = _assemble(graph, prefix, info, entry)
    return Verdict(
        name=name, kind="leadsto", status="fail", trace=trace,
        detail=f"state {witness} satisfies the premise but can avoid the conclusion forever",
    )


def check_always_eventually(graph: StateGraph, pred: Expr, *,
                            name: str = "always_eventually",
                            binders: Optional[dict] = None) -> Verdict:
    """Pass iff every admitted behavior visits `pred`-states infinitely
    often.  The counterexample prefix may pass through `pred`-states; only
    the loop must avoid them."""
    binders = binders or {}
    where = f"property {name}"
    try:
        pv = _pred_column(graph, pred, where, binders)
    except EvalError as e:
        return _verdict_error(name, "always_eventually", e)
    restrict = ~pv
    # Every stored state is reachable, so any anchor inside the restriction
    # refutes the property; no path-within-restriction requirement here.
    info = _search_fail(graph, restrict, restrict.copy(), within_restriction=False)
    if info is None:
        return Verdict(
            name=name, kind="always_eventually", status="pass",
            detail="the target recurs on every admitted behavior",
        )
    candidates = list(info.quiescent_hits) + list(info.scc_hits)
    entry = min(candidates, key=lambda i: (graph.depth[i], i))
    prefix, _ = discovery_path(graph, int(entry))
    trace = _assemble(graph, prefix, info, int(entry))
    return Verdict(
        name=name, kind="always_eventually", status="fail", trace=trace,
        detail=f"after state {int(entry)} the target never holds again",
    )


# --- many `forall` instances at once ------------------------------------------

# Instances decided by one sweep: one bit each of a uint64 word per state.
_BLOCK = 64

# Back-edge rounds per sweep.  A round pushes the reached bits along the back
# edges and, where a bit moved, sweeps the levels again; math needs at most
# one and panels two.  An instance still moving after this many rounds goes
# to the per-instance search.
_SWEEP_ROUNDS = 4


class _SweepPlan:
    """The graph's BFS levels and forward edges, for `_spread`, built once
    per graph in int32 (and views of the graph's own arrays).

    States are numbered in BFS order, so level d (BFS depth d) is the index
    range levels[d]:levels[d + 1].  A forward edge goes one level deeper.
    Every state past level 0 has one from its BFS parent (`graph.parent`);
    the others are `extra_src`/`extra_dst`, and since `_Analysis.src` is
    sorted, those out of level d are positions extra_out[d]:extra_out[d + 1]."""

    def __init__(self, graph: StateGraph, ana: _Analysis):
        self.depth = np.frombuffer(graph.depth, dtype=np.int64)
        self.parent = np.frombuffer(graph.parent, dtype=np.int64)
        self.levels = np.concatenate(
            ([0], np.flatnonzero(np.diff(self.depth)) + 1, [ana.n])
        ).astype(np.int32)
        next_level = self.levels[1:][self.depth]  # where each state's level ends
        extra = ana.dst >= next_level[ana.src]
        extra &= ana.src != self.parent.astype(np.int32)[ana.dst]
        self.extra_src, self.extra_dst = ana.src[extra], ana.dst[extra]
        self.extra_out = np.searchsorted(self.extra_src, self.levels).astype(np.int32)
        self.quiescent = np.flatnonzero(ana.quiescent).astype(np.int32)
        # The back edges whose ends `_search_fail` tests before an SCC pass.
        on_cycle = ana.cyclic[ana.back_src] & ana.cyclic[ana.back_dst]
        self.cycle_src, self.cycle_dst = ana.back_src[on_cycle], ana.back_dst[on_cycle]


def _spread(ana: _Analysis, allowed: np.ndarray, reach: np.ndarray) -> np.uint64:
    """Close each bit of `reach` under the state-changing edges into states
    that hold the bit in `allowed`, in place: level by level along the
    forward edges, then along the back edges, and again from the level after
    the lowest one that grew, until no bit moves.  Returns the bits still
    moving after `_SWEEP_ROUNDS` rounds; their reach is unfinished."""
    plan = ana.plan
    levels, out = plan.levels.tolist(), plan.extra_out.tolist()
    parent, src, dst = plan.parent, plan.extra_src, plan.extra_dst
    first = 1
    for _ in range(_SWEEP_ROUNDS + 1):
        for d in range(first, len(levels) - 1):
            lo, hi = levels[d], levels[d + 1]
            level = reach[lo:hi]
            level |= reach[parent[lo:hi]]
            if out[d - 1] < out[d]:
                np.bitwise_or.at(reach, dst[out[d - 1]:out[d]], reach[src[out[d - 1]:out[d]]])
            level &= allowed[lo:hi]
        if not ana.back_src.size:
            return np.uint64(0)
        before = reach[ana.back_dst]
        np.bitwise_or.at(reach, ana.back_dst, reach[ana.back_src] & allowed[ana.back_dst])
        grown = reach[ana.back_dst] & ~before
        moved = np.bitwise_or.reduce(grown)
        if not moved:
            break
        first = int(plan.depth[ana.back_dst[grown != 0]].min()) + 1
    return moved


def _sweep(graph: StateGraph, shape, where: str, instances: list) -> tuple:
    """Decide up to `_BLOCK` instances of an eventually, leadsto or always
    eventually `shape`, one per binder dict in `instances`, in one sweep.

    Bit k of a state's word says, in `allowed`, that instance k's target
    fails there, and in `reach`, that instance k's `_search_fail` reaches
    it.  The tests on the reach are the search's own: a reached quiescent
    state refutes the instance, and a back edge between two reached states
    on a full-graph cycle calls for its SCC pass.  Returns (covered,
    flagged): the sweep decides the first `covered` instances, and those at
    the positions `flagged` (ascending) need the per-instance search, which
    fails them, passes them or reports their error.  An EvalError in
    instance k's columns ends the sweep before k and flags k."""
    ana = _analysis(graph)
    if ana.plan is None:
        ana.plan = _SweepPlan(graph, ana)
    plan, n = ana.plan, ana.n
    # For leadsto the premise's columns, then the target's: the per-instance
    # check evaluates them in this order, so it meets the same EvalError.
    preds = (shape.lhs, shape.rhs) if isinstance(shape, LeadsTo) else (shape.pred,)
    packed = np.zeros((len(preds), n, 8), dtype=np.uint8)
    byte = np.zeros((len(preds), n), dtype=np.uint8)
    bit = np.empty(n, dtype=np.uint8)
    covered = len(instances)
    for k, binders in enumerate(instances):
        try:
            columns = [_pred_column(graph, e, where, binders) for e in preds]
        except EvalError:
            covered = k
            break
        for acc, column in zip(byte, columns):
            # A uint8 multiply by 2**j is a shift by j; numpy's uint8 shift
            # loop is about 10 times slower.
            np.multiply(column.view(np.uint8), np.uint8(1 << (k & 7)), out=bit)
            acc |= bit
        if k & 7 == 7:
            packed[:, :, k >> 3] = byte
            byte[:] = 0
    if covered & 7:
        packed[:, :, covered >> 3] = byte
    del byte, bit
    if covered == 0:
        return 1, [0]
    # Bits past the last instance stay clear, so they start no back-edge round.
    valid = np.packbits(np.arange(_BLOCK) < covered, bitorder="little").view(np.uint64)[0]
    words = packed.view(np.uint64)[:, :, 0]  # one row of n words per column
    allowed = words[-1]
    np.invert(allowed, out=allowed)
    allowed &= valid
    if isinstance(shape, AlwaysEventually):
        reach = allowed  # every stored state is reachable
    elif isinstance(shape, LeadsTo):
        reach = words[0]
        reach &= allowed  # the obligations
    else:
        reach = np.zeros(n, dtype=np.uint64)
        reach[:plan.levels[1]] = allowed[:plan.levels[1]]  # level 0: the initial states
    flags = np.uint64(0) if reach is allowed else _spread(ana, allowed, reach)
    flags |= np.bitwise_or.reduce(reach[plan.quiescent])
    flags |= np.bitwise_or.reduce(reach[plan.cycle_src] & reach[plan.cycle_dst])
    bits = np.unpackbits(np.array([flags], dtype=np.uint64).view(np.uint8), bitorder="little")
    flagged = np.flatnonzero(bits[:covered]).tolist()
    if covered < len(instances):
        flagged.append(covered)
        covered += 1
    return covered, flagged


def check_property(graph: StateGraph, prop: TemporalProperty,
                   deadline: Optional[Deadline] = None) -> Verdict:
    """Dispatch a declared property; a `forall x in S` binder expands to one
    kernel check per member of S, in order, and a fail names the first
    witnessing value.  The first instance of an eventually, leadsto or
    always eventually property is searched on its own; if it passes,
    `_sweep` decides the rest `_BLOCK` at a time, and the per-instance
    search runs only on those it flags, so the verdict is that of searching
    every instance.  Raises LimitError when `deadline` has passed before a
    sweep or a search."""
    where = f"property {prop.name}"
    if prop.binder is not None:
        bname, bset = prop.binder
        try:
            values = eval_const_set(bset, graph.bound, where)
        except EvalError as e:
            return _verdict_error(prop.name, prop.kind, e)
        if not values:
            return Verdict(
                name=prop.name, kind=prop.kind, status="pass",
                detail="vacuous: the binder set is empty",
            )
        instances = [{bname: v} for v in values]
    else:
        instances = [{}]

    def check_time():
        if deadline is not None and deadline.expired():
            raise deadline.error(f"checking property {prop.name}")

    i = 0
    while i < len(instances):
        if i == 0 or isinstance(prop.shape, Invariant):
            covered, flagged = 1, [0]
        else:
            check_time()
            covered, flagged = _sweep(graph, prop.shape, where, instances[i:i + _BLOCK])
        for k in flagged:
            check_time()
            v = _check_shape(graph, prop, instances[i + k])
            if v.status != "pass":
                if prop.binder is not None:
                    v.binder = values[i + k]
                    v.detail = f"{bname} = {format_value(v.binder)}: {v.detail}"
                return v
        i += covered
    detail = "holds"
    if prop.binder is not None:
        detail = f"holds for all {len(instances)} binder values"
    return Verdict(name=prop.name, kind=prop.kind, status="pass", detail=detail)


def _check_shape(graph: StateGraph, prop: TemporalProperty, binders: dict) -> Verdict:
    shape = prop.shape
    if isinstance(shape, Invariant):
        return check_invariant(graph, shape.pred, graph.bound, name=prop.name, binders=binders)
    if isinstance(shape, Eventually):
        return check_eventually(graph, shape.pred, name=prop.name, binders=binders)
    if isinstance(shape, AlwaysEventually):
        return check_always_eventually(graph, shape.pred, name=prop.name, binders=binders)
    if isinstance(shape, LeadsTo):
        return check_leadsto(graph, shape.lhs, shape.rhs, name=prop.name, binders=binders)
    raise TypeError(f"not a property shape: {shape!r}")
