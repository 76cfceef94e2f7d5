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

Pass/fail decisions run on numpy/scipy (compiled SCC and reachability, and
predicate columns over all states at once); counterexample lassos are then
extracted in plain Python with deterministic tie-breaking (shortest entry
first, lowest state index on ties).  A predicate column comes from the same
compiler as guards and invariants, `semantics._compile_expr`, given this
module's column operator table instead of the scalar one; when the column
evaluation raises EvalError, the scalar evaluator decides each state.
"""

from __future__ import annotations

import operator
from collections import deque
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
from .explorer import StateGraph, Trace, Verdict, check_invariant, discovery_path
from .semantics import EvalError, _compile_expr, eval_const_set


# --- cached numeric view of a graph -------------------------------------------


class _Analysis:
    """Numpy view of a StateGraph, built once per graph: per-variable value
    columns, the state-changing edges as CSR rows, quiescence flags, the
    states on a full-graph cycle, and the initial mask."""

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
        src = np.repeat(np.arange(n), np.diff(np.frombuffer(graph.edge_start, dtype=np.int64)))
        # One entry per state-changing (source, target) pair, in CSR row
        # order.  Two actions may lead to the same state, but scipy's strong
        # components loop forever on a repeated edge (seen in scipy 1.17).
        pairs = np.sort(src[src != dst] * n + dst[src != dst], kind="stable")
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        self.src, self.dst = np.divmod(pairs, n)
        sc_deg = np.bincount(self.src, minlength=n)
        self.quiescent = sc_deg == 0
        # The last row is the virtual source of `edges_into`.
        self.indptr = np.zeros(n + 2, dtype=np.intp)
        np.cumsum(sc_deg, out=self.indptr[1:n + 1])
        self.indptr[n + 1] = self.dst.size
        _, labels = csgraph.connected_components(
            self.edges_into(np.ones(n, dtype=bool)), directed=True, connection="strong"
        )
        self.cyclic = np.bincount(labels)[labels] >= 2  # on a nontrivial SCC
        self.can_stay = self.quiescent | self.cyclic
        self.initial_mask = np.zeros(n, dtype=bool)
        self.initial_mask[graph.initial] = True

    def edges_into(self, mask: np.ndarray, sources: Optional[np.ndarray] = None):
        """The state-changing edges as a CSR graph, with every edge into a
        state outside `mask` turned into a self-loop at its source: no path
        or cycle leaves `mask` through it, and a self-loop never makes an
        SCC nontrivial.  With `sources`, a virtual source n gets an edge to
        each of those states."""
        targets = np.where(mask[self.dst], self.dst, self.src)
        size, indptr = self.n, self.indptr[:-1]
        if sources is not None:
            size, indptr = self.n + 1, self.indptr.copy()
            indptr[-1] += sources.size
            targets = np.concatenate((targets, sources))
        return sparse.csr_matrix(
            (np.ones(targets.size), targets, indptr), shape=(size, size)
        )


def _analysis(graph: StateGraph) -> _Analysis:
    if graph._analysis is None:
        graph._analysis = _Analysis(graph)
    return graph._analysis


def quiescent_states(graph: StateGraph) -> set:
    """Indices of states with no edge to a different state: states with only
    self-loops, and successor-less (deadlocked) states."""
    return {int(i) for i in np.flatnonzero(_analysis(graph).quiescent)}


# --- predicate columns -----------------------------------------------------------


def _extremes(v) -> tuple:
    if isinstance(v, np.ndarray):
        return (int(v.min()), int(v.max())) if v.size else ()
    return (int(v),)


def _column_arith(fn: Callable) -> Callable:
    """Column table entry for `+`, `-` or `*`.  Each is monotone in each
    operand (`*` is bilinear), so its exact results at the corners of the
    operands' ranges bound every element's; when a corner leaves 64 bits it
    raises EvalError instead of wrapping around."""
    def make(lf, rf, where, node):
        def arith(c, b):
            left, right = lf(c, b), rf(c, b)
            corners = [fn(x, y) for x in _extremes(left) for y in _extremes(right)]
            if any(not INT_MIN <= v <= INT_MAX for v in corners):
                raise EvalError("integer overflow", where, node.line, node.col)
            return fn(left, right)
        return arith
    return make


def _column_member(item, elems):
    def member(c, b):
        v = item(c, b)
        acc = np.equal(v, elems[0](c, b))
        for f in elems[1:]:
            acc = np.logical_or(acc, np.equal(v, f(c, b)))
        return acc
    return member


# `semantics._compile_expr`'s operator table for fn(columns, binders), where
# columns[i] holds variable i of every stored state: the result is a column,
# or a scalar when it does not depend on the state.  Both sides of and/or/
# implies/if are evaluated on every state.
_COLUMN_OPS = {
    "not": lambda f: lambda c, b: np.logical_not(f(c, b)),
    "and": lambda lf, rf: lambda c, b: np.logical_and(lf(c, b), rf(c, b)),
    "or": lambda lf, rf: lambda c, b: np.logical_or(lf(c, b), rf(c, b)),
    "implies": lambda lf, rf: lambda c, b: np.logical_or(np.logical_not(lf(c, b)), rf(c, b)),
    "if": lambda cf, tf, ff: lambda c, b: np.where(cf(c, b), tf(c, b), ff(c, b)),
    "range": lambda item, lo, hi: lambda c, b: np.logical_and(
        lo(c, b) <= item(c, b), item(c, b) <= hi(c, b)
    ),
    "member": _column_member,
    "+": _column_arith(operator.add),
    "-": _column_arith(operator.sub),
    "*": _column_arith(operator.mul),
}


def _pred_column(graph: StateGraph, pred: Expr, where: str, binders: dict) -> np.ndarray:
    """Evaluate a predicate over every stored state.

    Compiles it with the column table.  When that raises EvalError (an
    integer overflow on some state, perhaps one that `and`/`or`/`if` would
    never evaluate), it re-runs the scalar evaluator on each state, which
    short-circuits exactly as specified and raises a located EvalError only
    when the failing operation is really evaluated.
    """
    ana = _analysis(graph)
    try:
        res = _compile_expr(pred, graph.bound, where, _COLUMN_OPS)(ana.columns, binders)
    except EvalError:
        f = _compile_expr(pred, graph.bound, where)
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


def _search_fail(graph: StateGraph, restrict: np.ndarray, starts: np.ndarray,
                 within_restriction: bool) -> Optional[_FailInfo]:
    """Find admitted behaviors that stay in `restrict` forever.

    Starting states are `starts & restrict`; when `within_restriction` is
    true the path from a start must itself stay inside the restriction
    (otherwise every stored state counts as reachable, which is already true
    of the full graph).  Returns None when no such behavior exists.

    A nontrivial SCC of the restricted graph lies inside a nontrivial SCC of
    the full graph, and one that holds a reached state is wholly reached; so
    the SCC pass runs only over reached states on a full-graph cycle.
    """
    ana = _analysis(graph)
    starts = starts & restrict
    if not starts.any() or not (restrict & ana.can_stay).any():
        return None
    if within_restriction:
        g = ana.edges_into(restrict, sources=np.flatnonzero(starts))
        order = csgraph.breadth_first_order(
            g, ana.n, directed=True, return_predecessors=False
        )
        reached = np.zeros(ana.n + 1, dtype=bool)
        reached[order] = True
        reached = reached[:ana.n]
    else:
        reached = restrict

    quiescent_hits = np.flatnonzero(ana.quiescent & reached)

    scc_members: dict = {}
    core = reached & ana.cyclic
    if core.any():
        _, labels = csgraph.connected_components(
            ana.edges_into(core), directed=True, connection="strong"
        )
        scc_hits = np.flatnonzero(np.bincount(labels)[labels] >= 2)
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
    return _FailInfo(quiescent_hits, scc_hits, scc_members)


# --- lasso extraction (pure python, failure path only) ----------------------------


def _bfs_within(graph: StateGraph, starts: list, allowed: np.ndarray):
    """Multi-source BFS over state-changing edges inside `allowed`; visits
    sources in ascending index order so parents are deterministic."""
    dist: dict = {}
    par: dict = {}
    dq = deque()
    for s in sorted(starts):
        if s not in dist:
            dist[s] = 0
            par[s] = None
            dq.append(s)
    start, dst = graph.edge_start, graph.edge_dst
    while dq:
        u = dq.popleft()
        for v in dst[start[u]:start[u + 1]]:
            if v != u and allowed[v] and v not in dist:
                dist[v] = dist[u] + 1
                par[v] = u
                dq.append(v)
    return dist, par


def _edge_label(graph: StateGraph, u: int, v: int) -> str:
    for label, t in graph.out_edges(u):
        if t == v:
            return label
    raise AssertionError(f"no edge {u} -> {v}")


def _cycle_through(graph: StateGraph, entry: int, members: frozenset) -> list:
    """Depth-first walk over state-changing edges inside one SCC; returns the
    first cycle through `entry`, preferring lower state indices."""

    start, dst = graph.edge_start, graph.edge_dst

    def nbrs(u: int) -> list:
        return sorted({v for v in dst[start[u]:start[u + 1]] if v != u and v in members})

    path = [entry]
    onpath = {entry}
    iters = [iter(nbrs(entry))]
    while iters:
        try:
            v = next(iters[-1])
        except StopIteration:
            iters.pop()
            onpath.discard(path.pop())
            continue
        if v == entry and len(path) >= 2:
            return path
        if v in onpath or v == entry:
            continue
        path.append(v)
        onpath.add(v)
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


def _pick_entry(candidates: list, dist: dict) -> int:
    reachable = [i for i in candidates if i in dist]
    return min(reachable, key=lambda i: (dist[i], i))


def _walk_back(par: dict, entry: int) -> list:
    path = [entry]
    while par[path[-1]] is not None:
        path.append(par[path[-1]])
    path.reverse()
    return path


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
    starts = [i for i in graph.initial if restrict[i]]
    dist, par = _bfs_within(graph, starts, restrict)
    entry = _pick_entry(list(info.quiescent_hits) + list(info.scc_hits), dist)
    trace = _assemble(graph, _walk_back(par, entry), info, entry)
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
    starts = [int(i) for i in np.flatnonzero(obligations)]
    dist, par = _bfs_within(graph, starts, restrict)
    entry = _pick_entry(list(info.quiescent_hits) + list(info.scc_hits), dist)
    tail = _walk_back(par, entry)  # begins at the witnessing premise state
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


def check_property(graph: StateGraph, prop: TemporalProperty) -> Verdict:
    """Dispatch a declared property; a `forall x in S` binder expands to one
    kernel check per member of S, and a fail names the witnessing value."""
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
        instances = [({bname: v}, v) for v in values]
    else:
        instances = [({}, None)]

    for binders, value in instances:
        v = _check_shape(graph, prop, binders)
        if v.status != "pass":
            v.binder = value
            if value is not None:
                bname = prop.binder[0]
                v.detail = f"{bname} = {format_value(value)}: {v.detail}"
            return v
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
