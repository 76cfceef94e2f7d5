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
one CSR matrix per graph, rewritten in place for each search, and predicate
columns over all states at once).  A counterexample's prefix comes from the
scipy BFS that decided the verdict, with deterministic tie-breaking
(shortest entry first, lowest state index on ties); only its loop is found
in plain Python.  A predicate column comes from the same compiler as guards
and invariants, `semantics._compile_expr`, given this module's table of
column source templates (numpy calls) instead of the scalar one, and is
generated once per predicate; when the column evaluation raises EvalError,
the scalar evaluator decides each state.
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


class _Analysis:
    """Numpy view of a StateGraph, built once per graph: per-variable value
    columns, quiescence flags, the states on a full-graph cycle, the initial
    mask, and one CSR matrix of the state-changing edges that `restricted`
    rewrites in place for every search."""

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
        indptr = np.empty(n + 2, dtype=np.int32)
        indptr[0] = 0
        np.cumsum(sc_deg, out=indptr[1:n + 1])
        indptr[n + 1] = m + n
        indices = np.zeros(m + n, dtype=np.int32)
        self._csr = sparse.csr_matrix(
            (np.ones(m + n), indices, indptr), shape=(n + 1, n + 1)
        )
        self._targets = self._csr.indices[:m]
        self._virtual = self._csr.indices[m:]
        self._inside = np.empty(m, dtype=bool)
        self._states = np.arange(n, dtype=np.int32)
        if self.back_src.size:
            _, labels = csgraph.connected_components(
                self.restricted(np.ones(n, dtype=bool)), directed=True, connection="strong"
            )
            self.cyclic = (np.bincount(labels)[labels] >= 2)[:n]  # on a nontrivial SCC
        else:
            self.cyclic = np.zeros(n, dtype=bool)  # no back edge: a DAG
        self.can_stay = self.quiescent | self.cyclic
        self.initial_mask = np.zeros(n, dtype=bool)
        self.initial_mask[graph.initial] = True

    def restricted(self, mask: np.ndarray, starts: Optional[np.ndarray] = None):
        """The state-changing edges as an (n+1)-node CSR graph, with every
        edge into a state outside `mask` turned into a self-loop at its
        source: no path or cycle leaves `mask` through it, and a self-loop
        never makes an SCC nontrivial.  The virtual source n has an edge to
        each of `starts`, in ascending order.

        The matrix is rewritten in place by the next call, so no caller may
        keep it, or a view of its arrays, beyond its own use."""
        # targets = src + inside * (dst - src): unlike a masked copy, it takes
        # no branch per edge, which a mixed mask would mispredict.
        np.take(mask, self.dst, out=self._inside)
        np.subtract(self.dst, self.src, out=self._targets)
        np.multiply(self._targets, self._inside, out=self._targets)
        np.add(self._targets, self.src, out=self._targets)
        self._virtual.fill(self.n)
        if starts is not None:
            np.copyto(self._virtual, self._states, where=starts)
        return self._csr


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
        reached = np.zeros(ana.n + 1, dtype=bool)
        reached[order] = True
        reached = reached[:ana.n]
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


def check_property(graph: StateGraph, prop: TemporalProperty,
                   deadline: Optional[Deadline] = None) -> Verdict:
    """Dispatch a declared property; a `forall x in S` binder expands to one
    kernel check per member of S, and a fail names the witnessing value.
    Raises LimitError when `deadline` has passed before an instance."""
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
        if deadline is not None and deadline.expired():
            raise deadline.error(f"checking property {prop.name}")
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
