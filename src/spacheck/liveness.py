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
region where the target predicate fails.  All three shapes are one leads-to
search that differs only in its starts (Lamport, Specifying Systems, ch. 8):
`eventually P` is `Init ~> P`, and `always eventually P` is `TRUE ~> P`.

Pass/fail decisions run on numpy/scipy (compiled SCC and reachability over
one CSR matrix per graph, and predicate columns over all states at once).
A search restricted to a set of states gives every state outside it a row
of self-loops, so the compiled BFS and SCC passes reach such a state only
as a leaf or a singleton SCC, and the search ANDs what they return with the
set.  Each search rewrites the matrix in place once, in one vectorised pass
over all edges, and its BFS and its SCC pass both read that matrix.  A
counterexample's prefix is the discovery path to a start, then the path of
the scipy BFS that decided the verdict, with deterministic tie-breaking
(shortest entry first, lowest state index on ties); only its loop is found
in plain Python, by a linear DFS that reads SCC membership off the search's
SCC labels as a bool column.  The checks here only consume bool columns: a
predicate's value in every state comes from `StateGraph.holds`, which
decides invariants too.

A `forall` over eventually, leadsto or always eventually searches its first
instance alone and sweeps the others, 64 at a time: each state holds a
uint64 word with one bit per instance (built in one pass over a variable's
column for a predicate `v = x` on the binder x), and the bits spread along
the explorer's BFS levels, then along the back edges, until they stop
moving (the multi-source BFS of Then et al., VLDB 2014).  The sweep passes an
instance whose reached states hold no quiescent state and no back edge
between two states on a cycle; every other instance, and every instance
whose predicate cannot be evaluated, is searched alone, so the verdicts and
traces are the search's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph._traversal import breadth_first_order, connected_components

from .model import (
    AlwaysEventually,
    Binary,
    Eventually,
    Expr,
    Invariant,
    KIND_OF_SHAPE,
    LeadsTo,
    Name,
    TemporalProperty,
    format_value,
)
from .explorer import (
    Deadline,
    StateGraph,
    Verdict,
    check_invariant,
    discovery_path,
)
from .semantics import EvalError, eval_const_set


# --- cached numeric view of a graph -------------------------------------------


# A graph whose rows hold at most this many edges is deduped by shifted
# compares (`_changing_edges`), any other by a sort of all its edges.  Over
# m = 300,000 and 3,000,000 random edges, a shifted compare took 0.9-2.5 ns
# an edge and the sort 62-98 ns (2 cores, Python 3.11, numpy 2.4), so the 31
# compares of rows of 32 cost less than the sort.
_SHIFT_ROWS = 32


def _changing_edges(edge_start: np.ndarray, edge_dst: np.ndarray) -> tuple:
    """(src, dst) as int32 of the state-changing edges of the CSR graph
    `edge_start`/`edge_dst`: the first copy of each (source, target) pair
    with source != target, in edge order, so that a BFS over them assigns
    the parents a BFS over the graph's own edges would.  Two actions may
    lead to the same state, but scipy's strong components loop forever on
    a repeated edge (seen in scipy 1.17).

    A repeat lies in the row of its first copy, so with d the longest row,
    the k-th of d - 1 compares of all edges finds those equal to the edge
    k positions before them, in the same row when both have one source."""
    degree = np.diff(edge_start)
    n = degree.size
    src = np.repeat(np.arange(n, dtype=np.int32), degree)
    keep = src != edge_dst
    d = int(degree.max(initial=0))
    if d <= _SHIFT_ROWS:
        for k in range(1, d):
            hit = np.flatnonzero(edge_dst[k:] == edge_dst[:-k])
            hit = hit[np.take(src, hit) == np.take(src, hit + k)]
            keep[hit + k] = False
    else:
        key = src.astype(np.int64)
        key *= n
        key += edge_dst
        first = np.zeros(src.size, dtype=bool)
        first[np.unique(key, return_index=True)[1]] = True
        del key
        keep &= first
    kept = np.flatnonzero(keep)
    return np.take(src, kept), np.take(edge_dst, kept).astype(np.int32)


def _no_limit() -> None:
    """The `check_time` of a check without a deadline."""


class _Analysis:
    """Numpy view of a StateGraph, built once per graph: each state's BFS
    level, quiescence flags, the states on a full-graph cycle and the back
    edges between two of them, and one CSR matrix of the state-changing
    edges that `restricted` rewrites in place once for every search.
    `check_time` runs between the build's steps; it raises the check's
    LimitError once its deadline has passed."""

    def __init__(self, graph: StateGraph, check_time: Callable = _no_limit):
        n = graph.n_states
        self.n = n
        self.src, self.dst = _changing_edges(
            np.frombuffer(graph.edge_start, dtype=np.int64),
            np.frombuffer(graph.edge_dst, dtype=np.int64))
        check_time()
        m = self.dst.size
        sc_deg = np.bincount(self.src, minlength=n)
        self.quiescent = sc_deg == 0
        # Around a cycle the BFS level rises by at most 1 per edge and returns
        # to where it started, so every cycle has an edge that does not rise.
        levels = np.frombuffer(graph.levels, dtype=np.int64)
        self.level = np.repeat(np.arange(levels.size - 1, dtype=np.int32), np.diff(levels))
        back = np.flatnonzero(np.take(self.level, self.dst) <= np.take(self.level, self.src))
        self.back_src, self.back_dst = np.take(self.src, back), np.take(self.dst, back)
        del back
        check_time()
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
        # scipy's BFS and SCC passes never read the values: one shared 1.0
        # (a zero-stride view) stands for all of them.
        self._csr = sparse.csr_matrix(
            (np.broadcast_to(np.float64(1), (m + n,)), indices, indptr), shape=(n + 1, n + 1)
        )
        self._targets = self._csr.indices[:m]
        self._virtual = self._csr.indices[m:]
        self._inside = np.empty(m, dtype=bool)
        check_time()
        if self.back_src.size:
            _, labels = connected_components(self._csr, directed=True, connection="strong")
            self.cyclic = (np.bincount(labels)[labels] >= 2)[:n]  # on a nontrivial SCC
        else:
            self.cyclic = np.zeros(n, dtype=bool)  # no back edge: a DAG
        self.can_stay = self.quiescent | self.cyclic
        # The back edges between two states on a full-graph cycle; no copy when all are.
        on_cycle = self.cyclic[self.back_src] & self.cyclic[self.back_dst]
        self.cycle_src, self.cycle_dst = self.back_src, self.back_dst
        if not on_cycle.all():
            self.cycle_src, self.cycle_dst = self.back_src[on_cycle], self.back_dst[on_cycle]
        self.plan = None  # a _SweepPlan, built by the first sweep

    def restricted(self, mask: np.ndarray, starts: np.ndarray):
        """The state-changing edges as an (n+1)-node CSR graph in which every
        state outside `mask` has a row of self-loops: a path or cycle can
        enter such a state but never leave it, so a search sees it only as a
        leaf or a singleton SCC, and a caller ANDs its result with `mask`.
        The virtual source n has an edge to each of `starts`, in ascending
        order; nothing leads back to it.

        The matrix is rewritten in place by every call, so no caller may keep
        it, or a view of its arrays, beyond its own use."""
        # targets = src + inside * (dst - src): unlike a masked copy, it
        # takes no branch per edge, which a mixed mask would mispredict.
        # `src` is sorted, so `mask[src]` is read in order.
        np.take(mask, self.src, out=self._inside)
        np.subtract(self.dst, self.src, out=self._targets)
        np.multiply(self._targets, self._inside, out=self._targets)
        np.add(self._targets, self.src, out=self._targets)
        self._virtual.fill(self.n)
        at = np.flatnonzero(starts)
        self._virtual[at] = at
        return self._csr


def _analysis(graph: StateGraph, check_time: Callable = _no_limit) -> _Analysis:
    if graph._analysis is None:
        graph._analysis = _Analysis(graph, check_time)
    return graph._analysis


# --- fair-lasso search -----------------------------------------------------------


@dataclass
class _FailInfo:
    # The reached states that can stay forever, ascending: quiescent ones,
    # which stutter, and the others, which lie on a nontrivial SCC.
    stay: np.ndarray
    # The SCC label of each node of the search's matrix (n + 1 of them), when
    # its SCC pass ran; only those of `stay` are read.
    labels: Optional[np.ndarray]
    # The BFS that found the reached states, from the virtual source n:
    # visiting order, and each state's BFS parent (n for a start).  It also
    # visits, as leaves, states outside the restriction.
    order: np.ndarray
    pred: np.ndarray

    def scc_of(self, i: int) -> np.ndarray:
        """The bool column of the states on the nontrivial SCC of state i,
        one of `stay` that is not quiescent."""
        return self.labels[:-1] == self.labels[i]


def _search_fail(graph: StateGraph, restrict: np.ndarray,
                 starts: np.ndarray) -> Optional[_FailInfo]:
    """Find admitted behaviors that reach a state of `starts & restrict`
    and from there stay in `restrict` forever.  Returns None when no such
    behavior exists.

    The BFS and the SCC pass read one matrix, rewritten once (see
    `_Analysis.restricted`).  The reached states are closed under the edges
    inside `restrict`, so a nontrivial SCC that holds a reached state is
    wholly reached, and it lies on a full-graph cycle: the pass runs only
    when some back edge (see `_Analysis`) joins two reached states on a
    full-graph cycle, and the search keeps the SCCs it finds among the
    reached states.

    The BFS also visits states outside `restrict` that an edge leads to, but
    only as leaves, never a parent or one of `stay`: the states inside keep
    the order and the parents of a BFS that never left the restriction.
    """
    ana = _analysis(graph)
    starts = starts & restrict
    if not starts.any() or not (restrict & ana.can_stay).any():
        return None
    matrix = ana.restricted(restrict, starts)
    order, pred = breadth_first_order(matrix, ana.n, directed=True, return_predecessors=True)
    reached = pred[:ana.n] >= 0  # a start's parent is n
    reached &= restrict
    can_stay, labels = ana.quiescent, None
    if (np.take(reached, ana.cycle_src) & np.take(reached, ana.cycle_dst)).any():
        _, labels = connected_components(matrix, directed=True, connection="strong")
        can_stay = can_stay | (np.bincount(labels)[labels[:ana.n]] >= 2)
    stay = np.flatnonzero(can_stay & reached)
    if stay.size == 0:
        return None
    return _FailInfo(stay, labels, order, pred)


# --- lasso extraction (failure path only) ------------------------------------------


def _bfs_prefix(info: _FailInfo) -> list:
    """The BFS path of `_search_fail` from a start to the nearest state that
    can stay forever (fewest steps, then lowest index), as state indices.

    The BFS is FIFO, so its levels are contiguous in `order` and the
    positions of the parents never decrease along it; each level ends where
    the parents leave the level before, and the walk stops at the first
    level that holds a candidate."""
    order, pred = info.order, info.pred
    n = pred.size - 1
    position = np.empty(n + 1, dtype=np.int32)
    position[order] = np.arange(order.size, dtype=np.int32)
    parent_position = position[pred[order[1:]]]
    hit = np.zeros(order.size, dtype=bool)
    hit[position[info.stay]] = True
    lo, hi = 0, 1  # level 0 is the virtual source
    while not hit[lo:hi].any():
        lo, hi = hi, int(np.searchsorted(parent_position, hi)) + 1
    path = [int(order[lo:hi][hit[lo:hi]].min())]
    while pred[path[-1]] != n:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return path


def _cycle_through(ana: _Analysis, entry: int, members: np.ndarray) -> list:
    """Depth-first walk over state-changing edges inside one SCC, whose
    states are the bool column `members`; returns the first cycle through
    `entry`, preferring lower state indices.  A state's edges are its row of
    `ana.dst`, which holds first copies and no self-loops, between the
    CSR's own `indptr`.

    A state whose subtree is exhausted is never entered again.  Until the
    cycle is found, every path from such a state to `entry` passes through a
    state on the current DFS path (the blocking argument of Johnson, SIAM J.
    Comput. 1975), so no simple path through it closes the loop: skipping it
    finds the same first cycle as a walk over all simple paths, in O(V+E)."""

    indptr = ana._csr.indptr

    def nbrs(u: int) -> list:
        row = ana.dst[indptr[u]:indptr[u + 1]]
        return sorted(row[members[row]].tolist())

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


# --- one leads-to search for every liveness shape ------------------------------


def _verdict_error(name: str, kind: str, exc: EvalError) -> Verdict:
    return Verdict(name=name, kind=kind, status="error", detail=str(exc))


def _preds(shape) -> tuple:
    """The predicates a search for a liveness `shape` reads: the premise,
    for leadsto, then the target."""
    return (shape.lhs, shape.rhs) if isinstance(shape, LeadsTo) else (shape.pred,)


def _starts(shape, premise: np.ndarray, restrict: np.ndarray, n0: int) -> np.ndarray:
    """Where the search for `shape` starts, inside `restrict`: the initial
    states 0..n0-1 for eventually (`Init ~> P`), the `premise` states for
    leadsto, and every state for always eventually (`TRUE ~> P`), which is
    `restrict` itself.  The columns are bools, or the sweep's uint64 words
    with one bit per instance; `premise` is read for leadsto only."""
    if isinstance(shape, AlwaysEventually):
        return restrict
    if isinstance(shape, LeadsTo):
        return premise & restrict
    starts = np.zeros_like(restrict)
    starts[:n0] = restrict[:n0]
    return starts


# Each shape's pass detail, and its fail detail over `start`, `entry` and `forever`.
_DETAILS = {
    Eventually: ("every admitted behavior reaches the target",
                 "never reaches the target: {forever} {entry}"),
    LeadsTo: ("every premise state leads to the conclusion",
              "state {start} satisfies the premise but can avoid the conclusion forever"),
    AlwaysEventually: ("the target recurs on every admitted behavior",
                       "after state {entry} the target never holds again"),
}


def _check_live(graph: StateGraph, shape, name: str, binders: dict) -> Verdict:
    """Search for a behavior that reaches a start of `shape` (see `_starts`)
    and then avoids the target forever.  The counterexample's prefix is the
    discovery path to the search's first state, then the search's BFS path
    from there to the loop: for eventually that first state is initial, and
    for always eventually the BFS path is the loop's entry alone, the lowest
    index that can stay forever.  The loop is a perpetual stutter at a
    quiescent entry, or else a cycle through the entry's SCC
    (`_cycle_through`): a quiescent state lies on no nontrivial SCC.
    `StateGraph.trace` makes the lasso of these state indices."""
    kind = KIND_OF_SHAPE[type(shape)]
    try:
        columns = [graph.holds(e, f"property {name}", binders) for e in _preds(shape)]
    except EvalError as e:
        return _verdict_error(name, kind, e)
    restrict = ~columns[-1]
    starts = _starts(shape, columns[0], restrict, len(graph.initial))
    info = _search_fail(graph, restrict, starts)
    passed, failed = _DETAILS[type(shape)]
    if info is None:
        return Verdict(name=name, kind=kind, status="pass", detail=passed)
    path = _bfs_prefix(info)
    start, entry = path[0], path[-1]
    indices = discovery_path(graph, start)[:-1] + path
    loop_start = len(indices) - 1
    ana = _analysis(graph)
    if ana.quiescent[entry]:
        forever = "stutters forever at quiescent state"
    else:
        indices += _cycle_through(ana, entry, info.scc_of(entry))[1:]
        forever = "cycles forever from state"
    return Verdict(name=name, kind=kind, status="fail", trace=graph.trace(indices, loop_start),
                   detail=failed.format(start=start, entry=entry, forever=forever))


def check_eventually(graph: StateGraph, pred: Expr, *, name: str = "eventually",
                     binders: Optional[dict] = None) -> Verdict:
    """Pass iff every admitted behavior from every initial state reaches a
    state satisfying `pred`."""
    return _check_live(graph, Eventually(pred=pred), name, binders or {})


def check_leadsto(graph: StateGraph, p: Expr, q: Expr, *, name: str = "leadsto",
                  binders: Optional[dict] = None) -> Verdict:
    """Pass iff from every reachable state satisfying `p`, every admitted
    continuation reaches a state satisfying `q`."""
    return _check_live(graph, LeadsTo(lhs=p, rhs=q), name, binders or {})


def check_always_eventually(graph: StateGraph, pred: Expr, *,
                            name: str = "always_eventually",
                            binders: Optional[dict] = None) -> Verdict:
    """Pass iff every admitted behavior visits `pred`-states infinitely
    often.  The counterexample prefix may pass through `pred`-states; only
    the loop must avoid them."""
    return _check_live(graph, AlwaysEventually(pred=pred), name, binders or {})


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

    Level d (BFS depth d) is the index range levels[d]:levels[d + 1], as
    explore recorded it (`graph.levels`), and `_Analysis.level` holds each
    state's d.  A forward edge goes one level deeper.
    Every state past level 0 has one from its BFS parent (`graph.parent`);
    the others are `extra_src`/`extra_dst`, and since `_Analysis.src` is
    sorted, those out of level d are positions extra_out[d]:extra_out[d + 1]."""

    def __init__(self, graph: StateGraph, ana: _Analysis):
        self.parent = np.frombuffer(graph.parent, dtype=np.int64)
        self.levels = np.frombuffer(graph.levels, dtype=np.int64).astype(np.int32)
        next_level = self.levels[1:][ana.level]  # where each state's level ends
        extra = ana.dst >= next_level[ana.src]
        extra &= ana.src != self.parent.astype(np.int32)[ana.dst]
        self.extra_src, self.extra_dst = ana.src[extra], ana.dst[extra]
        self.extra_out = np.searchsorted(self.extra_src, self.levels).astype(np.int32)
        self.quiescent = np.flatnonzero(ana.quiescent).astype(np.int32)


def _spread(ana: _Analysis, allowed: np.ndarray, reach: np.ndarray,
            check_time: Callable = _no_limit) -> np.uint64:
    """Close each bit of `reach` under the state-changing edges into states
    that hold the bit in `allowed`, in place: level by level along the
    forward edges, then along the back edges, and again from the level after
    the lowest one that grew, until no bit moves.  Returns the bits still
    moving after `_SWEEP_ROUNDS` rounds; their reach is unfinished.
    `check_time` runs before each round after the first."""
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
        first = int(ana.level[ana.back_dst[grown != 0]].min()) + 1
        check_time()
    return moved


def _binder_equality(graph: StateGraph, pred: Expr, binder: str) -> Optional[int]:
    """The index of the state variable v when `pred` is `v = binder` or
    `binder = v`, where `binder` names the `forall` binder, else None."""
    if not (isinstance(pred, Binary) and pred.op == "="
            and isinstance(pred.left, Name) and isinstance(pred.right, Name)):
        return None
    var_index = graph.bound.var_index
    for var, other in ((pred.left.name, pred.right.name), (pred.right.name, pred.left.name)):
        if other == binder and var in var_index:
            return var_index[var]
    return None


def _value_slots(column: np.ndarray, values: list) -> tuple:
    """`column` searched among a `forall`'s binder `values`: those, distinct
    and sorted, and each state's index among them, or their count if none."""
    distinct = np.array(sorted(set(values)), dtype=column.dtype)
    at = np.searchsorted(distinct, column)
    at[np.take(distinct, at, mode="clip") != column] = distinct.size
    return distinct, at


def _equality_word(slots: tuple, values: list) -> np.ndarray:
    """Each state's uint64 word with bit k set where its value is values[k],
    one of the `slots` values: a take from a bit table, whose last is none."""
    distinct, at = slots
    bits = np.zeros(distinct.size + 1, dtype=np.uint64)
    np.bitwise_or.at(bits, np.searchsorted(distinct, np.array(values, dtype=distinct.dtype)),
                     np.uint64(1) << np.arange(len(values), dtype=np.uint64))
    return np.take(bits, at)


def _sweep_words(graph: StateGraph, preds: tuple, where: str, slots, instances: list) -> tuple:
    """The sweep's columns of `preds` over a block of up to `_BLOCK`
    instances: one row of n uint64 words per predicate, whose bit k says
    that the predicate holds in a state for instance k, and the int `valid`,
    whose bit k says that instance k's columns were made.

    A predicate `v = x` or `x = v`, with v a variable and x the binder
    (whose values `validate` has made of v's kind), is one take from
    `slots(v)`, v's column searched once among all the binder values
    (`_value_slots`, `_equality_word`).  Any other is one `StateGraph.holds`
    column per instance, packed bit by bit, in the per-instance search's
    order, so it meets the same EvalError; an instance whose columns raise
    keeps its bits clear in every row, and bits past the last instance stay
    clear."""
    n = graph.n_states
    (binder,) = instances[0]
    values = [binders[binder] for binders in instances]
    by_value = {}  # row -> the variable whose column gives it in one pass
    for j, e in enumerate(preds):
        var = _binder_equality(graph, e, binder)
        if var is not None:
            by_value[j] = var
    general = [j for j in range(len(preds)) if j not in by_value]
    packed = np.zeros((len(preds), n, 8), dtype=np.uint8)
    byte = np.zeros((len(general), n), dtype=np.uint8)
    bit = np.empty(n, dtype=np.uint8)
    valid = 0
    for k, binders in enumerate(instances):
        try:
            columns = [graph.holds(preds[j], where, binders) for j in general]
            valid |= 1 << k
        except EvalError:
            columns = []
        for acc, column in zip(byte, columns):
            # A uint8 multiply by 2**j is a shift by j; numpy's uint8 shift
            # loop is about 10 times slower.
            np.multiply(column.view(np.uint8), np.uint8(1 << (k & 7)), out=bit)
            acc |= bit
        if general and (k & 7 == 7 or k == len(instances) - 1):
            packed[general, :, k >> 3] = byte
            byte[:] = 0
    del byte, bit
    words = packed.view(np.uint64)[:, :, 0]  # one row of n words per predicate
    for j, var in by_value.items():
        np.bitwise_and(_equality_word(slots(var), values), np.uint64(valid),
                       out=words[j])
    return words, valid


def _sweep(graph: StateGraph, shape, where: str, check_time: Callable, slots,
           instances: list) -> list:
    """Sweep up to `_BLOCK` instances of an eventually, leadsto or always
    eventually `shape`, one per binder dict in `instances`, at once.

    Bit k of a state's word says, in `allowed`, that instance k's target
    fails there, and in `reach`, that instance k's `_search_fail` reaches
    it.  The tests on the reach are the search's own: a reached quiescent
    state refutes the instance, and a back edge between two reached states
    on a full-graph cycle calls for its SCC pass.  Returns the ascending
    positions of the instances that need the per-instance search, which
    fails them, passes them or reports their error; the sweep passes the
    others.  An instance whose columns raise EvalError (see
    `_sweep_words`) is one of those returned.  `check_time` runs between
    the sweep's passes (see `_spread`)."""
    ana = _analysis(graph)
    if ana.plan is None:
        ana.plan = _SweepPlan(graph, ana)
    plan = ana.plan
    words, valid = _sweep_words(graph, _preds(shape), where, slots, instances)
    check_time()
    allowed = words[-1]
    np.invert(allowed, out=allowed)
    allowed &= np.uint64(valid)
    reach = _starts(shape, words[0], allowed, len(graph.initial))
    # Starts at every allowed state (always eventually) have nothing to spread to.
    flags = np.uint64(0) if reach is allowed else _spread(ana, allowed, reach, check_time)
    flags |= np.bitwise_or.reduce(reach[plan.quiescent])
    flags |= np.bitwise_or.reduce(reach[ana.cycle_src] & reach[ana.cycle_dst])
    flags = int(flags) | ~valid  # and every instance in error
    return [k for k in range(len(instances)) if flags >> k & 1]


def check_property(graph: StateGraph, prop: TemporalProperty,
                   deadline: Optional[Deadline] = None) -> Verdict:
    """Dispatch a declared property; a `forall x in S` binder expands to one
    kernel check per member of S, in order, and a fail names the first
    witnessing value.  The first instance of an eventually, leadsto or
    always eventually property is searched on its own; if it passes,
    `_sweep` takes the rest `_BLOCK` at a time, and the per-instance search
    runs only on those it returns, so the verdict is that of searching
    every instance.  Raises LimitError when `deadline` has passed before a
    sweep or a search, or between the steps of the liveness analysis's
    build or of a sweep."""
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
        slots = functools.cache(lambda var: _value_slots(graph.columns()[var], values))
    else:
        instances = [{}]

    def check_time():
        if deadline is not None and deadline.expired():
            raise deadline.error(f"checking property {prop.name}")

    step = 1 if isinstance(prop.shape, Invariant) else _BLOCK
    if step != 1:
        check_time()
        _analysis(graph, check_time)  # built here, where the deadline reaches its steps
    for i in [0, *range(1, len(instances), step)]:
        if i == 0 or step == 1:
            flagged = [0]
        else:
            check_time()
            flagged = _sweep(graph, prop.shape, where, check_time, slots, instances[i:i + step])
        for k in flagged:
            check_time()
            v = _check_shape(graph, prop, instances[i + k])
            if v.status != "pass":
                if prop.binder is not None:
                    v.binder = values[i + k]
                    v.detail = f"{bname} = {format_value(v.binder)}: {v.detail}"
                return v
    detail = "holds"
    if prop.binder is not None:
        detail = f"holds for all {len(instances)} binder values"
    return Verdict(name=prop.name, kind=prop.kind, status="pass", detail=detail)


def _check_shape(graph: StateGraph, prop: TemporalProperty, binders: dict) -> Verdict:
    shape = prop.shape
    if isinstance(shape, Invariant):
        return check_invariant(graph, shape.pred, name=prop.name, binders=binders)
    if isinstance(shape, Eventually):
        return check_eventually(graph, shape.pred, name=prop.name, binders=binders)
    if isinstance(shape, AlwaysEventually):
        return check_always_eventually(graph, shape.pred, name=prop.name, binders=binders)
    if isinstance(shape, LeadsTo):
        return check_leadsto(graph, shape.lhs, shape.rhs, name=prop.name, binders=binders)
    raise TypeError(f"not a property shape: {shape!r}")
