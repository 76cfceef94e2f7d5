"""Breadth-first construction of the reachable state graph, safety checking,
deadlock detection, and counterexample trace handling.

BFS keeps safety counterexamples shortest in steps.  Deadlock here is the
pragmatic check - a state with no successor at all - which is distinct from
liveness quiescence (no state-changing successor): a state whose only move is
a self-loop is quiescent but not deadlocked.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import Expr, SpecModel, State, Value
from .semantics import (
    BoundSpec,
    EvalError,
    _compile_expr,
    _successor_functions,
    action_successors,
    initial_states,
    successors,
)


class LimitError(Exception):
    """Exploration hit the state or depth cap; never a silent truncation."""


@dataclass
class ExploreLimits:
    max_states: int = 1_000_000
    max_depth: Optional[int] = None


@dataclass
class StateGraph:
    """The explored reachable state space.

    State indices follow BFS discovery order; `parent` links give a shortest
    discovery path from some initial state to every non-initial state, and
    `depth` is that path's length.  A state is identified by its value
    tuple, which requires a validated spec: `validate` fixes each slot's
    kind, so Python's `True == 1` can never equate two distinct states.

    Edges are flat int arrays in CSR form: the edges out of state i are
    positions edge_start[i] to edge_start[i + 1] of `edge_dst` (target
    index) and `edge_action` (index into `spec.actions`), in the order of
    `semantics.successors`.
    """

    bound: BoundSpec
    states: list  # index -> State
    index: dict  # State -> index
    initial: list  # indices of initial states
    edge_start: array  # n + 1 row offsets into edge_dst and edge_action
    edge_dst: array  # target index of each edge
    edge_action: array  # action index of each edge
    parent: array  # index -> predecessor index, -1 for an initial state
    parent_action: array  # index -> action index of the parent edge, -1 for initial
    depth: array  # index -> BFS depth, 0 for initial states
    _analysis: object = field(default=None, compare=False, repr=False)

    @property
    def spec(self) -> SpecModel:
        return self.bound.spec

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.edge_dst)

    def out_edges(self, i: int) -> list:
        """The edges out of state i as (action name, target index) pairs."""
        actions = self.bound.spec.actions
        lo, hi = self.edge_start[i], self.edge_start[i + 1]
        return [(actions[a].name, j)
                for a, j in zip(self.edge_action[lo:hi], self.edge_dst[lo:hi])]


@dataclass
class Trace:
    """A replayable execution: states joined by named action steps.

    `loop_start` marks a lasso: the execution repeats states[loop_start:]
    forever.  The edge closing the loop (last state back to
    states[loop_start]) is `loop_action` when a real action relates them;
    None means the loop is a perpetual stutter at a quiescent state (a
    deadlocked state has no action to name).
    """

    states: list  # nonempty list of State
    actions: list  # action names, len == len(states) - 1
    loop_start: Optional[int] = None
    loop_action: Optional[str] = None


@dataclass
class Verdict:
    """Outcome of one check; a fail always carries a replayable trace."""

    name: str
    kind: str  # deadlock | invariant | eventually | leadsto | always_eventually
    status: str  # pass | fail | error
    trace: Optional[Trace] = None
    detail: str = ""
    binder: Optional[Value] = None


def explore(bound: BoundSpec, limits: Optional[ExploreLimits] = None) -> StateGraph:
    """Build the graph of states reachable from the initial states.

    Breadth-first: states are expanded in index order, which is discovery
    order, so each state's edges are appended as the next CSR row.  Each
    action's successors come from its generated function, in the order of
    semantics.successors, so two explorations of the same BoundSpec produce
    identical graphs.  States are keyed by their value tuples, so `bound`
    must have passed `validate`.  Raises EvalError (with the discovery trace
    of the offending state attached), LimitError, or EvalError on zero
    initial states.
    """
    if limits is None:
        limits = ExploreLimits()
    init = initial_states(bound)
    if not init:
        raise EvalError("spec has no initial states", "init")
    max_states, max_depth = limits.max_states, limits.max_depth

    graph = StateGraph(
        bound=bound, states=[], index={}, initial=[],
        edge_start=array("q", [0]), edge_dst=array("q"), edge_action=array("q"),
        parent=array("q"), parent_action=array("q"), depth=array("q"),
    )
    states, index, depth = graph.states, graph.index, graph.depth
    parent, parent_action = graph.parent, graph.parent_action
    for s in init:
        if s not in index:
            if len(states) >= max_states:
                raise LimitError(f"state limit of {max_states} exceeded")
            index[s] = len(states)
            graph.initial.append(len(states))
            states.append(s)
            parent.append(-1)
            parent_action.append(-1)
            depth.append(0)

    fns = _successor_functions(bound)
    start_append = graph.edge_start.append
    dst_append, action_append = graph.edge_dst.append, graph.edge_action.append
    i = 0
    while i < len(states):
        try:
            rows = [fn(states[i]) for fn in fns]
        except EvalError as e:
            e.trace = reconstruct_trace(graph, i)
            raise
        d = depth[i] + 1
        for a, row in enumerate(rows):
            for t in row:
                j = index.get(t)
                if j is None:
                    if max_depth is not None and d > max_depth:
                        raise LimitError(f"depth limit of {max_depth} exceeded")
                    j = len(states)
                    if j >= max_states:
                        raise LimitError(f"state limit of {max_states} exceeded")
                    index[t] = j
                    states.append(t)
                    parent.append(i)
                    parent_action.append(a)
                    depth.append(d)
                dst_append(j)
                action_append(a)
        start_append(len(graph.edge_dst))
        i += 1
    return graph


def discovery_path(graph: StateGraph, target: int) -> tuple:
    """Shortest discovery path from an initial state to `target`, following
    parent links: (state indices, action names between them)."""
    actions_of = graph.spec.actions
    indices = [target]
    actions = []
    while graph.parent[indices[-1]] >= 0:
        actions.append(actions_of[graph.parent_action[indices[-1]]].name)
        indices.append(graph.parent[indices[-1]])
    indices.reverse()
    actions.reverse()
    return indices, actions


def reconstruct_trace(graph: StateGraph, target: int) -> Trace:
    """The discovery path to `target` as a trace."""
    indices, actions = discovery_path(graph, target)
    return Trace(states=[graph.states[i] for i in indices], actions=actions)


def check_invariant(
    graph: StateGraph,
    pred: Expr,
    bound: Optional[BoundSpec] = None,
    *,
    name: str = "invariant",
    binders: Optional[dict] = None,
) -> Verdict:
    """Pass iff `pred` holds in every stored state; on fail the trace is the
    shortest discovery path to the first violating state in BFS order."""
    bound = bound if bound is not None else graph.bound
    b = binders or {}
    f = _compile_expr(pred, bound, f"property {name}")
    try:
        for i, s in enumerate(graph.states):
            if not f(s, b):
                return Verdict(
                    name=name, kind="invariant", status="fail",
                    trace=reconstruct_trace(graph, i),
                    detail=f"violated at state {i}",
                )
    except EvalError as e:
        return Verdict(name=name, kind="invariant", status="error", detail=str(e))
    return Verdict(
        name=name, kind="invariant", status="pass",
        detail=f"holds in all {graph.n_states} states",
    )


def check_deadlock(graph: StateGraph) -> Verdict:
    """Pass iff every state has at least one outgoing edge (self-loops
    count); on fail the trace leads to the first successor-less state."""
    empty = np.flatnonzero(np.diff(np.frombuffer(graph.edge_start, dtype=np.int64)) == 0)
    if empty.size:
        i = int(empty[0])
        return Verdict(
            name="deadlock", kind="deadlock", status="fail",
            trace=reconstruct_trace(graph, i),
            detail=f"state {i} has no enabled action",
        )
    return Verdict(
        name="deadlock", kind="deadlock", status="pass",
        detail=f"no deadlock in {graph.n_states} states",
    )


def _is_quiescent(state: State, bound: BoundSpec) -> bool:
    return all(t == state for _, t in successors(state, bound))


def replay_trace(bound: BoundSpec, trace: Trace) -> Optional[int]:
    """Re-validate a trace against the spec semantics.

    Returns None when the trace replays, otherwise the first failing index:
    0 when the first state is not an initial state, i > 0 when the step into
    states[i] is not produced by the named action, and len(states) when the
    lasso's loop-closing edge does not hold.
    """
    if not trace.states:
        return 0
    if trace.states[0] not in initial_states(bound):
        return 0
    by_name = {a.name: a for a in bound.spec.actions}
    for i, label in enumerate(trace.actions):
        action = by_name.get(label)
        if action is None:
            return i + 1
        if trace.states[i + 1] not in action_successors(trace.states[i], action, bound):
            return i + 1
    if trace.loop_start is not None:
        last = trace.states[-1]
        target = trace.states[trace.loop_start]
        if trace.loop_action is not None:
            action = by_name.get(trace.loop_action)
            if action is None or target not in action_successors(last, action, bound):
                return len(trace.states)
        else:
            # A pure stutter loop is only admitted forever at a quiescent state.
            if target != last or not _is_quiescent(last, bound):
                return len(trace.states)
    return None
