"""Breadth-first construction of the reachable state graph, safety checking,
deadlock detection, and counterexample trace handling.

Explore runs a breadth-first loop that this module generates per spec
around the actions' code from `semantics._action_source` (see `_RUN_HEAD`),
and expands wide levels as columns of state keys (see `_explore_levels`).
This module alone knows how explore numbers its states, appends CSR rows
and level starts, meets a limit, checks the deadline, and hands a wide
level to the columns.

BFS keeps safety counterexamples shortest in steps.  Deadlock here is the
pragmatic check - a state with no successor at all - which is distinct from
liveness quiescence (no state-changing successor): a state whose only move is
a self-loop is quiescent but not deadlocked.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .model import Expr, SpecModel, State, Value, value_kind
from .semantics import (
    _COLUMN_OPS,
    BoundSpec,
    EvalError,
    _action_source,
    _column_plan,
    _Columns,
    _expr_function,
    _generated,
    _Module,
    action_successors,
    initial_values,
    successors,
)


class LimitError(Exception):
    """A check hit the state, depth or time cap; never a silent truncation.
    A limit hit while exploring carries the graph explored so far, its
    discovery tree derived, as `graph`."""

    def __init__(self, message: str, graph: Optional["StateGraph"] = None):
        super().__init__(message)
        self.graph = graph


@dataclass
class Deadline:
    """A time limit on a whole check: `seconds`, ending at `time.monotonic()`
    value `at`."""

    seconds: float
    at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(seconds, time.monotonic() + seconds)

    def expired(self) -> bool:
        return time.monotonic() > self.at

    def error(self, doing: str, graph: Optional["StateGraph"] = None) -> LimitError:
        return LimitError(f"time limit of {self.seconds:g} s exceeded while {doing}", graph)


@dataclass
class ExploreLimits:
    """Caps on one exploration.  The deadline is checked once per 1,024
    expanded states: after each 1,024th state a level expanded one state at
    a time, and at the end of a level expanded as columns that holds one."""

    max_states: int = 1_000_000
    max_depth: Optional[int] = None
    deadline: Optional[Deadline] = None


class KeyStates(Sequence):
    """The states of a graph explored as columns (see `_explore_levels`):
    their int64 keys in index order, one `array('q')` entry per state, with
    `plan` (a `semantics._column_plan`) to decode them.  A state reads as
    the same tuple the loop would have stored, made when it is read;
    iterating decodes the keys a chunk at a time, and a slice is a list.
    It equals a list of the same states in the same order.  Value columns
    come from `StateGraph.columns`, which decodes them from the keys."""

    _CHUNK = 1 << 12  # states decoded at once while iterating

    def __init__(self, keys: array, plan):
        self.keys = keys
        self.plan = plan

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.plan.states(np.array(self.keys[i], dtype=np.int64))
        return self.plan.state(self.keys[i])

    def __iter__(self):
        for lo in range(0, len(self.keys), self._CHUNK):
            yield from self[lo:lo + self._CHUNK]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, KeyStates)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"KeyStates({list(self)!r})"


@dataclass
class StateGraph:
    """The explored reachable state space.

    State indices follow BFS discovery order, so BFS level d (the states at
    depth d) is the index range levels[d] to levels[d + 1].  A state is
    identified by its value tuple, which requires a validated spec:
    `validate` fixes each slot's kind, so Python's `True == 1` can never
    equate two distinct states.  `states` is a list of those tuples, or,
    when explore expanded some level as columns and none of them raised, a
    `KeyStates`, which stores each state as its int64 key alone and reads
    as the same tuples.  Which of the two holds the states is
    known to this module alone: `columns` gives the states' values as
    numpy columns from either.

    Edges are flat int arrays in CSR form: the edges out of state i are
    positions edge_start[i] to edge_start[i + 1] of `edge_dst` (target
    index) and `edge_action` (index into `spec.actions`), in the order of
    `semantics.successors`.  A level expanded as columns appends its rows
    and new states in the same order as one expanded state by state, so
    the graph does not show which way a level went.

    The discovery tree is `parent` alone: it links every non-initial state
    to its predecessor on a shortest discovery path from some initial
    state, and explore derives it from the edges and levels once its loop
    ends (see `_derive_tree`).  A state's parent edge is the first edge
    into it, so its label is `edge_label(parent[v], v)`, and its depth is
    the level that holds it; the initial states are level 0.
    """

    bound: BoundSpec
    states: Sequence  # index -> State: a list, or a KeyStates
    levels: array  # where each BFS level starts, then n_states
    edge_start: array  # n + 1 row offsets into edge_dst and edge_action
    edge_dst: array  # target index of each edge
    edge_action: array  # action index of each edge
    parent: array  # index -> predecessor index, -1 for an initial state
    _analysis: object = field(default=None, compare=False, repr=False)
    _columns: Optional[_Columns] = field(default=None, init=False, compare=False, repr=False)

    @property
    def spec(self) -> SpecModel:
        return self.bound.spec

    @property
    def initial(self) -> range:
        """The indices of the initial states: level 0."""
        return range(self.levels[1])

    def columns(self) -> _Columns:
        """Variable index -> the variable's value in every state, in index
        order, as a numpy column made on its first read: decoded from the
        keys of a `KeyStates`, or read from the tuples of a list.  The same
        object on every call, so each column is made once per graph."""
        if self._columns is None:
            states, n = self.states, self.n_states
            if isinstance(states, KeyStates):
                self._columns = states.plan.columns(np.frombuffer(states.keys, dtype=np.int64))
            else:
                dtypes = [_Columns._DTYPES[v.kind] for v in self.spec.variables]
                self._columns = _Columns(lambda i: np.fromiter(
                    map(itemgetter(i), states), dtypes[i], count=n))
        return self._columns

    def holds(self, pred: Expr, where: str, binders: dict) -> np.ndarray:
        """Whether `pred` holds in each state, as a bool column in index
        order, which the caller must not write to.

        One numpy expression over `columns()` decides every state at once
        (see `semantics._COLUMN_OPS`), generated once per bound spec,
        predicate and binder names; `binders` (name -> value) are its
        arguments.  When it raises EvalError (an overflow at a corner of
        whole columns, perhaps in a branch that `and`, `or` or `if` would
        never evaluate), the scalar evaluator decides one state after
        another in index order, short-circuiting as specified, and raises
        the located EvalError of the first state whose evaluation fails,
        with `held` set to the values of the states before it."""
        n = self.n_states
        names, values = tuple(binders), tuple(binders.values())
        try:
            f = _expr_function(pred, self.bound, where, _COLUMN_OPS, names)
            held = f(self.columns(), *values)
        except EvalError:
            pass
        else:
            if isinstance(held, np.ndarray) and held.shape == (n,):
                return held.astype(bool, copy=False)
            return np.full(n, bool(held))
        held = np.empty(n, dtype=bool)
        i = 0
        try:
            f = _expr_function(pred, self.bound, where, names=names)
            for i, s in enumerate(self.states):
                held[i] = f(s, *values)
        except EvalError as e:
            e.held = held[:i]
            raise
        return held

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

    def edge_label(self, u: int, v: int) -> Optional[str]:
        """The action name of the first edge u -> v, or None if there is none."""
        return next((label for label, t in self.out_edges(u) if t == v), None)


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
    order, so each state's edges are appended as the next CSR row.  The
    loop that expands them is generated per spec, with the actions' code in
    it (see `_RUN_HEAD`): each successor is interned where it is made and
    its edge appended, in the order of semantics.successors, so two
    explorations of the same BoundSpec produce identical graphs.  When
    every variable is a bool or has a domain, so that a state packs into a
    62-bit key, the first level at least _WIDE states wide and every level
    after it are expanded at once instead, as numpy columns of keys, into
    the same rows and states, and the graph keeps the keys as its states
    (see `_explore_levels`), unless a column level raises EvalError.
    Exploring keeps only the states, the edges and the level starts;
    `parent` is derived from them afterwards (see `_derive_tree`), on the
    limit and error paths too.  The loop's state -> index dict is
    explore's own: the graph does not keep it.  States are
    keyed by their value tuples, so `bound` must have passed `validate`.
    Raises EvalError (with the discovery trace of the offending state
    attached), LimitError (with the graph explored so far, except at the
    initial states), or EvalError at the first variable with no initial
    value.  The initial states are counted from each variable's values
    before any is built, so `max_states` bounds them too.
    """
    if limits is None:
        limits = ExploreLimits()
    per_var = initial_values(bound)
    for v, values in zip(bound.spec.variables, per_var):
        if not values:
            raise EvalError("spec has no initial states", f"var {v.name}", v.line, v.col)
    n_init = math.prod(len(values) for values in per_var)
    max_states, max_depth = limits.max_states, limits.max_depth
    if n_init > max_states:
        raise LimitError(f"state limit of {max_states} exceeded")
    init = [tuple(combo) for combo in itertools.product(*per_var)]
    for plan in (_column_plan(bound), None):  # None: again, after a column level raised
        graph = StateGraph(bound=bound, states=list(init), levels=array("q", [0, len(init)]),
                           edge_start=array("q", [0]), edge_dst=array("q"),
                           edge_action=array("q"), parent=array("q"))
        run = _explore_function(bound, graph, {s: i for i, s in enumerate(init)})
        try:
            stopped = _explore_levels(graph, run, plan, limits)
        except EvalError as e:
            _derive_tree(graph)
            # The state being expanded is the one whose CSR row is still open.
            e.trace = reconstruct_trace(graph, len(graph.edge_start) - 1)
            raise
        del run  # and with it the loop's state -> index dict
        if stopped != "columns":
            break
    _derive_tree(graph)
    if stopped == "depth":
        raise LimitError(f"depth limit of {max_depth} exceeded", graph)
    if stopped == "states":
        raise LimitError(f"state limit of {max_states} exceeded", graph)
    if stopped == "time":
        last = len(graph.edge_start) - 2  # the last state expanded
        depth = bisect.bisect_right(graph.levels, last) - 1
        raise limits.deadline.error(
            f"exploring ({len(graph.states)} states, depth {depth})", graph)
    return graph


# The first BFS level at least this many states wide, and every level after
# it, is expanded as numpy columns when the spec has a column plan (see
# `semantics._column_plan`); the levels before it run through the generated
# loop one state at a time.  On panels-wide (15 actions), a column level
# whose keys are looked up in a `_KeyTable` costs 0.3-0.4 ms plus 0.5-0.7 us
# a state and the loop 4.7-5.7 us a state: they break even at 70-90 states
# (with a `_KeyIndex`, 0.3-0.4 ms plus 0.7 us a state, 80-110 states), and
# the two explore panels-wide in 20 ms either way (30 ms with a
# `_KeyIndex`).  CPU time in one warm process, medians of 15 rounds, a
# level's cost fitted over its 16 levels (2 cores, Python 3.11, numpy 2.4).
# So the switch pays on deep, narrow graphs: `examples/math_domains.spa`,
# whose keys take a `_KeyIndex`, at n = 40 (111 of its 120 levels hold under
# 64 states) explores in 12 ms with it and 34 ms with columns from level 0,
# and at n = 100 in 70 and 97 ms (explore CPU time, medians of 15
# interleaved rounds).
_WIDE = 64

# The explore loop, generated once per bound spec around every action's code
# (see `semantics._action_source`): `_explore_module` makes one function
# `explore(index, <graph containers>, <namespace names>)`, run once per graph,
# which binds the interning dict `index`, the containers `_GRAPH_ARGS` and
# the module's names as closure cells, and returns `run`.  `_GRAPH_NAMES`
# binds the names the loop calls to their methods.
#
# run(max_states, max_depth, deadline, wide) expands the states in index
# order from state 0, with the initial states alone in `states`, `index`
# mapping them to their indices, and level 1 starting after them.  Each
# successor is interned where it is made and its edge appended, in the order
# of `successors`; a new state is appended to `states` and nothing else, each
# state's edges close its CSR row, and the index where each BFS level starts
# is appended once that level is complete.  `m` is the number of states, `d`
# the depth of the successors made, and `lend` where the level being
# expanded ends: the states from `lend` on are at depth d.  Past `cap` the
# states pass a limit: past `lend` when d passes `max_depth` (`deep`), else
# past `max_states`, which no initial state passes.  `run` returns "depth" or
# "states" once a state's new successors pass that limit, "time" when
# `deadline` has expired at a multiple of 1,024 expanded states, "level" at
# the start of a level at least `wide` states wide, with that level's end
# appended to `levels` and none of its states expanded, or None once every
# state is expanded.  An EvalError leaves the row of the state being expanded
# open in `edge_start`.  The loop records no discovery tree; `explore`
# derives it from the edges and levels afterwards.
_GRAPH_ARGS = ("states", "levels", "edge_start", "edge_dst", "edge_action")
_GRAPH_NAMES = ["intern = index.setdefault", "add_state = states.append",
                "add_level = levels.append", "add_start = edge_start.append",
                "add_dst = edge_dst.append", "add_action = edge_action.append"]
_RUN_HEAD = """\
    def run(max_states, max_depth, deadline, wide):
        m = lend = len(states)
        d = 1
        deep = max_depth is not None and d > max_depth
        cap = lend if deep else max_states
        for i, s in enumerate(states):  # `states` grows as the loop runs
            if i == lend:
                d += 1
                lend = m
                add_level(lend)
                if lend - i >= wide:
                    return "level"
                deep = max_depth is not None and d > max_depth
                cap = lend if deep else max_states
"""
_RUN_TAIL = """\
            add_start(len(edge_dst))
            # Checked once the state is expanded, so an EvalError at this
            # state wins over a limit it reaches, and a limit over a later
            # EvalError; the first state to make a state past `cap` meets
            # the limit first.
            if m > cap:
                return "depth" if deep else "states"
            if deadline is not None and not (i + 1) & 1023 and deadline.expired():
                return "time"
    return run
"""


def _explore_module(bound: BoundSpec) -> tuple:
    """(module, source) of the module that explores `bound` (see
    `_RUN_HEAD`).  The module's helper functions sit inside `explore`, where
    the names they read are closure cells."""
    mod = _Module()
    actions = []
    for a, action in enumerate(bound.spec.actions):
        intern = ["j = intern(t, m)",
                  "if j == m:",
                  "    add_state(t)",
                  "    m += 1",
                  f"add_dst(j); add_action({a})"]
        actions.append(_action_source(bound, action, mod, intern, 3, frozenset({"m"})))
    lines = ["    " + line for line in _GRAPH_NAMES]
    lines += ["    " + line for d in mod.defs for line in d.splitlines()]
    mod.defs = []
    params = ", ".join(["index", *_GRAPH_ARGS, *mod.ns])
    body = "\n".join(line for x in actions for line in x.lines)
    source = "\n".join([f"def explore({params}):", *lines, _RUN_HEAD + body, _RUN_TAIL])
    return mod, source


def _explore_function(bound: BoundSpec, graph: StateGraph, index: dict) -> Callable:
    """`run` over `graph`, whose initial states `index` maps to their
    indices (see `_RUN_HEAD`).  The module is compiled once per bound
    spec."""
    def make():
        mod, source = _explore_module(bound)
        return mod.ns, mod.run(source, f"<explore {bound.spec.name}>")["explore"]
    ns, factory = _generated(bound._generated, bound.spec, ("explore",), make)
    return factory(index, **{name: getattr(graph, name) for name in _GRAPH_ARGS}, **ns)


def _explore_levels(graph: StateGraph, run, plan, limits: ExploreLimits) -> Optional[str]:
    """Expand every state of `graph`, which holds its initial states alone,
    as `run` does (see `_RUN_HEAD`), and return what it returns, or
    "columns" when a column level raised EvalError.

    Without a column plan, `run` expands them all.  With one, `run` stops
    at the first level at least _WIDE states wide.  From there on the
    graph's states are their keys (a `KeyStates`, in place of the list of
    tuples), and every level, however narrow, is expanded as columns of
    keys; a level whose new states would pass `max_states` or `max_depth` is
    cut where the loop stops (see `_expand_level`), so the graph stays a
    `KeyStates`.  The known keys are looked up in a `_KeyTable` when the
    plan's keys have at most _DENSE_BITS bits, else in a `_KeyIndex`.
    Columns evaluate both sides of `if`, `and` and `or` in every state, so
    they can raise where the loop does not; then `explore` drops this graph
    and explores again with the loop alone.  So a graph's store changes at
    most once, from tuples to keys, and the graph is the loop's: a column
    level numbers its new states in order of their first edge, as the loop
    does.  The deadline is checked after a column level in which a 1,024th
    state was expanded, as the loop does after each 1,024th."""
    levels = graph.levels
    if plan is None or levels[1] < _WIDE:
        stopped = run(limits.max_states, limits.max_depth, limits.deadline,
                      sys.maxsize if plan is None else _WIDE)
        if stopped != "level":
            return stopped
    frontier = plan.keys(graph.states)
    ids = _KeyTable(plan.bits) if plan.bits <= _DENSE_BITS else _KeyIndex()
    ids.add(frontier, 0)
    keys = array("q")
    keys.frombytes(frontier.view(np.uint8))
    graph.states = KeyStates(keys, plan)
    frontier = frontier[levels[-2]:]
    while True:
        start, end = levels[-2], levels[-1]
        try:
            new, stopped = _expand_level(graph, plan, ids, frontier, len(levels) - 1, limits)
        except EvalError:
            return "columns"
        if stopped is not None:
            return stopped
        if limits.deadline is not None and start >> 10 != end >> 10 and limits.deadline.expired():
            return "time"
        if not new.size:
            return None
        levels.append(len(keys))
        frontier = new


def _expand_level(graph: StateGraph, plan, ids, frontier: np.ndarray, depth: int,
                  limits: ExploreLimits) -> tuple:
    """Expand the states with keys `frontier`, the last `frontier.size`
    states of `graph`, whose states are a `KeyStates`, as columns: look up
    every edge's target in `ids`, a `_KeyTable` or a `_KeyIndex`, and append
    the states' CSR rows and the new states' keys, numbered in order of
    their first edge, to `graph` and to `ids`.  Returns the new states' keys
    and the limit met, "depth", "states" or None.  Raises EvalError, with
    `graph` and `ids` as they were, when the columns do.

    New states, at `depth`, pass a limit from index `cap` on: from the
    level's start when `depth` passes `max_depth`, else from `max_states`.
    The loop stops after the row that makes state `cap`, so when the level
    would number a state `cap`, only its rows up to the one that holds that
    state's first edge, and the new states first reached in them, are
    appended; `ids` forgets the others."""
    targets, actions, counts = plan.expand(frontier)
    keys = graph.states.keys
    n = len(keys)
    dst, fresh, first = ids.intern(targets, n)
    deep = limits.max_depth is not None and depth > limits.max_depth
    cap = n if deep else limits.max_states
    ends = np.cumsum(counts)  # where each row's edges end
    stopped, kept = None, fresh.size
    if n + fresh.size > cap:
        ends = ends[:np.searchsorted(ends, first[cap - n], "right") + 1]
        edges = int(ends[-1])
        kept = int(np.searchsorted(first, edges))
        dst, actions = dst[:edges], actions[:edges]
        stopped = "depth" if deep else "states"
    ids.keep(fresh, kept, n)
    fresh = fresh[:kept]
    # frombytes takes the columns' buffers as bytes, without a copy
    graph.edge_start.frombytes(
        (ends + len(graph.edge_dst)).astype(np.int64, copy=False).view(np.uint8))
    graph.edge_dst.frombytes(dst.view(np.uint8))
    graph.edge_action.frombytes(actions.view(np.uint8))
    keys.frombytes(fresh.view(np.uint8))
    return fresh, stopped


# Keys of at most this many bits are looked up in a `_KeyTable`, one entry
# per possible key, and wider ones in a `_KeyIndex`.  The table is int64, the
# dtype of the keys, the edge targets and `edge_dst`, so that no lookup
# converts a column; it is allocated with np.zeros, so only the pages that
# hold a key explored become resident, and it holds at most 2**20 entries of
# 8 bytes, 8 MB, however few states a spec reaches.  Panels-wide's keys have
# 15 bits and panels' at K = 6 have 18; math_domains.spa's at n = 600 have 35.
_DENSE_BITS = 20


class _KeyTable:
    """State key -> state index, for keys below 2**bits, as a direct-address
    table (Cormen et al., Introduction to Algorithms, section 11.1): the
    entry at each key holds its state's index + 1, 0 for a key not added, so
    a key is looked up with one array read."""

    def __init__(self, bits: int):
        self.table = np.zeros(1 << bits, dtype=np.int64)

    def add(self, keys: np.ndarray, first: int) -> None:
        """Add `keys` as the states numbered from `first` on."""
        self.table[keys] = np.arange(first + 1, first + 1 + keys.size)

    def intern(self, targets: np.ndarray, n: int) -> tuple:
        """(dst, fresh, first): the state index of each of `targets`, the
        keys not added numbered from `n` on in order of their first
        occurrence; those keys in that order; and the position of each
        one's first occurrence, ascending.  The table holds their numbers
        from here on, until `keep` forgets those a cut leaves out."""
        table = self.table
        dst = table.take(targets)
        unseen = np.flatnonzero(dst == 0)
        new = targets[unseen]
        # Each edge to a key not added writes its position, made negative,
        # at that key's entry, 0 before: the minimum is its first edge's.
        # (np.minimum.at is a fast loop from numpy 1.25 on.)
        at = unseen - targets.size
        np.minimum.at(table, new, at)
        firsts = table.take(new) == at
        fresh, first = new[firsts], unseen[firsts]
        self.add(fresh, n)
        dst[unseen] = table.take(new)
        dst -= 1
        return dst, fresh, first

    def keep(self, fresh: np.ndarray, kept: int, n: int) -> None:
        """Keep the first `kept` of the keys `intern` numbered from `n` on
        as `fresh`, and forget the others."""
        self.table[fresh[kept:]] = 0


class _KeyIndex:
    """State key -> state index, for the states added, as sorted runs of
    numpy arrays, no Python object per state, for keys too wide for a
    `_KeyTable`: each run is at most half as long as the one before it, so
    a key is looked up in O(log n) runs, and each key is merged into
    O(log n) runs in all."""

    def __init__(self):
        self.runs: list = []  # (sorted keys, their state indices), longest first

    def add(self, keys: np.ndarray, first: int) -> None:
        """Add `keys` as the states numbered from `first` on."""
        if not keys.size:
            return
        run = (keys, np.arange(first, first + keys.size))
        while self.runs and self.runs[-1][0].size <= 2 * run[0].size:
            last = self.runs.pop()
            run = (np.concatenate([last[0], run[0]]), np.concatenate([last[1], run[1]]))
        order = np.argsort(run[0])
        self.runs.append((run[0][order], run[1][order]))

    def intern(self, targets: np.ndarray, n: int) -> tuple:
        """`_KeyTable.intern`'s (dst, fresh, first), from one binary search
        of each distinct target in each run.  Adds nothing."""
        unique, first, inverse = np.unique(targets, return_index=True, return_inverse=True)
        index = np.full(unique.size, -1, dtype=np.int64)  # -1: not added
        for known, ids in self.runs:
            at = np.minimum(np.searchsorted(known, unique), known.size - 1)
            hit = known[at] == unique
            index[hit] = ids[at[hit]]
        new = np.flatnonzero(index < 0)
        new = new[np.argsort(first[new])]  # in order of their first occurrence
        index[new] = np.arange(n, n + new.size)
        return index[inverse], unique[new], first[new]

    def keep(self, fresh: np.ndarray, kept: int, n: int) -> None:
        """Add the first `kept` of the keys `intern` numbered from `n` on as
        `fresh`."""
        self.add(fresh[:kept], n)


def _derive_tree(graph: StateGraph) -> None:
    """Fill `parent` from the edges and level starts of a graph explored in
    full or in part, and end `levels` at `n_states`.

    A new state is numbered len(states) right before its first edge is
    appended, so edge e discovers a state exactly when its target is above
    every earlier edge's target and every initial state: the tree edges
    discover the states past the initial ones in index order, and each
    one's parent is the row its tree edge lies in.  `parent` is a fresh
    `array('q')` buffer written through a numpy view, so no second copy of
    it stays alive."""
    n, n0 = graph.n_states, graph.levels[1]
    if graph.levels[-1] < n:
        graph.levels.append(n)  # a partial graph: the last level is open
    dst = np.frombuffer(graph.edge_dst, dtype=np.int64)
    above = np.empty_like(dst)  # the highest index numbered before each edge
    if dst.size:
        above[0] = n0 - 1
        above[1:] = dst[:-1]
        np.maximum.accumulate(above, out=above)
    tree = np.flatnonzero(dst > above)
    del above
    graph.parent = array("q", [-1]) * n
    rows = np.searchsorted(np.frombuffer(graph.edge_start, dtype=np.int64), tree, "right")
    rows -= 1  # the row of an edge, the open row included
    np.frombuffer(graph.parent, dtype=np.int64)[n0:] = rows


def discovery_path(graph: StateGraph, target: int) -> list:
    """The indices of the states on the shortest discovery path from an
    initial state to `target`, following parent links.  The step from
    `parent[v]` to `v` is the first edge between them, `edge_label`'s."""
    indices = [target]
    while graph.parent[indices[-1]] >= 0:
        indices.append(graph.parent[indices[-1]])
    indices.reverse()
    return indices


def reconstruct_trace(graph: StateGraph, target: int) -> Trace:
    """The discovery path to `target` as a trace."""
    indices = discovery_path(graph, target)
    return Trace(states=[graph.states[i] for i in indices],
                 actions=[graph.edge_label(u, v) for u, v in zip(indices, indices[1:])])


def check_invariant(
    graph: StateGraph,
    pred: Expr,
    *,
    name: str = "invariant",
    binders: Optional[dict] = None,
) -> Verdict:
    """Pass iff `pred` holds in every stored state; on fail the trace is the
    shortest discovery path to the first violating state in BFS order.
    `StateGraph.holds` decides the states; when it raises EvalError, a
    violation in a state before the failing one wins over the error."""
    error = None
    try:
        held = graph.holds(pred, f"property {name}", binders or {})
    except EvalError as e:
        held, error = e.held, e
    false = np.flatnonzero(np.logical_not(held))
    if false.size:
        i = int(false[0])
        return Verdict(
            name=name, kind="invariant", status="fail",
            trace=reconstruct_trace(graph, i),
            detail=f"violated at state {i}",
        )
    if error is not None:
        return Verdict(name=name, kind="invariant", status="error", detail=str(error))
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
    lasso's loop-closing edge does not hold.  A state with too few or too
    many values, or one of the wrong kind (True for 1), fails at its index.
    When there are not len(states) - 1 actions, the first step that one of
    the two lists lacks fails; a `loop_start` that is not an int index into
    `states`, or a `loop_action` without one, fails at len(states).
    """
    kinds = [var.kind for var in bound.spec.variables]

    def malformed(state) -> bool:
        # Values of different kinds can compare equal: True == 1.
        try:
            return [value_kind(v) for v in state] != kinds
        except TypeError:  # not a value at all
            return True

    if not trace.states or malformed(trace.states[0]) or any(
            v not in vs for v, vs in zip(trace.states[0], initial_values(bound))):
        return 0
    by_name = {a.name: a for a in bound.spec.actions}
    steps = min(len(trace.actions), len(trace.states) - 1)
    for i, label in enumerate(trace.actions[:steps]):
        action = by_name.get(label)
        if action is None or malformed(trace.states[i + 1]) or \
                trace.states[i + 1] not in action_successors(trace.states[i], action, bound):
            return i + 1
    if len(trace.actions) != len(trace.states) - 1:
        return steps + 1
    start, end = trace.loop_start, len(trace.states)
    if start is None:
        return None if trace.loop_action is None else end
    if isinstance(start, bool) or not isinstance(start, int) or not 0 <= start < end:
        return end
    last, target = trace.states[-1], trace.states[start]
    if trace.loop_action is None:
        # A pure stutter loop is only admitted forever at a quiescent state.
        closes = target == last and _is_quiescent(last, bound)
    else:
        action = by_name.get(trace.loop_action)
        closes = action is not None and target in action_successors(last, action, bound)
    return None if closes else end
