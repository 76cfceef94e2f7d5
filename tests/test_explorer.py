"""Exploration, safety checks, deadlock, and trace machinery."""

import ast
import copy
import gc
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (DENSE_BOUNDS, build, build_graph, corpus_path, explore_with, graph_fields,
                      index_of)
from spacheck import (
    EvalError,
    ExploreLimits,
    LimitError,
    Trace,
    bind_constants,
    check_deadlock,
    check_eventually,
    check_invariant,
    check_property,
    explore,
    parse_spec,
    reconstruct_trace,
    replay_trace,
    validate,
)
from spacheck import cli, explorer, semantics
from spacheck.explorer import Deadline, KeyStates, _explore_module
from spacheck.model import state_to_record
from spacheck.parser import _Parser, tokenize
from spacheck.semantics import _column_plan
from test_successors import _KINDS


def parse_expr(text: str):
    return _Parser(tokenize(text)).expr()


# --- exploration vs independent enumerations ------------------------------------


def test_clock_graph_counts(clock_src):
    bound, graph = build_graph(clock_src)
    assert graph.n_states == 24
    assert graph.n_transitions == 24
    assert all(len(graph.out_edges(i)) == 1 for i in range(graph.n_states))
    # hand-coded transition function agrees edge by edge
    for i, s in enumerate(graph.states):
        (label, j), = graph.out_edges(i)
        assert label == "Next"
        assert graph.states[j] == oracles.clock_move(s)
    assert set(graph.states) == oracles.clock_states()


@pytest.mark.parametrize("n,expected", [(1, 4), (2, 12), (3, 24), (4, 40)])
def test_math_state_counts_match_hand_enumeration(math_src, n, expected):
    bound, graph = build_graph(math_src, {"max_num_q": n})
    hand = oracles.math_reachable(n)
    assert graph.n_states == len(hand) == expected
    assert {tuple(s) for s in graph.states} == hand


def test_math_matches_fixpoint_oracle(math_src, clock_src):
    for src, consts in ((math_src, {"max_num_q": 3}), (clock_src, {})):
        bound, graph = build_graph(src, consts)
        assert set(graph.states) == oracles.fixpoint_reachable(bound)


def test_exploration_is_deterministic(math_src):
    bound1, g1 = build_graph(math_src, {"max_num_q": 3})
    bound2, g2 = build_graph(math_src, {"max_num_q": 3})
    assert graph_fields(g1, levels=True) == graph_fields(g2, levels=True)


def test_graph_structure_invariants(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    n = graph.n_states
    index = index_of(graph)
    assert sorted(index.values()) == list(range(n))
    assert all(index[s] == i for i, s in enumerate(graph.states))
    for i in range(n):
        for _, j in graph.out_edges(i):
            assert 0 <= j < n
    parent_action = graph_fields(graph)["parent_action"]
    for i in range(n):
        if graph.parent[i] < 0:
            assert i in graph.initial
        else:
            pred, label = graph.parent[i], bound.spec.actions[parent_action[i]].name
            assert pred < i
            assert any(t == i for a, t in graph.out_edges(pred) if a == label)


def test_zero_initial_states_is_an_error():
    bound = build("spec t\nvar x : int init in 5..3\naction A { when true }")
    with pytest.raises(EvalError, match="no initial states"):
        explore(bound)


def test_state_limit(math_src):
    bound = build(math_src, {"max_num_q": 3})
    with pytest.raises(LimitError, match="state limit"):
        explore(bound, ExploreLimits(max_states=10))


def test_depth_limit(math_src):
    bound = build(math_src, {"max_num_q": 3})
    with pytest.raises(LimitError, match="depth limit"):
        explore(bound, ExploreLimits(max_depth=2))
    # a graph fully within the limit explores fine
    assert explore(bound, ExploreLimits(max_depth=9)).n_states == 24


def test_eval_error_carries_discovery_trace():
    # overflow fires two steps in; the error carries the path that got there
    bound = build(
        "spec t\nvar x : int init 2305843009213693952\n"
        "action Double { when x < 4611686018427387904 x' = x * 2 }\n"
        "action Boom { when x >= 4611686018427387904 x' = x * 4 }\n"
    )
    with pytest.raises(EvalError, match="overflow") as err:
        explore(bound)
    assert err.value.trace is not None
    assert len(err.value.trace.states) == 2
    assert err.value.trace.actions == ["Double"]


# --- invariants ---------------------------------------------------------------


def test_clock_invariant_passes(clock_src):
    bound, graph = build_graph(clock_src)
    v = check_invariant(graph, parse_expr("hr in 1..12"))
    assert v.status == "pass"


def test_math_bad_invariant_fails_at_init(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_invariant(graph, parse_expr("num = count_right + count_wrong"))
    assert v.status == "fail"
    assert len(v.trace.states) == 1
    assert v.trace.actions == []
    assert v.trace.loop_start is None
    assert state_to_record(v.trace.states[0], bound.spec) == oracles.math_init()
    assert replay_trace(bound, v.trace) is None


def test_math_corrected_invariant_passes(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_invariant(graph, parse_expr('result = "" or num = count_right + count_wrong'))
    assert v.status == "pass"


def test_invariant_true_false_extremes(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 2})
    assert check_invariant(graph, parse_expr("true")).status == "pass"
    v = check_invariant(graph, parse_expr("false"))
    assert v.status == "fail"
    assert len(v.trace.states) == 1


def test_earlier_violation_beats_later_overflow():
    # x + K is INT_MAX at x = 1, which violates the invariant, and leaves
    # 64 bits at x = 2 and 3: the first violating state in BFS order wins,
    # though a whole-graph evaluation of the predicate would overflow.
    bound, graph = build_graph(
        "spec t\nvar x : int init 0\n"
        "action Inc { when x < 3 x' = x + 1 }\n"
        "invariant Safe: x < 1 or x + 9223372036854775806 < 0\n"
    )
    assert [s[0] for s in graph.states] == [0, 1, 2, 3]
    prop = bound.spec.properties[0]
    for v in (check_invariant(graph, prop.shape.pred, name="Safe"),
              check_property(graph, prop)):
        assert (v.status, v.detail) == ("fail", "violated at state 1")
        assert [s[0] for s in v.trace.states] == [0, 1]
        assert replay_trace(bound, v.trace) is None
    with pytest.raises(EvalError, match="overflow"):
        oracles.evaluate(prop.shape.pred, graph.states[2], {}, bound)


_SAFE = ("spec t\nvar x : int domain 0..3 init 0\n"
         "action Inc { when x < 3 x' = x + 1 }\n")


@pytest.mark.parametrize("pred,want", [
    # x + K is INT_MAX at x = 1 and leaves 64 bits at x = 2 and 3, so the
    # column raises EvalError and the scan finds state 1 first
    ("x < 1 or x + 9223372036854775806 < 0", "violated at state 1"),
    # the scan raises at state 2, where x + K first leaves 64 bits
    ("x < 2 or x + 9223372036854775806 < 0", "property Safe at 4:28: integer overflow"),
    ("x < 2", "violated at state 2"),
    ("x < 4", "holds in all 4 states"),
    ("x > 5", "violated at state 0"),
    ("true", "holds in all 4 states"),  # one value, not a column
], ids=["overflow-after-violation", "overflow-first", "violated", "holds", "first", "constant"])
def test_invariant_on_keys_matches_the_scan(pred, want, monkeypatch):
    """Either store tests the invariant as one column, and the scalar
    evaluator decides state by state when the column raises EvalError: the
    verdict and trace are the same over keys as over a list of the same
    states."""
    bound = build(_SAFE + f"invariant Safe: {pred}\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", 1)
        keyed = explore(bound)
    listed = explore(bound)
    assert isinstance(keyed.states, KeyStates) and type(listed.states) is list
    assert keyed == listed
    prop = bound.spec.properties[0]
    verdicts = [check_invariant(g, prop.shape.pred, name="Safe") for g in (keyed, listed)]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].detail == want
    if verdicts[0].trace is not None:
        assert replay_trace(bound, verdicts[0].trace) is None
    if "+" not in pred:
        # the column decides alone, on either store
        evaluator = explorer._expr_function

        def column_only(e, bound, where, ops=None, names=()):
            assert ops is explorer._COLUMN_OPS, "the scalar evaluator ran"
            return evaluator(e, bound, where, ops, names)

        monkeypatch.setattr(explorer, "_expr_function", column_only)
        for graph in (keyed, listed):
            assert check_invariant(graph, prop.shape.pred, name="Safe") == verdicts[0]


def test_column_explore_leaves_the_index_unbuilt():
    """The loop's state -> index dict is explore's own: no field of the
    graph holds a dict, whichever store holds the states."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", 40)
        keyed = explore(build(_CUBE))
    listed = explore(build(chain(10)))
    assert isinstance(keyed.states, KeyStates) and type(listed.states) is list
    for graph in (keyed, listed):
        assert not [name for name, value in vars(graph).items() if isinstance(value, dict)]
    assert len(keyed.states) == 512
    assert set(keyed.states) == {(a, b, c) for a in range(8) for b in range(8) for c in range(8)}
    assert listed.states == [(x,) for x in range(11)]


# --- deadlock ------------------------------------------------------------------


def test_math_has_no_deadlock(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    assert check_deadlock(graph).status == "pass"


def test_clock_has_no_deadlock(clock_src):
    bound, graph = build_graph(clock_src)
    assert check_deadlock(graph).status == "pass"


def test_buggy_math_deadlocks(buggy_src):
    bound, graph = build_graph(buggy_src, {"max_num_q": 3})
    v = check_deadlock(graph)
    assert v.status == "fail"
    final = state_to_record(v.trace.states[-1], bound.spec)
    assert final["num"] == 4
    assert final["result"] in ("Right", "Wrong")
    # no action is enabled in the deadlocked state
    from spacheck import successors

    assert successors(v.trace.states[-1], bound) == []
    assert len(v.trace.states) == 12  # three phases per question, questions 1..4
    assert replay_trace(bound, v.trace) is None


# --- trace reconstruction and replay -----------------------------------------------


def test_initial_state_trace_is_single(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    t = reconstruct_trace(graph, graph.initial[0])
    assert len(t.states) == 1
    assert t.actions == []


def test_trace_not_longer_than_depth(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    depth = [0] * graph.n_states
    for i in range(graph.n_states):
        if graph.parent[i] >= 0:
            depth[i] = depth[graph.parent[i]] + 1
    assert graph_fields(graph)["depth"] == depth
    for i in range(graph.n_states):
        assert len(reconstruct_trace(graph, i).states) == depth[i] + 1


def test_replay_detects_any_perturbation(buggy_src):
    bound, graph = build_graph(buggy_src, {"max_num_q": 3})
    trace = check_deadlock(graph).trace
    assert replay_trace(bound, trace) is None
    mutated = Trace(
        states=list(trace.states), actions=list(trace.actions),
        loop_start=trace.loop_start,
    )
    mid = len(trace.states) // 2
    record = state_to_record(trace.states[mid], bound.spec)
    record["num"] += 1
    mutated.states[mid] = tuple(record[v.name] for v in bound.spec.variables)
    assert replay_trace(bound, mutated) == mid
    # the same values with each bool as an int, which compares equal
    mutated.states[mid] = tuple(int(v) if isinstance(v, bool) else v for v in trace.states[mid])
    assert mutated.states[mid] == trace.states[mid]
    assert replay_trace(bound, mutated) == mid


def test_replay_single_state_trace_checks_initial(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    good = Trace(states=[graph.states[graph.initial[0]]], actions=[])
    assert replay_trace(bound, good) is None
    other = list(graph.states[graph.initial[0]])
    other[0] = 2  # num=2 is not initial
    bad = Trace(states=[tuple(other)], actions=[])
    assert replay_trace(bound, bad) == 0
    other[0] = True  # num=1 as a bool, which compares equal
    assert tuple(other) == good.states[0]
    assert replay_trace(bound, Trace(states=[tuple(other)], actions=[])) == 0


def test_replay_rejects_unknown_action(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    root = graph.initial[0]
    label, target = graph.out_edges(root)[0]
    s0, s1 = graph.states[root], graph.states[target]
    assert replay_trace(bound, Trace(states=[s0, s1], actions=["Nope"])) == 1
    assert replay_trace(bound, Trace(states=[s0, s1], actions=[label])) is None


def test_replay_fails_at_the_first_step_one_list_lacks(clock_src):
    bound = build(clock_src)
    s = [(12, "am"), (1, "am"), (2, "am")]
    assert replay_trace(bound, Trace(states=s, actions=["Next", "Next"])) is None
    # too few actions: the step into the first state without one fails
    assert replay_trace(bound, Trace(states=[(12, "am"), (5, "pm")], actions=[])) == 1
    assert replay_trace(bound, Trace(states=s, actions=["Next"])) == 2
    # too many: the first action without a state to step into fails
    assert replay_trace(bound, Trace(states=[(12, "am")], actions=["Next"])) == 1
    assert replay_trace(bound, Trace(states=s, actions=["Next"] * 3)) == 3
    # unless an earlier step fails first
    assert replay_trace(bound, Trace(states=[(12, "am"), (5, "pm"), (6, "pm")],
                                     actions=["Next"])) == 1


def test_replay_fails_a_loop_start_that_is_not_an_index(clock_src):
    bound = build(clock_src)
    # 12 am, then the 24 hours from 1 am, which Next closes into a loop
    states = [(12, "am"), (1, "am")]
    while len(states) < 25:
        states.append(oracles.clock_move(states[-1]))
    lasso = Trace(states=states, actions=["Next"] * 24, loop_start=1, loop_action="Next")
    assert replay_trace(bound, lasso) is None
    for start in (True, -24, 25, 1.0, "1"):
        lasso.loop_start = start
        assert replay_trace(bound, lasso) == 25, start
    # a loop action without a loop
    lasso.loop_start = None
    assert replay_trace(bound, lasso) == 25
    lasso.loop_action = None
    assert replay_trace(bound, lasso) is None


# --- which of a limit and an evaluation error wins ------------------------------------

# State 1 (x = 1) has five new successors from Fan, and then Boom overflows
# there; Later overflows only at x = 2, a state discovered from state 1.
_PRECEDENCE = """spec t
var x : int init 0
action Start { when x = 0 x' = 1 }
action Fan { when x = 1 any c in 2..6 { x' = c } }
action Boom { when x = 1 and boom x' = x + 9223372036854775807 }
action Later { when x = 2 x' = x * 9223372036854775807 }
"""


def precedence_spec(boom: bool):
    return build(_PRECEDENCE.replace("boom", "true" if boom else "false"))


@pytest.mark.parametrize("limits", [ExploreLimits(max_states=4), ExploreLimits(max_depth=1)],
                         ids=["max_states", "max_depth"])
def test_eval_error_of_a_later_action_beats_a_limit_at_the_same_state(limits):
    with pytest.raises(EvalError, match="overflow") as err:
        explore(precedence_spec(boom=True), limits)
    assert "action Boom" in str(err.value)
    assert err.value.trace.states == [(0,), (1,)]
    assert err.value.trace.actions == ["Start"]


def long_precedence_spec():
    """The precedence spec with Boom overflowing (see above) and forty idle
    actions between Fan and Boom: over 100 lines of action code in the
    explore loop."""
    idle = "".join(f"action Idle{k} {{ when x = 9 x' = x + {k} }}\n" for k in range(40))
    return build(_PRECEDENCE.replace("boom", "true").replace("action Boom", idle + "action Boom"))


@pytest.mark.parametrize("limits,message", [
    (ExploreLimits(max_states=4), "state limit of 4 exceeded"),
    (ExploreLimits(max_depth=1), "depth limit of 1 exceeded"),
], ids=["max_states", "max_depth"])
def test_limit_at_a_state_beats_an_eval_error_at_a_later_one(limits, message):
    bound = precedence_spec(boom=False)
    with pytest.raises(EvalError, match="overflow") as err:
        explore(bound)
    assert "action Later" in str(err.value)
    assert err.value.trace.states == [(0,), (1,), (2,)]
    assert err.value.trace.actions == ["Start", "Fan"]
    with pytest.raises(LimitError) as limit:
        explore(bound, limits)
    assert str(limit.value) == message


def test_state_limit_counts_the_initial_states():
    bound = build("spec t\nvar x : int init in 1..3\naction A { when false }")
    with pytest.raises(LimitError, match="state limit of 2 exceeded"):
        explore(bound, ExploreLimits(max_states=2))
    assert explore(bound, ExploreLimits(max_states=3)).n_states == 3


# 1500 * 1500 initial states: about 200 MB as a list of tuples.
_WIDE_INIT = ("spec t\nvar x : int init in 1..1500\nvar y : int init in 1..1500\n"
              "action A { when false }")


def traced_peak(run) -> int:
    """The peak of the memory Python allocates while `run()` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_state_limit_is_checked_before_the_initial_states_are_built():
    bound = build(_WIDE_INIT)

    def run():
        with pytest.raises(LimitError, match="state limit of 10 exceeded"):
            explore(bound, ExploreLimits(max_states=10))

    assert traced_peak(run) < 5_000_000


def test_replay_checks_the_first_state_slot_by_slot():
    bound = build(_WIDE_INIT)
    verdicts = []
    peak = traced_peak(lambda: verdicts.extend(
        replay_trace(bound, Trace(states=[s], actions=[]))
        for s in [(1500, 1), (1501, 1), (1, 0), (1,), (1, 1, 1)]
    ))
    assert verdicts == [None, 0, 0, 0, 0]
    assert peak < 5_000_000


def test_action_nested_past_the_recursion_limit_is_a_located_error():
    # a sum of 600 terms validates, but compiling it recurses past the limit
    bound = build("spec deep\nvar x : int init 0\naction A {\nx' = "
                  + " + ".join(["x"] * 600) + "\n}\n")
    with pytest.raises(EvalError) as err:
        explore(bound)
    assert str(err.value) == "action A at 3:1: the spec nests too deeply to check"
    assert err.value.trace is None


def test_nesting_past_the_recursion_limit_is_a_located_static_error():
    # sums of 1500 terms recurse past the limit in validate itself
    deep = " + ".join(["1"] * 1500)
    spec = parse_spec(f"spec deep\nvar x : int init {deep}\naction A {{\nx' = {deep}\n}}\n"
                      f"property P: eventually (x = {deep})\ninvariant I: x = {deep}\n")
    assert [str(e) for e in validate(bind_constants(spec, {}))] == [
        "var x at 2:1: the spec nests too deeply to check",
        "action A at 3:1: the spec nests too deeply to check",
        "property P at 6:1: the spec nests too deeply to check",
        "property I at 7:1: the spec nests too deeply to check",
    ]


def test_property_nested_past_the_recursion_limit_is_an_error_verdict():
    # a sum of 600 terms validates, but compiling it recurses past the limit
    deep = " + ".join(["1"] * 600)
    bound, graph = build_graph(
        f"spec deep\nvar x : int init 0\naction A {{ x' = 1 }}\n"
        f"property E: eventually (x = {deep})\ninvariant I: x /= {deep}\n"
        f"property F: forall y in 1..2 : (x = y) leadsto (x = {deep})\n")
    located = "at {}: the spec nests too deeply to check"
    verdicts = [check_property(graph, p) for p in bound.spec.properties]
    assert [(v.status, v.detail) for v in verdicts] == [
        ("error", "property E " + located.format("4:27")),
        ("error", "property I " + located.format("5:16")),
        ("error", "y = 1: property F " + located.format("6:51")),
    ]
    v = check_eventually(graph, bound.spec.properties[0].shape.pred, name="E")
    assert (v.status, v.detail) == ("error", "property E " + located.format("4:27"))


# --- the discovery tree, derived from the edges after the loop --------------------


def first_edge_tree(graph) -> tuple:
    """(parent, parent_action, depth) as lists, from the edges alone: a
    state's parent edge is the first edge into it, in edge order, that is
    not into an initial state.  A row past the last closed one is open."""
    n = graph.n_states
    parent, action, depth = [-1] * n, [-1] * n, [0] * n
    seen = set(graph.initial)
    row = 0
    for e, (j, a) in enumerate(zip(graph.edge_dst, graph.edge_action)):
        while row + 1 < len(graph.edge_start) and graph.edge_start[row + 1] <= e:
            row += 1
        if j not in seen:
            seen.add(j)
            parent[j], action[j], depth[j] = row, a, depth[row] + 1
    return parent, action, depth


def tree_of(graph) -> tuple:
    """(parent, parent action, depth), as `graph_fields` derives them."""
    fields = graph_fields(graph)
    return fields["parent"], fields["parent_action"], fields["depth"]


def assert_tree_and_levels(graph) -> None:
    tree = tree_of(graph)
    assert tree == first_edge_tree(graph)
    depth = tree[2]
    starts = [i for i in range(1, graph.n_states) if depth[i] != depth[i - 1]]
    assert list(graph.levels) == [0, *starts, graph.n_states]
    assert depth == sorted(depth)


# Two initial states, x = 2 and x = 0, each with a child; Back leads into an
# initial state.
_TWO_ROOTS = """spec t
var x : int init in {2, 0}
action Up { when x < 4 x' = x + 1 }
action Back { when x = 4 x' = 0 }
"""


def test_tree_with_several_initial_states_and_an_edge_into_one():
    bound, graph = build_graph(_TWO_ROOTS)
    assert graph.states == [(2,), (0,), (3,), (1,), (4,)]
    assert list(graph.initial) == [0, 1]
    assert tree_of(graph) == ([-1, -1, 0, 1, 2], [-1, -1, 0, 0, 0], [0, 0, 1, 1, 2])
    assert list(graph.levels) == [0, 2, 4, 5]
    assert graph.out_edges(4) == [("Back", 1)]
    assert_tree_and_levels(graph)


# From x = 0, A and B both make x = 1 and C makes x = 2 and then x = 1 again;
# x = 1 has only a self-loop and x = 2 no edge at all.
_SHARED = """spec t
var x : int init 0
action A { when x = 0 x' = 1 }
action B { when x = 0 x' = 1 }
action C { when x = 0 any c in {2, 1, 2} { x' = c } }
action Stay { when x = 1 }
"""


def test_tree_with_actions_and_an_any_sharing_a_target_a_self_loop_and_no_edge():
    bound, graph = build_graph(_SHARED)
    assert graph.states == [(0,), (1,), (2,)]
    assert graph.out_edges(0) == [("A", 1), ("B", 1), ("C", 2), ("C", 1)]
    assert graph.out_edges(1) == [("Stay", 1)]
    assert graph.out_edges(2) == []
    assert tree_of(graph) == ([-1, 0, 0], [-1, 0, 2], [0, 1, 1])
    assert [graph.edge_label(0, 1), graph.edge_label(1, 1), graph.edge_label(1, 0)] == [
        "A", "Stay", None]
    assert list(graph.levels) == [0, 1, 3]
    assert_tree_and_levels(graph)


@pytest.mark.parametrize("n", [1, 3, 20])
def test_tree_is_the_first_edge_into_each_state(math_src, buggy_src, clock_src, n):
    for src, consts in ((math_src, {"max_num_q": n}), (buggy_src, {"max_num_q": n}),
                        (clock_src, {})):
        bound, graph = build_graph(src, consts)
        assert_tree_and_levels(graph)
        fields = oracles.explore_reference(bound, 10**6)[1]
        assert tree_of(graph) == (fields["parent"], fields["parent_action"], fields["depth"])


def test_eval_error_after_a_new_state_in_the_same_row():
    # Expanding x = 2 makes x = 3 with Up, and then Boom overflows there.
    bound = build("spec t\nvar x : int init in {5, 0}\n"
                  "action Up { when x < 3 x' = x + 1 }\n"
                  "action Jump { when x = 5 x' = 2 }\n"
                  "action Boom { when x = 2 x' = x + 9223372036854775807 }\n")
    with pytest.raises(EvalError, match="overflow") as err:
        explore(bound)
    trace = err.value.trace
    assert (trace.states, trace.actions) == ([(5,), (2,)], ["Jump"])
    assert replay_trace(bound, trace) is None
    assert oracles.explore_reference(bound, 100) == (
        "error", str(err.value), trace.states, trace.actions)


def test_state_limit_graph_has_its_tree():
    bound = build(_TWO_ROOTS)
    with pytest.raises(LimitError) as err:
        explore(bound, ExploreLimits(max_states=3))
    assert str(err.value) == "state limit of 3 exceeded"
    graph = err.value.graph
    # expanding x = 0 made x = 1, the fourth state
    assert graph.states == [(2,), (0,), (3,), (1,)]
    assert list(graph.edge_start) == [0, 1, 2]
    assert tree_of(graph) == ([-1, -1, 0, 1], [-1, -1, 0, 0], [0, 0, 1, 1])
    assert list(graph.levels) == [0, 2, 4]
    assert_tree_and_levels(graph)
    fields = oracles.explore_reference(bound, 3)[2]
    assert tree_of(graph) == (fields["parent"], fields["parent_action"], fields["depth"])


def test_state_limit_at_the_initial_states_has_no_graph():
    bound = build(_TWO_ROOTS)
    with pytest.raises(LimitError) as err:
        explore(bound, ExploreLimits(max_states=1))
    assert str(err.value) == "state limit of 1 exceeded"
    assert err.value.graph is None


def test_depth_limit_graph_has_its_tree():
    bound = build(_TWO_ROOTS)
    with pytest.raises(LimitError) as err:
        explore(bound, ExploreLimits(max_depth=1))
    assert str(err.value) == "depth limit of 1 exceeded"
    graph = err.value.graph
    # expanding x = 3, the first state at depth 1, made x = 4 at depth 2
    assert graph.states == [(2,), (0,), (3,), (1,), (4,)]
    assert list(graph.edge_start) == [0, 1, 2, 3]
    assert tree_of(graph) == ([-1, -1, 0, 1, 2], [-1, -1, 0, 0, 0], [0, 0, 1, 1, 2])
    assert list(graph.levels) == [0, 2, 4, 5]
    assert_tree_and_levels(graph)


def test_time_limit_message_and_graph():
    # 41 x 41 states in 81 levels; the deadline has passed, so explore stops
    # after 1,024 expanded states
    bound = build("spec t\nvar x : int init 0\nvar y : int init 0\n"
                  "action X { when x < 40 x' = x + 1 }\n"
                  "action Y { when y < 40 y' = y + 1 }\n")
    fields = oracles.explore_reference(bound, 10**6)[1]
    reached = max(fields["edge_dst"][:fields["edge_start"][1024]]) + 1
    with pytest.raises(LimitError) as err:
        explore(bound, ExploreLimits(deadline=Deadline(0.5, time.monotonic() - 1)))
    assert str(err.value) == ("time limit of 0.5 s exceeded while exploring "
                              f"({reached} states, depth {fields['depth'][1023]})")
    graph = err.value.graph
    assert graph.n_states == reached
    assert len(graph.edge_start) == 1025
    assert tree_of(graph) == (fields["parent"][:reached], fields["parent_action"][:reached],
                              fields["depth"][:reached])
    assert_tree_and_levels(graph)


def test_explore_loop_appends_only_the_state_for_a_new_state(math_src):
    """The loop keeps no discovery tree: the statements it runs for a new
    state append it to `states` and count it in `m`, and it appends only
    states, edges and level starts."""
    for bound in (build(math_src, {"max_num_q": 3}), long_precedence_spec()):
        tree = ast.parse(_explore_module(bound)[1])
        new_state = [node for node in ast.walk(tree)
                     if isinstance(node, ast.If) and ast.unparse(node.test) == "j == m"]
        assert len(new_state) == len(bound.spec.actions)
        for node in new_state:
            assert [ast.unparse(x) for x in node.body] == ["add_state(t)", "m += 1"]
            assert node.orelse == []
        calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert {c for c in calls if c.startswith("add_")} == {
            "add_state", "add_level", "add_start", "add_dst", "add_action"}
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"parent", "parent_action", "depth"}


# --- wide levels expanded as columns --------------------------------------------


def count_runs(monkeypatch) -> list:
    """The calls of the generated loop's `run` that `explore` makes from
    now on, each as the index of the state it starts at."""
    calls = []
    make = explorer._explore_function

    def counting(bound, graph, index):
        run = make(bound, graph, index)

        def counted(*args):
            calls.append(graph.levels[-2])
            return run(*args)
        return counted

    monkeypatch.setattr(explorer, "_explore_function", counting)
    return calls


# Three counters 0..7: level d holds the states with a + b + c = d, so levels 8
# to 13 (42, 46, 48, 48, 46 and 42 states) are wide when 40 states are.
# States 0 to 119 are in levels 0 to 7, and level 8 is states 120 to 161.
_CUBE = """spec cube
var a : int domain 0..7 init 0
var b : int domain 0..7 init 0
var c : int domain 0..7 init 0
action A { when a < 7 a' = a + 1 }
action B { when b < 7 b' = b + 1 }
action C { when c < 7 c' = c + 1 }
"""


@pytest.mark.parametrize("rows", [semantics._CHUNK_ROWS, 5, 1])
def test_the_first_wide_level_and_every_later_one_go_to_columns(rows, monkeypatch):
    bound = build(_CUBE)
    monkeypatch.setattr(semantics, "_CHUNK_ROWS", rows)  # a level in chunks of `rows` states
    calls = count_runs(monkeypatch)
    outcome = explore_with(bound, 40)
    # the loop returns at level 8; levels 8 to 21, the narrow ones from 14
    # on too, are columns
    assert calls == [0]
    assert outcome[1]["levels"][:10] == [0, 1, 4, 10, 20, 35, 56, 84, 120, 162]
    assert isinstance(outcome[1]["states"], KeyStates)
    assert outcome == explore_with(bound, sys.maxsize)


@pytest.mark.parametrize("source", [_KINDS.replace("k' = k - 1", "k' = 1"), _CUBE],
                         ids=["kinds", "cube"])
def test_columns_are_the_same_whichever_store_holds_the_states(source):
    """`StateGraph.columns` decodes the keys of a graph explored as columns
    into the columns it reads from the tuples of a list: the same values
    and dtypes, strings in object columns.  The kinds have a string domain,
    int domains that are not ranges and bools with and without a domain."""
    bound = build(source)
    graphs = []
    for wide in (1, sys.maxsize):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(explorer, "_WIDE", wide)
            graphs.append(explore(bound))
    keyed, listed = graphs
    assert isinstance(keyed.states, KeyStates) and type(listed.states) is list
    assert keyed == listed
    dtypes = {"int": np.int64, "bool": bool, "string": object}
    decoded, read = keyed.columns(), listed.columns()
    for i, v in enumerate(bound.spec.variables):
        assert decoded[i].dtype == read[i].dtype == dtypes[v.kind]
        assert decoded[i].tolist() == read[i].tolist() == [s[i] for s in listed.states]


@pytest.mark.parametrize("limits,message,rows", [
    ({"max_states": 170}, "state limit of 170 exceeded", range(122, 161)),
    ({"max_states": 162}, "state limit of 162 exceeded", [121]),
    ({"max_states": 163}, "state limit of 163 exceeded", [121]),
    ({"max_depth": 8}, "depth limit of 8 exceeded", [121]),
], ids=["max_states", "max_states_first_row", "max_states_first_row_end", "max_depth"])
def test_limit_inside_a_wide_level(limits, message, rows, monkeypatch):
    """Level 8's new states would pass the limit, so its columns keep the
    rows up to the one where the loop stops, and the new states first
    reached in them: the loop's partial graph, its states still keys.  The
    first row of level 8, state 120, makes states 162 and 163, so it passes
    a limit of 162 or 163 states, and of depth 8, on its own.  The keys
    looked up in sorted runs and in a table give the same graph."""
    bound = build(_CUBE)
    loop = explore_with(bound, sys.maxsize, **limits)
    calls = count_runs(monkeypatch)
    for dense_bits in DENSE_BOUNDS:
        calls.clear()
        outcome = explore_with(bound, 40, dense_bits, **limits)
        assert calls == [0]  # the loop ran only the levels before level 8
        assert outcome[:2] == ("limit", message)
        assert isinstance(outcome[2]["states"], KeyStates)
        assert len(outcome[2]["edge_start"]) - 1 in rows  # stopped inside level 8
        assert outcome == loop
    fields = dict(outcome[2])
    del fields["levels"]
    assert ("limit", message, fields) == oracles.explore_reference(
        bound, limits.get("max_states", 10**6), limits.get("max_depth"))


class StopAtCall(Deadline):
    """A deadline that expires at its `at`-th check."""

    def expired(self) -> bool:
        self.at -= 1
        return self.at <= 0


# Four levels of 1,024 states each: the loop checks the deadline after each
# level's last state, and the columns after each level.
_LAYERS = """spec layers
var x : int domain 0..1023 init in 0..1023
var y : int domain 0..3 init 0
action Step { when y < 3 y' = y + 1 }
"""


def test_time_limit_between_wide_levels(monkeypatch):
    bound = build(_LAYERS)
    calls = count_runs(monkeypatch)
    outcome = explore_with(bound, explorer._WIDE, deadline=StopAtCall(0.5, 2))
    assert calls == []  # every level is wide: no state is expanded alone
    assert outcome[:2] == (
        "limit", "time limit of 0.5 s exceeded while exploring (3072 states, depth 1)")
    assert len(outcome[2]["edge_start"]) == 2049
    assert outcome == explore_with(bound, sys.maxsize, deadline=StopAtCall(0.5, 2))
    # with no limit, the last wide level has no edge at all
    assert explore_with(bound, explorer._WIDE) == explore_with(bound, sys.maxsize)


def chain(n: int) -> str:
    return (f"spec chain\nvar x : int domain 0..{n} init 0\n"
            f"action Up {{ when x < {n} x' = x + 1 }}\n"
            f"action Wrap {{ when x = {n} x' = 0 }}\n")


def test_math_with_domains_is_math_in_columns(monkeypatch):
    """`examples/math_domains.spa`, the quiz with a domain for each int and
    string variable, is explored as columns into math.spa's graph, and its
    report is math.spa's."""
    monkeypatch.setattr(explorer, "_WIDE", 1)
    constants = {"max_num_q": 5}
    keyed = build(corpus_path("math_domains.spa").read_text(encoding="utf-8"), constants)
    listed = build(corpus_path("math.spa").read_text(encoding="utf-8"), constants)
    assert _column_plan(keyed) is not None and _column_plan(listed) is None
    assert isinstance(explore(keyed).states, KeyStates)
    assert explore_with(keyed, 1) == explore_with(listed, 1)
    reports = []
    for name in ("math_domains.spa", "math.spa"):
        report, code = cli.run_check(cli.RunConfig(str(corpus_path(name)), constants))
        assert code == 0
        reports.append(re.sub(r'"elapsed_ms": [0-9.e+-]+', "", cli.emit_json(report)))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("limit", ["max_states", "max_depth"])
def test_a_limit_keeps_the_keys_of_math_with_domains(limit, monkeypatch):
    """A limit met inside a column level of `examples/math_domains.spa`
    leaves its partial graph in keys, and that graph is math.spa's, with
    the keys looked up in sorted runs and in a table."""
    constants = {"max_num_q": 40}
    keyed = build(corpus_path("math_domains.spa").read_text(encoding="utf-8"), constants)
    listed = build(corpus_path("math.spa").read_text(encoding="utf-8"), constants)
    full = explore(keyed)
    limits = {"max_states": full.n_states - 500} if limit == "max_states" else \
        {"max_depth": len(full.levels) - 20}
    want = explore_with(listed, explorer._WIDE, **limits)
    calls = count_runs(monkeypatch)
    for dense_bits in (0, _column_plan(keyed).bits):
        calls.clear()
        outcome = explore_with(keyed, explorer._WIDE, dense_bits, **limits)
        assert len(calls) == 1  # the loop ran only the narrow levels at the start
        assert outcome[0] == "limit" and isinstance(outcome[2]["states"], KeyStates)
        assert outcome == want


def test_specs_without_a_wide_level_run_the_loop_once(math_src, monkeypatch):
    # math has variables without a domain; the chain has keys, but every
    # level is one state wide
    for bound, plan in ((build(math_src, {"max_num_q": 5}), False), (build(chain(300)), True)):
        assert (_column_plan(bound) is not None) == plan
        calls = count_runs(monkeypatch)
        outcome = explore_with(bound, explorer._WIDE)
        assert len(calls) == 1
        assert outcome == explore_with(bound, sys.maxsize)


# x + K overflows for x > 0 in the columns, which evaluate both branches,
# but the branch is never taken.
_FALLBACK = ("spec t\nvar x : int domain 0..1023 init in 0..1023\nvar f : bool init false\n"
             "action A { if x > 1023 { x' = x + 9223372036854775807 } else { f' = true } }\n")


def test_overflow_on_an_untaken_path_sends_each_level_to_the_loop(monkeypatch):
    bound = build(_FALLBACK)
    assert _column_plan(bound) is not None
    calls = count_runs(monkeypatch)
    outcome = explore_with(bound, explorer._WIDE)
    # the columns fail at the first level, 1,024 states wide, and the loop
    # explores again from the start: that level and the next, also 1,024
    # states wide
    assert calls == [0]
    assert outcome[1]["levels"] == [0, 1024, 2048]
    assert type(outcome[1]["states"]) is list
    assert outcome == explore_with(bound, sys.maxsize)


def overflow_spec(top: int, width: int, over: int, taken: int) -> str:
    """A key-stored spec of the `_FALLBACK` family: level d holds the
    `width` states of each z with x = d and f false, and those with
    x = d - 1 and f true.  Jump sets x to x + 2**63 - `over` when
    x > `taken`, which overflows from x = `over` on, so the columns, which
    evaluate it in every state, raise at level `over` whether a state takes
    the branch or not."""
    return (f"spec t\nvar x : int domain 0..{top} init 0\n"
            f"var z : int domain 0..{width - 1} init in 0..{width - 1}\n"
            "var f : bool init false\n"
            f"action Up {{ when x < {top} x' = x + 1 }}\n"
            f"action Jump {{ if x > {taken} {{ x' = x + {2**63 - over} }} else {{ f' = true }} }}\n")


def without_levels(outcome: tuple) -> tuple:
    """An `explore_with` outcome in the shape of `oracles.explore_reference`."""
    if outcome[0] == "error" or outcome[-1] is None:
        return outcome
    return (*outcome[:-1], {k: v for k, v in outcome[-1].items() if k != "levels"})


@settings(max_examples=max(40, settings().max_examples), deadline=None)
@example(30, 40, 20, 30, 2000, 25)  # columns to level 20, then the loop from the start
@example(30, 40, 5, 10, 2000, 25)  # columns to level 5, then the loop's overflow at x = 11
@given(st.integers(1, 30), st.integers(1, 40), st.integers(1, 32), st.integers(0, 32),
       st.integers(1, 3000), st.integers(0, 32))
def test_a_column_level_that_raises_leaves_the_loop_to_explore(top, width, over, taken,
                                                               max_states, max_depth):
    """When a column level raises EvalError, explore starts over with the
    loop alone: at every `_WIDE`, in full and at a state or depth limit,
    its graph, partial graph or error is the loop's and the reference
    BFS's.  When a state takes the branch, the loop's located EvalError is
    raised with the loop's trace."""
    bound = build(overflow_spec(top, width, over, taken))
    assert _column_plan(bound) is not None
    for limits in ({}, {"max_states": max_states}, {"max_depth": max_depth},
                   {"max_states": max_states, "max_depth": max_depth}):
        loop = explore_with(bound, sys.maxsize, **limits)
        assert explore_with(bound, 1, **limits) == loop
        assert explore_with(bound, 64, **limits) == loop
        assert without_levels(loop) == oracles.explore_reference(
            bound, limits.get("max_states", 10**6), limits.get("max_depth"))
    assert explore_with(bound, 1)[0] == ("error" if taken < top else "graph")


@pytest.mark.parametrize("make", [lambda: explorer._KeyTable(4), explorer._KeyIndex],
                         ids=["table", "runs"])
def test_key_lookups_number_new_keys_by_first_occurrence(make):
    """Both lookups number the keys not added from n on, in order of their
    first occurrence, and keep only those a cut level keeps."""
    ids = make()
    ids.add(np.array([3, 5]), 0)
    dst, fresh, first = ids.intern(np.array([5, 9, 3, 1, 9, 7, 1]), 2)
    assert (dst.tolist(), fresh.tolist(), first.tolist()) == (
        [1, 2, 0, 3, 2, 4, 3], [9, 1, 7], [1, 3, 5])
    ids.keep(fresh, 2, 2)  # the level is cut before key 7's first edge
    dst, fresh, first = ids.intern(np.array([7, 1, 9, 3, 5]), 4)
    assert (dst.tolist(), fresh.tolist(), first.tolist()) == ([4, 3, 2, 0, 1], [7], [0])
    if isinstance(ids, explorer._KeyTable):
        assert np.flatnonzero(ids.table).tolist() == [1, 3, 5, 7, 9]


def keys_of_bits(bits: int) -> str:
    """A spec whose keys have `bits` bits, more than 10: x in the low 10,
    whose 64 initial values make level 0 a column level, and y in the
    rest."""
    return ("spec dense\nvar x : int domain 0..1023 init in 0..63\n"
            f"var y : int domain 0..{2 ** (bits - 10) - 1} init 0\n"
            "action Up { when y < 3 y' = y + 1 }\n"
            "action Shift { when x < 1000 x' = x + 24 }\n")


@pytest.mark.parametrize("extra, index", [(0, "_KeyTable"), (1, "_KeyIndex")],
                         ids=["dense_bits", "one_more"])
def test_keys_of_dense_bits_take_the_table(extra, index, monkeypatch):
    """Keys of at most `_DENSE_BITS` bits are looked up in a table, wider
    ones in sorted runs, and either gives the loop's graph."""
    bound = build(keys_of_bits(explorer._DENSE_BITS + extra))
    assert _column_plan(bound).bits == explorer._DENSE_BITS + extra
    made = []
    for name in ("_KeyTable", "_KeyIndex"):
        cls = getattr(explorer, name)
        monkeypatch.setattr(explorer, name, lambda *args, cls=cls: made.append(cls.__name__)
                            or cls(*args))
    assert isinstance(explore(bound).states, KeyStates)
    assert made == [index]
    assert explore_with(bound, explorer._WIDE) == explore_with(bound, sys.maxsize)


# --- the cyclic GC during explore ----------------------------------------------------


_OVERFLOW = "spec t\nvar x : int init 9223372036854775806\naction A { x' = x + 1 }\n"


@pytest.mark.parametrize("source, limits, raises", [
    (_LAYERS, {}, None),
    (_OVERFLOW, {}, EvalError),
    (_LAYERS, {"max_states": 3000}, LimitError),  # columns, then the loop, stop at the cap
    (_LAYERS, {"max_depth": 2}, LimitError),
    (_LAYERS, {"deadline": StopAtCall(0.5, 2)}, LimitError),
    (_FALLBACK, {}, None),  # the columns raise, and the loop explores again
], ids=["done", "error", "states", "depth", "time", "fallback"])
def test_explore_leaves_the_gc_as_it_found_it(source, limits, raises):
    # The import's freeze is the process's one GC policy (see `__init__.py`):
    # explore freezes, thaws, pauses and resumes nothing.
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            before = gc.get_freeze_count()
            assert before > 0  # the import's freeze
            fresh = ExploreLimits(**copy.deepcopy(limits))  # a deadline counts its checks
            if raises is None:
                explore(build(source), fresh)
            else:
                with pytest.raises(raises):
                    explore(build(source), fresh)
            assert (gc.get_freeze_count(), gc.isenabled()) == (before, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()
