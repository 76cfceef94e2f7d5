"""Exploration, safety checks, deadlock, and trace machinery."""

import ast
import re

import pytest

import oracles
from conftest import build, build_graph
from spacheck import (
    EvalError,
    ExploreLimits,
    LimitError,
    Trace,
    check_deadlock,
    check_invariant,
    check_property,
    explore,
    reconstruct_trace,
    replay_trace,
)
from spacheck.model import state_to_record
from spacheck.parser import _Parser, tokenize
from spacheck.semantics import _explore_module


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
    assert g1.states == g2.states
    assert g1.edge_start == g2.edge_start
    assert g1.edge_dst == g2.edge_dst
    assert g1.edge_action == g2.edge_action
    assert g1.parent == g2.parent
    assert g1.parent_action == g2.parent_action
    assert g1.initial == g2.initial


def test_graph_structure_invariants(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    n = graph.n_states
    assert sorted(graph.index.values()) == list(range(n))
    assert all(graph.index[s] == i for i, s in enumerate(graph.states))
    for i in range(n):
        for _, j in graph.out_edges(i):
            assert 0 <= j < n
    for i in range(n):
        if graph.parent[i] < 0:
            assert i in graph.initial
        else:
            pred, label = graph.parent[i], bound.spec.actions[graph.parent_action[i]].name
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
    assert list(graph.depth) == depth
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


def test_replay_single_state_trace_checks_initial(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    good = Trace(states=[graph.states[graph.initial[0]]], actions=[])
    assert replay_trace(bound, good) is None
    other = list(graph.states[graph.initial[0]])
    other[0] = 2  # num=2 is not initial
    bad = Trace(states=[tuple(other)], actions=[])
    assert replay_trace(bound, bad) == 0


def test_replay_rejects_unknown_action(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    root = graph.initial[0]
    label, target = graph.out_edges(root)[0]
    s0, s1 = graph.states[root], graph.states[target]
    assert replay_trace(bound, Trace(states=[s0, s1], actions=["Nope"])) == 1
    assert replay_trace(bound, Trace(states=[s0, s1], actions=[label])) is None


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


def grouped_precedence_spec():
    """The precedence spec with Boom overflowing (see above) and forty idle
    actions between Fan and Boom: too much code for the explore loop to hold
    inline, so the actions sit in group functions, Boom in a later one than
    Fan."""
    idle = "".join(f"action Idle{k} {{ when x = 9 x' = x + {k} }}\n" for k in range(40))
    return build(_PRECEDENCE.replace("boom", "true").replace("action Boom", idle + "action Boom"))


@pytest.mark.parametrize("limits", [ExploreLimits(max_states=4), ExploreLimits(max_depth=1)],
                         ids=["max_states", "max_depth"])
def test_eval_error_of_a_later_group_beats_a_limit_at_the_same_state(limits):
    bound = grouped_precedence_spec()
    tree = ast.parse(_explore_module(bound)[1])
    groups = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and re.fullmatch(r"g\d+", node.name)]
    names = [a.name for a in bound.spec.actions]

    def group_of(action: str) -> int:
        return next(k for k, g in enumerate(groups)
                    if f"add_action({names.index(action)})" in g)

    assert len(groups) >= 3
    assert group_of("Fan") < group_of("Boom")
    with pytest.raises(EvalError, match="overflow") as err:
        explore(bound, limits)
    assert "action Boom" in str(err.value)
    assert err.value.trace.states == [(0,), (1,)]
    assert err.value.trace.actions == ["Start"]


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


def test_action_nested_past_the_recursion_limit_is_a_located_error():
    # a sum of 600 terms validates, but compiling it recurses past the limit
    bound = build("spec deep\nvar x : int init 0\naction A {\nx' = "
                  + " + ".join(["x"] * 600) + "\n}\n")
    with pytest.raises(EvalError) as err:
        explore(bound)
    assert str(err.value) == "action A at 3:1: the spec nests too deeply to check"
    assert err.value.trace is None
