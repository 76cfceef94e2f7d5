"""Exploration, safety checks, deadlock, and trace machinery."""

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
    explore,
    reconstruct_trace,
    replay_trace,
)
from spacheck.model import state_to_record
from spacheck.parser import _Parser, tokenize


def parse_expr(text: str):
    return _Parser(tokenize(text)).expr()


# --- exploration vs independent enumerations ------------------------------------


def test_clock_graph_counts(clock_src):
    bound, graph = build_graph(clock_src)
    assert graph.n_states == 24
    assert graph.n_transitions == 24
    assert all(len(out) == 1 for out in graph.edges)
    # hand-coded transition function agrees edge by edge
    for i, s in enumerate(graph.states):
        (label, j), = graph.edges[i]
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
    assert g1.edges == g2.edges
    assert g1.parent == g2.parent
    assert g1.initial == g2.initial


def test_graph_structure_invariants(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    n = graph.n_states
    assert sorted(graph.index.values()) == list(range(n))
    assert all(graph.index[s] == i for i, s in enumerate(graph.states))
    for i, out in enumerate(graph.edges):
        for _, j in out:
            assert 0 <= j < n
    for i in range(n):
        if graph.parent[i] is None:
            assert i in graph.initial
        else:
            pred, label = graph.parent[i]
            assert pred < i
            assert any(t == i for a, t in graph.edges[pred] if a == label)


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
    v = check_invariant(graph, parse_expr("hr in 1..12"), bound)
    assert v.status == "pass"


def test_math_bad_invariant_fails_at_init(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_invariant(graph, parse_expr("num = count_right + count_wrong"), bound)
    assert v.status == "fail"
    assert len(v.trace.states) == 1
    assert v.trace.actions == []
    assert v.trace.loop_start is None
    assert state_to_record(v.trace.states[0], bound.spec) == oracles.math_init()
    assert replay_trace(bound, v.trace) is None


def test_math_corrected_invariant_passes(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_invariant(
        graph, parse_expr('result = "" or num = count_right + count_wrong'), bound
    )
    assert v.status == "pass"


def test_invariant_true_false_extremes(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 2})
    assert check_invariant(graph, parse_expr("true"), bound).status == "pass"
    v = check_invariant(graph, parse_expr("false"), bound)
    assert v.status == "fail"
    assert len(v.trace.states) == 1


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
        if graph.parent[i] is not None:
            depth[i] = depth[graph.parent[i][0]] + 1
    assert graph.depth == depth
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
    label, target = graph.edges[root][0]
    s0, s1 = graph.states[root], graph.states[target]
    assert replay_trace(bound, Trace(states=[s0, s1], actions=["Nope"])) == 1
    assert replay_trace(bound, Trace(states=[s0, s1], actions=[label])) is None
