"""Temporal checks under weak fairness: quiescence, the three kernels,
binder expansion, and agreement with the brute-force lasso oracle."""

import importlib.util
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import ROOT, build_graph
from spacheck import (
    ExploreLimits,
    bind_constants,
    check_always_eventually,
    check_eventually,
    check_leadsto,
    check_property,
    eval_expr,
    explore,
    replay_trace,
    validate,
)
from spacheck import liveness
from spacheck.explorer import discovery_path
from spacheck.liveness import (
    _COLUMN_OPS,
    _bfs_prefix,
    _pred_column,
    _search_fail,
    quiescent_states,
)
from spacheck.model import INT_MAX, INT_MIN, state_to_record
from spacheck.parser import _Parser, tokenize
from spacheck.semantics import Env, EvalError


def parse_expr(text: str):
    return _Parser(tokenize(text)).expr()


def prop_named(spec, name):
    return [p for p in spec.properties if p.name == name][0]


# --- quiescence -----------------------------------------------------------------


def test_math_quiescent_states(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    q = quiescent_states(graph)
    assert len(q) == 6
    for i in q:
        rec = state_to_record(graph.states[i], bound.spec)
        assert rec["num"] == 3
        assert rec["result"] in ("Right", "Wrong")
        assert rec["count_right"] + rec["count_wrong"] == 3
    # guard evaluation over the whole graph: only Terminating is enabled there
    for i in q:
        env = Env(current=graph.states[i], binders={}, bound=bound)
        for action in bound.spec.actions:
            enabled = all(eval_expr(g, env) for g in action.guards)
            assert enabled == (action.name == "Terminating")


def test_clock_has_no_quiescent_states(clock_src):
    bound, graph = build_graph(clock_src)
    assert quiescent_states(graph) == set()


def test_buggy_deadlock_state_is_quiescent(buggy_src):
    bound, graph = build_graph(buggy_src, {"max_num_q": 3})
    deadlocked = {i for i in range(graph.n_states) if not graph.out_edges(i)}
    assert deadlocked
    assert deadlocked <= quiescent_states(graph)


# --- eventually -------------------------------------------------------------------


def test_eventually_num3_passes(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    assert check_eventually(graph, parse_expr("num = 3")).status == "pass"


def test_eventually_num6_fails_with_quiescent_lasso(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_eventually(graph, parse_expr("num = 6"))
    assert v.status == "fail"
    t = v.trace
    assert t.loop_start == len(t.states) - 1
    last = state_to_record(t.states[-1], bound.spec)
    assert last["num"] == 5
    assert t.loop_action == "Terminating"
    assert replay_trace(bound, t) is None


def test_eventually_true_vacuous(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 2})
    assert check_eventually(graph, parse_expr("true")).status == "pass"


# --- leadsto ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 5])
def test_math_leadsto_passes(math_src, n):
    bound, graph = build_graph(math_src, {"max_num_q": n})
    v = check_leadsto(
        graph, parse_expr("input_enabled"), parse_expr("new_question_enabled")
    )
    assert v.status == "pass"


def test_mutated_check_breaks_leadsto(math_src):
    # drop the line that re-enables New Question after a check
    mutated = math_src.replace("new_question_enabled' = true\n", "", 1)
    assert mutated != math_src
    bound, graph = build_graph(mutated, {"max_num_q": 3})
    v = check_leadsto(
        graph, parse_expr("input_enabled"), parse_expr("new_question_enabled")
    )
    assert v.status == "fail"
    t = v.trace
    assert t.loop_start == len(t.states) - 1
    last = state_to_record(t.states[-1], bound.spec)
    assert last["check_enabled"] is False and last["input_enabled"] is False
    assert replay_trace(bound, t) is None


def test_leadsto_false_premise_vacuous(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 2})
    v = check_leadsto(graph, parse_expr("false"), parse_expr("input_enabled"))
    assert v.status == "pass"


# --- always eventually -------------------------------------------------------------


def test_clock_recurrence_passes(clock_src):
    bound, graph = build_graph(clock_src)
    assert check_always_eventually(graph, parse_expr("hr = 1")).status == "pass"


def test_math_recurrence_of_input_fails(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    v = check_always_eventually(graph, parse_expr("input_enabled"))
    assert v.status == "fail"
    last = state_to_record(v.trace.states[-1], bound.spec)
    assert last["num"] == 3
    assert last["input_enabled"] is False
    assert v.trace.loop_start == len(v.trace.states) - 1
    assert replay_trace(bound, v.trace) is None


def test_tautology_recurs(clock_src):
    bound, graph = build_graph(clock_src)
    assert check_always_eventually(graph, parse_expr("hr = 1 or hr /= 1")).status == "pass"


def test_clock_eventually_and_recurrence_agree(clock_src):
    # no quiescent states and a single cycle: the two kernels coincide here
    bound, graph = build_graph(clock_src)
    for text in ("hr = 1", "hr = 7", "period = \"am\"", "hr = 13"):
        pred = parse_expr(text)
        assert (
            check_eventually(graph, pred).status
            == check_always_eventually(graph, pred).status
        )


# --- property dispatch and binders ---------------------------------------------------


def test_reachability_property_all_instances(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_property(graph, prop_named(bound.spec, "Reachability"))
    assert v.status == "pass"
    assert "5" in v.detail


def test_forall_fail_names_binder_value(math_src):
    src = math_src + "property Over: forall x in 1..6 : eventually (num = x)\n"
    bound, graph = build_graph(src, {"max_num_q": 5})
    v = check_property(graph, prop_named(bound.spec, "Over"))
    assert v.status == "fail"
    assert v.binder == 6
    assert v.trace is not None
    assert replay_trace(bound, v.trace) is None


def test_forall_empty_range_vacuous(math_src):
    src = math_src + "property Empty: forall x in 3..2 : eventually (num = x)\n"
    bound, graph = build_graph(src, {"max_num_q": 2})
    v = check_property(graph, prop_named(bound.spec, "Empty"))
    assert v.status == "pass"
    assert "vacuous" in v.detail


def test_invariant_shape_delegates(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    v = check_property(graph, prop_named(bound.spec, "Invariant"))
    assert v.status == "pass"
    assert v.kind == "invariant"


def test_invariant_with_binder_expands(math_src):
    src = math_src + "property NoX: forall x in 1..3 : always (num /= x)\n"
    bound, graph = build_graph(src, {"max_num_q": 3})
    v = check_property(graph, prop_named(bound.spec, "NoX"))
    assert v.status == "fail"
    assert v.kind == "invariant"
    assert v.binder == 1  # the initial state already has num = 1
    assert len(v.trace.states) == 1


def test_string_binder_forall(clock_src):
    src = clock_src + (
        'property Periods: forall p in {"am", "pm"} : '
        "always eventually (period = p)\n"
    )
    bound, graph = build_graph(src)
    v = check_property(graph, prop_named(bound.spec, "Periods"))
    assert v.status == "pass"


# --- overflow-detecting column arithmetic ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from(["+", "-", "*"]),
)
def test_vector_arithmetic_matches_exact_integers(a, b, op):
    exact = {"+": a + b, "-": a - b, "*": a * b}[op]
    in_range = INT_MIN <= exact <= INT_MAX
    for left, right in [
        (np.array([a], dtype=np.int64), np.array([b], dtype=np.int64)),
        (np.array([a], dtype=np.int64), b),
        (a, np.array([b], dtype=np.int64)),
    ]:
        _, factory = _COLUMN_OPS[op]
        fn = factory("<test>", 0, 0)
        if in_range:
            out = fn(left, right)
            assert int(np.asarray(out).reshape(-1)[0]) == exact
        else:
            with pytest.raises(EvalError):
                fn(left, right)


# --- column and scalar operator tables agree ------------------------------------

# Predicates over the clock and the math quiz (max_num_q = 3) whose overflow,
# when there is one, often happens only on some states or only behind a
# short-circuit: `k` is a binder near 2^62, so `k + k` always overflows,
# `num * k` from num = 2 on, and `k - num` never.  A shape is a template and
# the kinds of its holes: i(nt), b(ool), s(tring).
SHAPES = {
    "i": [("({} + {})", "ii"), ("({} - {})", "ii"), ("({} * {})", "ii"),
          ("(if {} then {} else {})", "bii")],
    "s": [("(if {} then {} else {})", "bss")],
    "b": [("({} and {})", "bb"), ("({} or {})", "bb"), ("({} implies {})", "bb"),
          ("(not {})", "b"), ("(if {} then {} else {})", "bbb"),
          ("({} in ({})..({}))", "iii"), ("({} in {{{}, {}}})", "iii"),
          ("({} = {})", "ss"), ("({} in {{{}, {}}})", "sss")]
    + [(f"({{}} {op} {{}})", "ii") for op in ("=", "/=", "<", "<=", ">", ">=")],
}


def predicates(leaves):
    """Well-kinded predicate text, nested up to 3 deep, from `leaves` (kind
    -> leaf texts)."""
    memo = {}

    def of(kind, depth):
        if (kind, depth) not in memo:
            options = [st.sampled_from(leaves[kind])]
            if depth > 0:
                options += [
                    st.tuples(*(of(k, depth - 1) for k in kinds)).map(
                        lambda xs, t=template: t.format(*xs))
                    for template, kinds in SHAPES[kind]
                ]
            memo[kind, depth] = st.one_of(options)
        return memo[kind, depth]

    return of("b", 3)


DIFFERENTIAL_PREDICATES = {
    "math": predicates({
        "i": ["num", "count_right", "count_wrong", "max_num_q", "k", "(num * k)", "0", "2"],
        "b": ["input_enabled", "check_enabled", "new_question_enabled", "(num = 1)", "true"],
        "s": ["result", '""', '"Right"', '"Wrong"'],
    }),
    "clock": predicates({
        "i": ["hr", "k", "(hr * k)", "0", "1", "12"],
        "b": ["(hr = 1)", "true", "false"],
        "s": ["period", '"am"', '"pm"'],
    }),
}


@pytest.fixture(scope="module")
def differential_graphs(math_src, clock_src):
    return {
        "math": build_graph(math_src, {"max_num_q": 3}),
        "clock": build_graph(clock_src),
    }


# One failure is shrunk: a broken table fails in many distinct ways, and
# shrinking each of them took minutes.
@settings(max_examples=max(300, settings().max_examples), deadline=None,
          report_multiple_bugs=False)
@given(
    data=st.data(),
    which=st.sampled_from(["math", "clock"]),
    k=st.integers(min_value=2**62 - 3, max_value=2**62 + 3),
)
def test_column_table_agrees_with_scalar_table(differential_graphs, data, which, k):
    bound, graph = differential_graphs[which]
    text = data.draw(DIFFERENTIAL_PREDICATES[which])
    pred = parse_expr(text)
    try:
        want = pred_values(graph, bound, pred, {"k": k})
    except EvalError:
        with pytest.raises(EvalError):
            _pred_column(graph, pred, "<test>", {"k": k})
        return
    got = _pred_column(graph, pred, "<test>", {"k": k})
    assert got.dtype == bool
    assert got.tolist() == want, text


# --- lasso well-formedness -------------------------------------------------------------


def collect_failures(graph, preds):
    out = []
    for kind, args in preds:
        if kind == "eventually":
            v = check_eventually(graph, args[0])
        elif kind == "leadsto":
            v = check_leadsto(graph, args[0], args[1])
        else:
            v = check_always_eventually(graph, args[0])
        if v.status == "fail":
            out.append((kind, args, v))
    return out


def test_lasso_loops_violate_target_and_are_fair(math_src, buggy_src):
    cases = []
    for src, consts in ((math_src, {"max_num_q": 3}), (buggy_src, {"max_num_q": 3})):
        bound, graph = build_graph(src, consts)
        preds = [
            ("eventually", (parse_expr("num = 99"),)),
            ("eventually", (parse_expr("count_wrong = 99"),)),
            ("always_eventually", (parse_expr("input_enabled"),)),
            ("always_eventually", (parse_expr("result = \"\""),)),
            ("leadsto", (parse_expr("input_enabled"), parse_expr("num = 99"))),
        ]
        for kind, args, v in collect_failures(graph, preds):
            cases.append((bound, graph, kind, args, v))
    assert cases
    for bound, graph, kind, args, v in cases:
        t = v.trace
        assert replay_trace(bound, t) is None
        target = args[-1]  # for leadsto the loop must avoid the conclusion
        env = lambda s: Env(current=s, binders={}, bound=bound)
        for s in t.states[t.loop_start:]:
            assert eval_expr(target, env(s)) is False
        loop = t.states[t.loop_start:]
        if len(loop) == 1 and t.loop_action is None:
            i = graph.index[loop[0]]
            assert i in quiescent_states(graph)
        elif len(loop) == 1:
            pass  # self-loop action at a quiescent state
        else:
            assert len(set(loop)) >= 2  # a real cycle of state-changing edges


def test_string_set_predicate_vectorizes(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    v = check_always_eventually(graph, parse_expr('result in {"Right", "Wrong"}'))
    # quiescent phase-C states satisfy the predicate, and the whole graph is
    # a DAG plus self-loops, so the only admitted tails sit inside pred
    assert v.status == "pass"
    v2 = check_eventually(graph, parse_expr('result = "Wrong"'))
    assert v2.status == "fail"  # always answering right avoids it


def test_conditional_predicate_vectorizes(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    pred = parse_expr("(if input_enabled then 1 else 0) = 1")
    direct = parse_expr("input_enabled")
    assert (
        check_eventually(graph, pred).status
        == check_eventually(graph, direct).status
        == "pass"
    )


def test_vector_overflow_falls_back_to_short_circuit(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    # the right operand overflows at num >= 2 but the left disjunct wins;
    # scalar evaluation short-circuits, so the verdict is a clean pass
    pred = parse_expr("num >= 1 or num * 8000000000000000000 > 0")
    v = check_always_eventually(graph, pred)
    assert v.status == "pass"


def test_real_overflow_in_predicate_is_an_error(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    v = check_eventually(graph, parse_expr("num * 8000000000000000000 > 0"))
    assert v.status == "error"
    assert "overflow" in v.detail


def test_eventually_monotone_under_weakening(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    strict = check_eventually(graph, parse_expr("num = 3")).status
    weak = check_eventually(graph, parse_expr("num >= 3")).status
    assert strict == "pass"
    assert weak == "pass"


# --- SCC info ---------------------------------------------------------------------


def state_mask(graph, indices):
    mask = np.zeros(graph.n_states, dtype=bool)
    mask[list(indices)] = True
    return mask


def test_clock_is_one_nontrivial_scc(clock_src):
    bound, graph = build_graph(clock_src)
    mask = state_mask(graph, range(graph.n_states))
    info = _search_fail(graph, mask, mask, within_restriction=False)
    assert set(info.scc_members.values()) == {frozenset(range(24))}
    assert info.scc_hits.size == 24


def test_math_has_no_nontrivial_scc(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    mask = state_mask(graph, range(graph.n_states))
    info = _search_fail(graph, mask, mask, within_restriction=False)
    assert info.scc_members == {}
    assert info.scc_hits.size == 0
    # restricting to a subset keeps it that way
    mask2 = state_mask(graph, range(0, graph.n_states, 2))
    info2 = _search_fail(graph, mask2, mask2, within_restriction=False)
    assert info2 is None or info2.scc_members == {}


MATH_TERMINATING = """action Terminating {
    when num = max_num_q
}
"""

MATH_RESTART = """action Restart {
    when num = max_num_q
    num' = 1
    count_right' = 0
    count_wrong' = 0
    result' = ""
    input_enabled' = true
    check_enabled' = false
    new_question_enabled' = false
}
"""


def restart_src(math_src):
    # the quiz starts over instead of stopping: one SCC holds the whole graph
    assert MATH_TERMINATING in math_src
    return math_src.replace(MATH_TERMINATING, MATH_RESTART)


def reference_search(graph, restrict, starts, within_restriction):
    """_search_fail's result rebuilt from the oracles' own restricted BFS and
    Tarjan SCCs, as (quiescent_hits, scc_hits, scc_members) or None."""
    allowed = {int(i) for i in np.flatnonzero(restrict)}
    sources = [int(i) for i in np.flatnonzero(starts) if int(i) in allowed]
    if not sources:
        return None
    if within_restriction:
        reached = oracles.restricted_reach(graph, sources, allowed)
    else:
        reached = allowed
    quiescent_hits = sorted(reached & oracles.graph_quiescent(graph))
    members = {}
    adj = oracles._changing_adj(graph, allowed)
    for comp in oracles._tarjan_sccs(adj):
        if len(comp) >= 2 and reached & set(comp):
            members.update(dict.fromkeys(comp, frozenset(comp)))
    scc_hits = sorted(i for i in members if i in reached)
    if not quiescent_hits and not scc_hits:
        return None
    return quiescent_hits, scc_hits, members


def assert_search_matches_reference(graph, rng, trials):
    for trial in range(trials):
        density = rng.choice([0.3, 0.6, 0.9, 1.0])
        restrict = np.array([rng.random() < density for _ in range(graph.n_states)])
        reach = rng.choice([0.05, 0.2, 0.5])
        starts = np.array([rng.random() < reach for _ in range(graph.n_states)])
        for within in (True, False):
            got = _search_fail(graph, restrict, starts, within)
            want = reference_search(graph, restrict, starts, within)
            if want is None:
                assert got is None, (trial, within)
                continue
            assert got is not None, (trial, within)
            assert got.quiescent_hits.tolist() == want[0], (trial, within)
            assert got.scc_hits.tolist() == want[1], (trial, within)
            assert got.scc_members == want[2], (trial, within)


@pytest.mark.parametrize("which", ["restart", "clock"])
def test_search_fail_matches_reference_on_cyclic_graphs(which, math_src, clock_src):
    # every cycle of both graphs runs through the whole graph's one SCC, so
    # most restrictions cut it
    if which == "restart":
        bound, graph = build_graph(restart_src(math_src), {"max_num_q": 3})
    else:
        bound, graph = build_graph(clock_src)
    everything = state_mask(graph, range(graph.n_states))
    full = _search_fail(graph, everything, everything, within_restriction=False)
    assert set(full.scc_members.values()) == {frozenset(range(graph.n_states))}
    assert_search_matches_reference(graph, random.Random(4), 300)


def test_search_fail_matches_reference_on_random_specs():
    # quiescent states, several SCCs, and starts that cannot reach them
    rng = random.Random(5)
    for seed in range(20):
        bound = bind_constants(oracles.gen_spec(seed), {})
        assert validate(bound) == []
        graph = explore(bound, ExploreLimits(max_states=200))
        assert_search_matches_reference(graph, rng, 30)


def test_restart_reachability_instances_match_oracle(math_src):
    bound, graph = build_graph(restart_src(math_src), {"max_num_q": 3})
    for x in range(1, 4):
        pred = parse_expr(f"num = {x}")
        got = check_eventually(graph, pred).status
        want = oracles.oracle_eventually(graph, pred_values(graph, bound, pred))
        assert got == ("pass" if want else "fail"), x
    assert check_property(graph, prop_named(bound.spec, "Reachability")).status == "pass"


EQUAL_DEPTH_CYCLE = """spec flip
var x : int init 0
action Enter {
    when x = 0
    any v in {1, 2} {
        x' = v
    }
}
action Flip {
    when x > 0
    x' = 3 - x
}
"""


def test_search_fail_matches_reference_on_equal_depth_cycle():
    # states 1 and 2 share BFS depth 1, so both edges of their 2-cycle keep
    # the depth: the only cycle's back edges are level ones
    bound, graph = build_graph(EQUAL_DEPTH_CYCLE)
    assert list(graph.depth) == [0, 1, 1]
    everything = state_mask(graph, range(graph.n_states))
    full = _search_fail(graph, everything, everything, within_restriction=False)
    assert set(full.scc_members.values()) == {frozenset({1, 2})}
    assert_search_matches_reference(graph, random.Random(6), 100)


def test_fail_info_survives_later_searches(math_src):
    # every search rewrites one shared CSR matrix; a result must own its arrays
    bound, graph = build_graph(restart_src(math_src), {"max_num_q": 3})
    everything = state_mask(graph, range(graph.n_states))
    initial = state_mask(graph, graph.initial)
    info = _search_fail(graph, everything, initial, within_restriction=True)
    fields = ("quiescent_hits", "scc_hits", "order", "pred")
    before = {f: getattr(info, f).copy() for f in fields}
    members, prefix = dict(info.scc_members), _bfs_prefix(info)
    rng = random.Random(8)
    for _ in range(20):
        restrict, starts = random_masks(graph, rng)
        for within in (True, False):
            _search_fail(graph, restrict, starts, within)
    for f in fields:
        assert np.array_equal(getattr(info, f), before[f]), f
    assert info.scc_members == members
    assert _bfs_prefix(info) == prefix


# --- lasso prefixes ------------------------------------------------------------------


def random_masks(graph, rng):
    density = rng.choice([0.3, 0.6, 0.9, 1.0])
    restrict = np.array([rng.random() < density for _ in range(graph.n_states)])
    reach = rng.choice([0.05, 0.2, 0.5])
    starts = np.array([rng.random() < reach for _ in range(graph.n_states)])
    return restrict, starts


def reference_prefix(graph, restrict, starts):
    """The lasso prefix of a failing search, rebuilt from the oracles' own
    BFS over the graph's edges; None when no behavior stays in `restrict`."""
    want = reference_search(graph, restrict, starts, True)
    if want is None:
        return None
    allowed = {int(i) for i in np.flatnonzero(restrict)}
    sources = [int(i) for i in np.flatnonzero(starts)]
    return oracles.lasso_prefix(graph, sources, allowed, want[0] + want[1])


def assert_prefixes_match_reference(graph, rng, trials):
    """`_search_fail`'s BFS tree, and the lasso prefix taken from it, equal
    the oracles' BFS over the graph's edges in edge order."""
    n = graph.n_states
    for trial in range(trials):
        restrict, starts = random_masks(graph, rng)
        info = _search_fail(graph, restrict, starts, within_restriction=True)
        want = reference_prefix(graph, restrict, starts)
        assert (info is None) == (want is None), trial
        if info is None:
            continue
        assert _bfs_prefix(info) == want, trial
        _, parents = oracles.bfs_within(
            graph, np.flatnonzero(starts).tolist(), set(np.flatnonzero(restrict).tolist())
        )
        got = {int(v): int(info.pred[v]) for v in info.order[1:]}
        assert got == {v: n if u is None else u for v, u in parents.items()}, trial


def assert_lassos_match_reference(graph, rng, trials, monkeypatch):
    """Failing `eventually` and `leadsto` traces, over random target and
    premise columns, start with the reference prefix and loop from its end."""
    columns = {}
    monkeypatch.setattr(liveness, "_pred_column", lambda g, pred, where, b: columns[pred])
    initial = state_mask(graph, graph.initial)
    for trial in range(trials):
        restrict, starts = random_masks(graph, rng)
        columns["target"], columns["premise"] = ~restrict, starts

        want = reference_prefix(graph, restrict, initial)
        v = check_eventually(graph, "target")
        if want is None:
            assert v.status == "pass", trial
        else:
            assert v.status == "fail", trial
            assert v.detail.endswith(f" {want[-1]}"), trial
            assert v.trace.loop_start == len(want) - 1, trial
            assert v.trace.states[:len(want)] == [graph.states[i] for i in want], trial
            assert replay_trace(graph.bound, v.trace) is None, trial

        want = reference_prefix(graph, restrict, starts)
        v = check_leadsto(graph, "premise", "target")
        if want is None:
            assert v.status == "pass", trial
        else:
            assert v.status == "fail", trial
            assert v.detail.startswith(f"state {want[0]} "), trial
            head, _ = discovery_path(graph, want[0])
            prefix = head[:-1] + want
            assert v.trace.loop_start == len(prefix) - 1, trial
            assert v.trace.states[:len(prefix)] == [graph.states[i] for i in prefix], trial
            assert replay_trace(graph.bound, v.trace) is None, trial


def panels_source(seed):
    """perfbench's generated dashboard spec with 3 panels of 3 levels: every
    state has 6 edges, in an order the seed shuffles."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].panels_source(seed, 3, 3)


def test_lasso_prefixes_match_reference_on_random_specs(monkeypatch):
    rng = random.Random(9)
    for seed in range(20):
        bound = bind_constants(oracles.gen_spec(seed), {})
        assert validate(bound) == []
        graph = explore(bound, ExploreLimits(max_states=200))
        assert_prefixes_match_reference(graph, rng, 30)
        assert_lassos_match_reference(graph, rng, 30, monkeypatch)


@pytest.mark.parametrize("which", ["restart", "clock"])
def test_lasso_prefixes_match_reference_on_cyclic_graphs(which, math_src, clock_src,
                                                         monkeypatch):
    if which == "restart":
        bound, graph = build_graph(restart_src(math_src), {"max_num_q": 3})
    else:
        bound, graph = build_graph(clock_src)
    assert_prefixes_match_reference(graph, random.Random(10), 100)
    assert_lassos_match_reference(graph, random.Random(11), 100, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lasso_prefixes_match_reference_on_panels(seed):
    # Prefixes only: on these graphs, restricted to a random subset, the
    # loop search `_cycle_through` can take exponential time (ROADMAP item 7).
    bound, graph = build_graph(panels_source(seed), {"levels": 3})
    assert_prefixes_match_reference(graph, random.Random(12), 100)


# --- oracle equivalence ---------------------------------------------------------------


def pred_values(graph, bound, expr, binders=None):
    return [
        bool(oracles.evaluate(expr, s, binders or {}, bound)) for s in graph.states
    ]


def assert_matches_oracle(bound, graph, preds):
    for kind, args in preds:
        if kind == "eventually":
            got = check_eventually(graph, args[0]).status
            want = oracles.oracle_eventually(graph, pred_values(graph, bound, args[0]))
        elif kind == "leadsto":
            got = check_leadsto(graph, args[0], args[1]).status
            want = oracles.oracle_leadsto(
                graph,
                pred_values(graph, bound, args[0]),
                pred_values(graph, bound, args[1]),
            )
        else:
            got = check_always_eventually(graph, args[0]).status
            want = oracles.oracle_always_eventually(
                graph, pred_values(graph, bound, args[0])
            )
        assert got == ("pass" if want else "fail"), (kind, args)


def corpus_battery(src, consts, texts):
    bound, graph = build_graph(src, consts)
    preds = []
    for t in texts:
        preds.append(("eventually", (parse_expr(t),)))
        preds.append(("always_eventually", (parse_expr(t),)))
    for p, q in zip(texts, texts[1:]):
        preds.append(("leadsto", (parse_expr(p), parse_expr(q))))
    assert_matches_oracle(bound, graph, preds)


def test_corpus_verdicts_match_lasso_oracle(math_src, clock_src, buggy_src):
    corpus_battery(
        math_src, {"max_num_q": 3},
        ["num = 1", "num = 3", "input_enabled", "result = \"Right\"",
         "count_right + count_wrong = 3", "check_enabled"],
    )
    corpus_battery(
        buggy_src, {"max_num_q": 3},
        ["num = 4", "input_enabled", "new_question_enabled"],
    )
    corpus_battery(
        clock_src, {},
        ["hr = 1", "hr = 12", "period = \"am\"", "hr < 13", "hr = 13"],
    )
