"""Temporal checks under weak fairness: quiescence, the three kernels,
binder expansion, and agreement with the brute-force lasso oracle."""

import dataclasses
import functools
import random
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import build, build_graph, graph_fields, index_of, perfbench_workloads
from spacheck import (
    ExploreLimits,
    bind_constants,
    check_always_eventually,
    check_deadlock,
    check_eventually,
    check_invariant,
    check_leadsto,
    check_property,
    explore,
    replay_trace,
    validate,
)
from spacheck import explorer, liveness, model, semantics
from spacheck.explorer import (
    Deadline,
    KeyStates,
    LimitError,
    StateGraph,
    Verdict,
    discovery_path,
)
from spacheck.liveness import (
    _bfs_prefix,
    _cycle_through,
    _search_fail,
)
from spacheck.model import INT_MAX, INT_MIN, format_value, state_to_record
from spacheck.parser import _Parser, tokenize
from spacheck.semantics import _COLUMN_OPS, EvalError


def parse_expr(text: str):
    return _Parser(tokenize(text)).expr()


def prop_named(spec, name):
    return [p for p in spec.properties if p.name == name][0]


# --- quiescence -----------------------------------------------------------------


def analysed_quiescent(graph) -> set:
    """The states the liveness analysis marks quiescent, checked against the
    oracle's own scan of the edges."""
    q = {int(i) for i in np.flatnonzero(liveness._analysis(graph).quiescent)}
    assert q == oracles.graph_quiescent(graph)
    return q


def test_math_quiescent_states(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    q = analysed_quiescent(graph)
    assert len(q) == 6
    for i in q:
        rec = state_to_record(graph.states[i], bound.spec)
        assert rec["num"] == 3
        assert rec["result"] in ("Right", "Wrong")
        assert rec["count_right"] + rec["count_wrong"] == 3
    # guard evaluation over the whole graph: only Terminating is enabled there
    for i in q:
        for action in bound.spec.actions:
            enabled = all(oracles.evaluate(g, graph.states[i], {}, bound)
                          for g in action.guards)
            assert enabled == (action.name == "Terminating")


def test_clock_has_no_quiescent_states(clock_src):
    bound, graph = build_graph(clock_src)
    assert analysed_quiescent(graph) == set()


def test_buggy_deadlock_state_is_quiescent(buggy_src):
    bound, graph = build_graph(buggy_src, {"max_num_q": 3})
    deadlocked = {i for i in range(graph.n_states) if not graph.out_edges(i)}
    assert deadlocked
    assert deadlocked <= analysed_quiescent(graph)


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
            graph.holds(pred, "<test>", {"k": k})
        return
    got = graph.holds(pred, "<test>", {"k": k})
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
        for s in t.states[t.loop_start:]:
            assert oracles.evaluate(target, s, {}, bound) is False
        loop = t.states[t.loop_start:]
        if len(loop) == 1 and t.loop_action is None:
            i = index_of(graph)[loop[0]]
            assert i in oracles.graph_quiescent(graph)
        elif len(loop) == 1:
            pass  # self-loop action at a quiescent state
        else:
            assert len(set(loop)) >= 2  # a real cycle of state-changing edges


@pytest.mark.parametrize("spin,states,loop_action", [
    ("when x >= 2 x' = 5 - x", [(0,), (1,)], None),  # 1 is quiescent, 2 and 3 a cycle
    ("when x = 1 or x = 3 x' = 4 - x", [(0,), (1,), (3,)], "Spin"),  # 2 is quiescent
], ids=["quiescent", "cycle"])
def test_always_eventually_enters_at_the_shallowest_candidate(spin, states, loop_action):
    """The lasso enters the shallowest state that can stay outside the
    target forever, quiescent or on a cycle, the lowest index on ties."""
    bound, graph = build_graph(
        "spec t\nvar x : int init 0\n"
        "action Go { when x = 0 any v in {1, 2} { x' = v } }\n"
        f"action Spin {{ {spin} }}\n")
    assert [s[0] for s in graph.states] == [0, 1, 2, 3]
    v = check_always_eventually(graph, parse_expr("x = 0"))
    assert v.detail == "after state 1 the target never holds again"
    assert (v.trace.states, v.trace.loop_start, v.trace.loop_action) == (states, 1, loop_action)
    assert replay_trace(bound, v.trace) is None


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


def test_forall_binder_set_past_the_set_limit_is_an_error():
    bound, graph = build_graph("spec t\nvar x : int init 0\naction A {\nx' = 1 - x\n}\n\n"
                               "property P: forall k in 1..2000000 : eventually (x = k)\n")
    v = check_property(graph, bound.spec.properties[0])
    assert (v.status, v.detail) == (
        "error", "property P at 7:25: range 1..2000000 exceeds the 1048576-element set limit")


def test_eventually_monotone_under_weakening(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    strict = check_eventually(graph, parse_expr("num = 3")).status
    weak = check_eventually(graph, parse_expr("num >= 3")).status
    assert strict == "pass"
    assert weak == "pass"


# --- SCC info ---------------------------------------------------------------------


def scc_members(info) -> dict:
    """Each of a search's `scc_hits` -> the states of its SCC, read off the
    bool column `scc_of` returns."""
    return {i: frozenset(np.flatnonzero(info.scc_of(i)).tolist())
            for i in info.scc_hits.tolist()}


def state_mask(graph, indices):
    mask = np.zeros(graph.n_states, dtype=bool)
    mask[list(indices)] = True
    return mask


def test_clock_is_one_nontrivial_scc(clock_src):
    bound, graph = build_graph(clock_src)
    mask = state_mask(graph, range(graph.n_states))
    info = _search_fail(graph, mask, mask)
    assert set(scc_members(info).values()) == {frozenset(range(24))}
    assert info.scc_hits.size == 24


def test_math_has_no_nontrivial_scc(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    mask = state_mask(graph, range(graph.n_states))
    info = _search_fail(graph, mask, mask)
    assert scc_members(info) == {}
    assert info.scc_hits.size == 0
    # restricting to a subset keeps it that way
    mask2 = state_mask(graph, range(0, graph.n_states, 2))
    info2 = _search_fail(graph, mask2, mask2)
    assert info2 is None or scc_members(info2) == {}


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


def reference_search(graph, restrict, starts):
    """_search_fail's result rebuilt from the oracles' own restricted BFS and
    Tarjan SCCs, as (quiescent_hits, scc_hits, scc_members) or None."""
    allowed = {int(i) for i in np.flatnonzero(restrict)}
    sources = [int(i) for i in np.flatnonzero(starts) if int(i) in allowed]
    if not sources:
        return None
    reached = oracles.restricted_reach(graph, sources, allowed)
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
        # random starts, and every allowed state, as always eventually starts
        for everywhere, some in enumerate((starts, restrict)):
            got = _search_fail(graph, restrict, some)
            want = reference_search(graph, restrict, some)
            if want is None:
                assert got is None, (trial, everywhere)
                continue
            assert got is not None, (trial, everywhere)
            assert got.quiescent_hits.tolist() == want[0], (trial, everywhere)
            assert got.scc_hits.tolist() == want[1], (trial, everywhere)
            assert scc_members(got) == want[2], (trial, everywhere)


@pytest.mark.parametrize("which", ["restart", "clock"])
def test_search_fail_matches_reference_on_cyclic_graphs(which, math_src, clock_src):
    # every cycle of both graphs runs through the whole graph's one SCC, so
    # most restrictions cut it
    if which == "restart":
        bound, graph = build_graph(restart_src(math_src), {"max_num_q": 3})
    else:
        bound, graph = build_graph(clock_src)
    everything = state_mask(graph, range(graph.n_states))
    full = _search_fail(graph, everything, everything)
    assert set(scc_members(full).values()) == {frozenset(range(graph.n_states))}
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


def test_predicate_columns_are_built_on_first_read(math_src):
    """A predicate builds the value columns of the variables it names and no
    others, and the verdicts are the oracle's."""
    bound, graph = build_graph(restart_src(math_src), {"max_num_q": 3})
    columns = graph.columns()
    assert dict(columns) == {}
    num, enabled = bound.var_index["num"], bound.var_index["input_enabled"]
    target = parse_expr("num = 2")
    want = oracles.oracle_eventually(graph, pred_values(graph, bound, target))
    assert check_eventually(graph, target).status == ("pass" if want else "fail")
    assert list(columns) == [num]
    premise, target = parse_expr("input_enabled"), parse_expr("num = 3")
    want = oracles.oracle_leadsto(graph, pred_values(graph, bound, premise),
                                  pred_values(graph, bound, target))
    assert check_leadsto(graph, premise, target).status == ("pass" if want else "fail")
    assert sorted(columns) == sorted([num, enabled])
    for i, column in columns.items():
        assert column.tolist() == [s[i] for s in graph.states]


# x counts 0..5, and y never changes: the states are x = 0..5 in index
# order, stored as keys when every level is expanded as columns.
_COUNTER = ("spec counter\nvar x : int domain 0..5 init 0\nvar y : bool init false\n"
            "action Inc { when x < 5 x' = x + 1 }\n")


def explore_counter(wide: int):
    bound = build(_COUNTER)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", wide)
        graph = explore(bound)
    assert isinstance(graph.states, KeyStates) == (wide == 1)
    return bound, graph


@pytest.mark.parametrize("wide", [1, sys.maxsize], ids=["keys", "list"])
def test_value_columns_are_built_once_per_graph(wide, monkeypatch):
    """`StateGraph.columns` is one object per graph: an invariant and a
    liveness check that name the same variable build its column once, and
    no other."""
    bound, graph = explore_counter(wide)
    built = []
    missing = semantics._Columns.__missing__

    def counted(columns, i):
        built.append(i)
        return missing(columns, i)

    monkeypatch.setattr(semantics._Columns, "__missing__", counted)
    assert graph.columns() is graph.columns()
    assert check_invariant(graph, parse_expr("x <= 5")).status == "pass"
    assert check_eventually(graph, parse_expr("x = 5")).status == "pass"
    assert built == [bound.var_index["x"]]


# Two operations that overflow in different states, each behind a
# short-circuit: `*` from x = 3 on, `+` from x = 2 on.  The columns overflow
# at their corners, so the scalar evaluator decides state by state, and the
# first state that fails (x = 2) names `+`, though `*` comes first.
_OVERFLOWS = ("(x < 3 or x * 4611686018427387904 > 0)"
              " and (x < 2 or x + 9223372036854775806 > 0)")


@pytest.mark.parametrize("wide", [1, sys.maxsize], ids=["keys", "list"])
def test_fallback_reports_the_first_state_that_fails(wide):
    """Every check reports the error of the lowest-indexed state whose
    evaluation fails, and an invariant violated in a state before it
    reports the violation."""
    _, graph = explore_counter(wide)
    pred = parse_expr(_OVERFLOWS)
    want = f"property P at 1:{_OVERFLOWS.index('+') + 1}: integer overflow"
    with pytest.raises(EvalError) as raised:
        graph.holds(pred, "property P", {})
    assert str(raised.value) == want
    assert raised.value.held.tolist() == [True, True]
    verdicts = [
        check_invariant(graph, pred, name="P"),
        check_eventually(graph, pred, name="P"),
        check_leadsto(graph, parse_expr("x = 0"), pred, name="P"),
        check_always_eventually(graph, pred, name="P"),
    ]
    assert [(v.status, v.detail) for v in verdicts] == [("error", want)] * 4
    violated = parse_expr(f"x /= 1 and {_OVERFLOWS}")
    v = check_invariant(graph, violated, name="P")
    assert (v.status, v.detail) == ("fail", "violated at state 1")
    assert replay_trace(graph.bound, v.trace) is None


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
    assert graph_fields(graph)["depth"] == [0, 1, 1]
    everything = state_mask(graph, range(graph.n_states))
    full = _search_fail(graph, everything, everything)
    assert set(scc_members(full).values()) == {frozenset({1, 2})}
    assert_search_matches_reference(graph, random.Random(6), 100)


def test_fail_info_survives_later_searches(math_src):
    # every search rewrites one shared CSR matrix; a result must own its arrays
    bound, graph = build_graph(restart_src(math_src), {"max_num_q": 3})
    everything = state_mask(graph, range(graph.n_states))
    initial = state_mask(graph, graph.initial)
    info = _search_fail(graph, everything, initial)
    fields = ("quiescent_hits", "scc_hits", "order", "pred")
    before = {f: getattr(info, f).copy() for f in fields}
    members, prefix = scc_members(info), _bfs_prefix(info)
    rng = random.Random(8)
    for _ in range(20):
        restrict, starts = random_masks(graph, rng)
        for some in (starts, restrict):
            _search_fail(graph, restrict, some)
    for f in fields:
        assert np.array_equal(getattr(info, f), before[f]), f
    assert scc_members(info) == members
    assert _bfs_prefix(info) == prefix


def assert_mask_walk_matches_reference(graph, rng, steps):
    """Searches in the pattern of `forall` instances, which reuse one CSR,
    rewritten for each search, and differ in a few states: each step flips
    1-3 states of `restrict` or `starts`, or now and then draws fresh masks,
    and some steps start at every allowed state, as always eventually does.
    Each result, and each BFS tree, equals the oracles'."""
    n = graph.n_states
    restrict, starts = random_masks(graph, rng)
    for step in range(steps):
        roll = rng.random()
        if roll < 0.1:
            restrict, starts = random_masks(graph, rng)
        else:
            flipped = restrict if roll < 0.7 else starts
            for i in rng.sample(range(n), min(n, rng.randint(1, 3))):
                flipped[i] = not flipped[i]
        some = starts if rng.random() < 0.8 else restrict
        got = _search_fail(graph, restrict, some)
        want = reference_search(graph, restrict, some)
        if want is None:
            assert got is None, step
            continue
        assert got is not None, step
        assert got.quiescent_hits.tolist() == want[0], step
        assert got.scc_hits.tolist() == want[1], step
        assert scc_members(got) == want[2], step
        _, parents = oracles.bfs_within(
            graph, np.flatnonzero(some).tolist(), set(np.flatnonzero(restrict).tolist())
        )
        tree = {int(v): int(got.pred[v]) for v in got.order[1:]}
        assert tree == {v: n if u is None else u for v, u in parents.items()}, step
        assert set(np.flatnonzero(got.pred >= 0).tolist()) == set(tree), step


@pytest.mark.parametrize("which", ["restart", "clock", "panels", "random"])
def test_search_fail_matches_reference_on_mask_walks(which, math_src, clock_src):
    rng = random.Random(15)
    if which == "random":
        for seed in range(20):
            bound = bind_constants(oracles.gen_spec(seed), {})
            assert validate(bound) == []
            graph = explore(bound, ExploreLimits(max_states=200))
            assert_mask_walk_matches_reference(graph, rng, 40)
        return
    if which == "restart":
        bound, graph = build_graph(restart_src(math_src), {"max_num_q": 3})
    elif which == "clock":
        bound, graph = build_graph(clock_src)
    else:
        bound, graph = build_graph(panels_source(2), {"levels": 3})
    assert_mask_walk_matches_reference(graph, rng, 100)


def test_forall_instances_match_fresh_analysis(math_src):
    # Instances share one CSR, which each search rewrites after the last
    # one's, over masks that differ in few states; each verdict, trace
    # included, equals that of a graph analysed afresh.
    src = restart_src(math_src) + (
        "property Ev: forall x in 0..7 : eventually (num = x and count_wrong = 0)\n"
        "property Rec: forall x in 0..7 : always eventually (num = x)\n"
        "property To: forall x in 0..7 : (num = x and count_wrong = 0) leadsto (count_right = x)\n"
    )
    bound, graph = build_graph(src, {"max_num_q": 6})
    statuses = set()
    for prop in bound.spec.properties:
        if prop.binder is None:
            continue
        for x in range(8):
            got = liveness._check_shape(graph, prop, {"x": x})
            fresh = dataclasses.replace(graph, _analysis=None)
            assert got == liveness._check_shape(fresh, prop, {"x": x}), (prop.name, x)
            statuses.add(got.status)
    assert statuses == {"pass", "fail"}


# --- `forall` sweeps ----------------------------------------------------------------


def binder_values(prop) -> list:
    over = prop.binder[1]
    if isinstance(over, model.RangeSet):
        return list(range(over.lo.value, over.hi.value + 1))
    return [e.value for e in over.elems]


def reference_forall(graph, prop):
    """`check_property`'s verdict rebuilt from the per-instance search alone,
    instance after instance in binder order, on a fresh analysis."""
    fresh = dataclasses.replace(graph, _analysis=None)
    name, values = prop.binder[0], binder_values(prop)
    for x in values:
        v = liveness._check_shape(fresh, prop, {name: x})
        if v.status != "pass":
            v.binder = x
            v.detail = f"{name} = {format_value(x)}: {v.detail}"
            return v
    return Verdict(name=prop.name, kind=prop.kind, status="pass",
                   detail=f"holds for all {len(values)} binder values")


def spy(monkeypatch, name):
    """Wraps `liveness.<name>`; returns the list of its (args, result) pairs."""
    calls, real = [], getattr(liveness, name)

    def wrapper(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(liveness, name, wrapper)
    return calls


def assert_foralls_match_reference(source_or_spec, constants=None):
    """Every property's `check_property` verdict equals `reference_forall`'s;
    returns the graph and the verdicts."""
    if isinstance(source_or_spec, str):
        bound, graph = build_graph(source_or_spec, constants)
    else:
        bound = bind_constants(source_or_spec, {})
        assert validate(bound) == []
        graph = explore(bound, ExploreLimits(max_states=200))
    verdicts = []
    for prop in bound.spec.properties:
        want = reference_forall(graph, prop)
        got = check_property(graph, prop)
        assert got == want, prop.name
        verdicts.append(got)
    return graph, verdicts


@pytest.mark.parametrize("count", [63, 64, 65, 129])
def test_forall_sweep_matches_per_instance_search(count, monkeypatch):
    # 1 searched instance and 62, 63, 64 or 2 x 64 swept ones
    sweeps = spy(monkeypatch, "_sweep")
    cyclic, statuses = set(), set()
    for seed in range(12):
        graph, verdicts = assert_foralls_match_reference(
            oracles.gen_forall_spec(seed, count))
        cyclic.add(bool(liveness._analysis(graph).cyclic.any()))
        statuses |= {v.status for v in verdicts}
    assert cyclic == {True, False}
    assert statuses == {"pass", "fail"}
    assert min(count - 1, liveness._BLOCK) in [len(args[-1]) for args, _ in sweeps]
    assert any(flagged for _, flagged in sweeps)


def test_forall_sweep_flags_a_mid_block_overflow_in_place(monkeypatch):
    # the columns of the instance x = INT_MAX, position 35 of the second
    # block, overflow; the sweep still takes the whole block and leaves
    # that instance to the per-instance search
    sweeps = spy(monkeypatch, "_sweep")
    statuses = set()
    for seed in range(12):
        _, verdicts = assert_foralls_match_reference(
            oracles.gen_forall_spec(seed, 129, overflow_at=100))
        statuses |= {v.status for v in verdicts}
    assert "error" in statuses
    assert any(len(args[-1]) == 64 and args[-1][35]["x"] == INT_MAX and 35 in flagged
               for args, flagged in sweeps)


# x runs from 0 into one of 1..N (all BFS level 1) and up the chain to N:
# reach climbs the chain one back edge per round.
CHAIN = """spec chain
const top : int
var x : int init 0
action Enter {
    when x = 0
    any v in 1..top {
        x' = v
    }
}
action Step {
    when x >= 1 and x < top
    x' = x + 1
}
"""


def test_forall_sweep_round_cap_leaves_the_rest_to_the_search(monkeypatch):
    top = liveness._SWEEP_ROUNDS + 5
    targets = [top] + list(range(2, top))
    src = CHAIN + (
        f"property Cap: forall y in {{{', '.join(map(str, targets))}}} : (x = 1) leadsto (x = y)\n"
    )
    spreads = spy(monkeypatch, "_spread")
    searched = spy(monkeypatch, "_check_shape")
    _, [verdict] = assert_foralls_match_reference(src, {"top": top})
    assert verdict.status == "pass"
    # instance y needs y - 2 rounds
    [(_, unsettled)] = spreads
    assert unsettled == sum(1 << k for k, y in enumerate(targets[1:]) if y - 2 > liveness._SWEEP_ROUNDS)
    # after the reference's searches: the first instance, then the two capped
    assert [args[2]["y"] for args, _ in searched[len(targets):]] == [top, top - 2, top - 1]


def test_forall_sweep_overflow_reaches_the_error(monkeypatch):
    int_max = INT_MAX
    members = [9] + list(range(10, 50)) + [int_max] + list(range(50, 100))
    src = CHAIN + (
        f"property Over: forall y in {{{', '.join(map(str, members))}}} :"
        " (x = 1) leadsto (x + y > 0)\n"
    )
    sweeps = spy(monkeypatch, "_sweep")
    _, [verdict] = assert_foralls_match_reference(src, {"top": 9})
    assert verdict.status == "error"
    assert verdict.binder == int_max
    assert [flagged for _, flagged in sweeps] == [[40]]


DETOUR = """spec detour
var x : int init 0
action Enter {
    when x = 0
    any v in {1, 2} {
        x' = v
    }
}
action Across {
    when x = 1
    x' = 2
}
action Down {
    when x = 2
    x' = 3
}
action Up {
    when x = 3
    x' = 1
}
property Ev: forall y in 0..3 : eventually (x = y)
"""


def test_forall_sweep_flags_a_scc_search_that_passes(monkeypatch):
    # 1 -> 2 -> 3 -> 1 is a cycle, and 1 -> 2 joins two states of BFS level
    # 1; for y = 3 both are reached, but the cycle runs through 3
    searched = spy(monkeypatch, "_check_shape")
    graph, [verdict] = assert_foralls_match_reference(DETOUR)
    assert verdict.status == "pass"
    assert liveness._analysis(graph).cyclic.sum() == 3
    # after the reference's 4 searches: the first instance, then y = 3
    assert [(args[2]["y"], v.status) for args, v in searched[4:]] == [(0, "pass"), (3, "pass")]


def assert_spread_matches_restricted_reach(graph, rng, blocks):
    """`_spread`, run on 64 random (allowed, seeds) pairs at once, leaves in
    each settled bit the states that the oracle's BFS inside `allowed`
    reaches from the seeds, and in each unsettled bit some of them."""
    ana = liveness._analysis(graph)
    if ana.plan is None:
        ana.plan = liveness._SweepPlan(graph, ana)
    n = graph.n_states
    for block in range(blocks):
        pairs = []
        allowed, reach = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
        for k in range(64):
            restrict = np.array([rng.random() < rng.choice([0.5, 0.8, 1.0]) for _ in range(n)])
            seeds = rng.sample(range(n), min(n, rng.randint(1, 3)))
            pairs.append((set(np.flatnonzero(restrict).tolist()), seeds))
            allowed |= restrict.astype(np.uint64) << np.uint64(k)
            reach[[i for i in seeds if restrict[i]]] |= np.uint64(1 << k)
        unsettled = int(liveness._spread(ana, allowed, reach))
        for k, (restrict, seeds) in enumerate(pairs):
            got = set(np.flatnonzero(reach >> np.uint64(k) & np.uint64(1)).tolist())
            want = oracles.restricted_reach(graph, seeds, restrict)
            if unsettled >> k & 1:
                assert got <= want, (block, k)
            else:
                assert got == want, (block, k)


@pytest.mark.parametrize("which", ["math", "restart", "clock", "panels", "chain", "random"])
def test_spread_matches_restricted_reach(which, math_src, clock_src):
    rng = random.Random(16)
    if which == "random":
        for seed in range(20):
            bound = bind_constants(oracles.gen_spec(seed), {})
            assert validate(bound) == []
            assert_spread_matches_restricted_reach(
                explore(bound, ExploreLimits(max_states=200)), rng, 2)
        return
    if which == "math":
        bound, graph = build_graph(math_src, {"max_num_q": 4})
    elif which == "restart":
        bound, graph = build_graph(restart_src(math_src), {"max_num_q": 4})
    elif which == "clock":
        bound, graph = build_graph(clock_src)
    elif which == "panels":
        bound, graph = build_graph(panels_source(2), {"levels": 3})
    else:
        bound, graph = build_graph(CHAIN, {"top": liveness._SWEEP_ROUNDS + 5})
    assert_spread_matches_restricted_reach(graph, rng, 6)


def test_deadline_after_the_first_block_stops_the_forall(math_src, monkeypatch):
    bound, graph = build_graph(math_src, {"max_num_q": 70})
    sweeps = spy(monkeypatch, "_sweep")
    monkeypatch.setattr(Deadline, "expired", lambda self: len(sweeps) > 0)
    with pytest.raises(LimitError) as err:
        check_property(graph, prop_named(bound.spec, "Reachability"), Deadline.after(3600))
    assert str(err.value) == "time limit of 3600 s exceeded while checking property Reachability"
    assert len(sweeps) == 1



class ExpiresAfter(Deadline):
    """A deadline whose first `checks` checks find it unexpired."""

    def __init__(self, checks: int):
        super().__init__(3600.0, 0.0)
        self.checks = checks

    def expired(self) -> bool:
        self.checks -= 1
        return self.checks < 0


def test_deadline_interrupts_the_analysis_build_and_the_sweep_rounds():
    # Cap's sweep needs back-edge rounds (see the round-cap test), and the
    # analysis is built inside the check, so the deadline can expire between
    # the build's steps and between the rounds.
    top = liveness._SWEEP_ROUNDS + 5
    targets = [top] + list(range(2, top))
    src = CHAIN + (
        f"property Cap: forall y in {{{', '.join(map(str, targets))}}} : (x = 1) leadsto (x = y)\n"
    )
    bound, graph = build_graph(src, {"top": top})
    prop = prop_named(bound.spec, "Cap")
    counter = ExpiresAfter(sys.maxsize)
    verdict = check_property(graph, prop, counter)
    assert verdict.status == "pass"
    checks = sys.maxsize - counter.checks
    where = set()
    for k in range(checks):
        fresh = dataclasses.replace(graph, _analysis=None)
        with pytest.raises(LimitError) as err:
            check_property(fresh, prop, ExpiresAfter(k))
        assert str(err.value) == "time limit of 3600 s exceeded while checking property Cap"
        where.add(err.traceback[-2].name)  # the function that checked the clock
    assert {"__init__", "_spread", "_sweep", "check_property"} <= where
    fresh = dataclasses.replace(graph, _analysis=None)
    assert check_property(fresh, prop, ExpiresAfter(checks)) == verdict


# --- `forall` blocks over `var = x` in one pass --------------------------------------


def sweep_blocks(graph, prop) -> tuple:
    """The blocks of binder dicts that `check_property` hands to `_sweep`,
    and the `slots` it hands with each."""
    values = semantics.eval_const_set(prop.binder[1], graph.bound, "test")
    instances = [{prop.binder[0]: v} for v in values]
    slots = functools.cache(lambda var: liveness._value_slots(graph.columns()[var], values))
    blocks = [instances[i:i + liveness._BLOCK] for i in range(1, len(instances), liveness._BLOCK)]
    return blocks, slots


def assert_one_pass_matches_holds(graph, prop, monkeypatch) -> int:
    """With the one-pass matcher, `_sweep_words` gives the words and the
    valid mask of the per-instance `holds` packing on every block, and
    `check_property` its verdict, trace included.  Returns the number of
    rows built in one pass."""
    preds, where = liveness._preds(prop.shape), f"property {prop.name}"
    blocks, slots = sweep_blocks(graph, prop)
    passes = spy(monkeypatch, "_equality_word")
    got = [liveness._sweep_words(graph, preds, where, slots, block) for block in blocks]
    one_pass = len(passes)
    verdict = check_property(dataclasses.replace(graph, _analysis=None), prop)
    made = len(passes)
    with monkeypatch.context() as m:
        m.setattr(liveness, "_binder_equality", lambda *args: None)
        want = [liveness._sweep_words(graph, preds, where, slots, block) for block in blocks]
        assert check_property(dataclasses.replace(graph, _analysis=None), prop) == verdict
    assert len(passes) == made  # the holds packing made none
    for (words, valid), (want_words, want_valid) in zip(got, want):
        assert valid == want_valid
        assert words.tolist() == want_words.tolist()
    return one_pass


def binder_equal(var, binder, binder_first=False):
    sides = [model.Name(name=var), model.Name(name=binder)]
    return model.Binary(op="=", left=sides[binder_first], right=sides[not binder_first])


def test_one_pass_blocks_match_holds_on_random_specs(monkeypatch):
    pools = {"int": [2, 0, 1000, 1], "bool": [True, False], "string": ["c", "zz", "a", "b"]}
    kinds = set()
    for seed in range(20):
        spec = oracles.gen_spec(seed)
        props = []
        for v in spec.variables:
            same = [w.name for w in spec.variables if w.kind == v.kind]
            over = model.SetLit(elems=[model.Lit(value=x) for x in pools[v.kind]])
            props += [(shape, over) for shape in [
                model.Eventually(pred=binder_equal(v.name, "x")),
                model.AlwaysEventually(pred=binder_equal(v.name, "x", binder_first=True)),
                model.LeadsTo(lhs=binder_equal(v.name, "x"), rhs=binder_equal(same[-1], "x")),
            ]]
            kinds.add(v.kind)
        spec.properties = [model.TemporalProperty(name=f"P{i}", shape=shape, binder=("x", over))
                           for i, (shape, over) in enumerate(props)]
        bound = bind_constants(spec, {})
        assert validate(bound) == []
        graph = explore(bound, ExploreLimits(max_states=200))
        for prop in spec.properties:
            rows = len(liveness._preds(prop.shape))
            assert assert_one_pass_matches_holds(graph, prop, monkeypatch) == rows
    assert kinds == {"int", "bool", "string"}


@pytest.mark.parametrize("prop, n, one_pass", [
    ("forall x in {5, 2, 9, 1, 3, 7} : eventually (num = x)", 9, 1),
    ('forall r in {"Wrong", "", "Right", "Maybe"} : eventually (result = r)', 4, 1),
    ("forall x in 1..5 : always eventually (x = num)", 5, 1),
    ("forall x in {0, 3, 1000, 0 - 4, 2} : eventually (num = x)", 4, 1),
    ("forall x in {1, 100000, 3, 0 - 5} : eventually (count_right = x)", 4, 1),
    ("forall b in {true, false} : always eventually (input_enabled = b)", 2, 1),
    ("forall x in 1..140 : eventually (num = x)", 140, 3),
    ("forall x in 0..8 : (num = x) leadsto (count_right = x)", 8, 2),
    ("forall x in 0..8 : (count_right = x) leadsto (count_wrong = x)", 8, 2),
    ("forall x in 1..9 : (num = x) leadsto (count_right + count_wrong >= x)", 9, 1),
], ids=["unsorted", "string", "binder first", "unheld", "sparse", "bool", "over 64",
        "leadsto", "leadsto fails", "premise only"])
@pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
def test_one_pass_blocks_match_holds_on_math(prop, n, one_pass, cyclic, math_src, monkeypatch):
    src = (restart_src(math_src) if cyclic else math_src) + f"property P: {prop}\n"
    bound, graph = build_graph(src, {"max_num_q": n})
    p = prop_named(bound.spec, "P")
    assert assert_one_pass_matches_holds(graph, p, monkeypatch) == one_pass


def test_one_pass_premise_keeps_an_overflowing_instance_clear(monkeypatch):
    # the target of y = 5, position 4 of the block, overflows, so that
    # instance's premise bits, built in one pass, are cleared with its target's
    members = [9] + list(range(1, 9)) + list(range(10, 60))
    src = CHAIN + (
        f"property Over: forall y in {{{', '.join(map(str, members))}}} :"
        " (x = y) leadsto ((if y = 5 then x + 9223372036854775807 else x) > 0)\n"
    )
    bound, graph = build_graph(src, {"top": 60})
    prop = prop_named(bound.spec, "Over")
    assert assert_one_pass_matches_holds(graph, prop, monkeypatch) == 1
    [block], slots = sweep_blocks(graph, prop)
    words, valid = liveness._sweep_words(graph, liveness._preds(prop.shape), "property Over",
                                         slots, block)
    assert valid == (1 << len(block)) - 1 - (1 << 4)
    assert not (words[0] >> np.uint64(4) & np.uint64(1)).any()
    assert (words[0] >> np.uint64(5) & np.uint64(1)).any()  # y = 6 holds at x = 6
    verdict = check_property(graph, prop)
    assert (verdict.status, verdict.binder) == ("error", 5)


def test_equality_word_matches_a_scan():
    rng = random.Random(26)
    pools = {
        np.int64: [INT_MIN, INT_MIN + 1, -5, -1, 0, 1, 2, 3, 70_000, INT_MAX - 1, INT_MAX],
        bool: [False, True],
        object: ["", "a", "b", "Right", "Wrong"],
    }
    for dtype, pool in pools.items():
        for _ in range(60):
            column = np.array([rng.choice(pool) for _ in range(rng.randint(1, 300))], dtype=dtype)
            # a block's values among all the binder values the column was searched for
            values = rng.sample(pool, rng.randint(1, len(pool)))
            block = rng.sample(values, rng.randint(1, len(values)))
            want = np.zeros(column.size, dtype=np.uint64)
            for k, v in enumerate(block):
                want |= (column == v).astype(np.uint64) << np.uint64(k)
            slots = liveness._value_slots(column, values)
            assert liveness._equality_word(slots, block).tolist() == want.tolist(), (values, block)


# Binders named like names of the generated code: the state `s`, numpy `np`,
# the explore loop's state count `m`, the fresh names `v0` and `t0`, and `b`.
# Every variable has a domain, so the graph can also be stored as keys.
GENERATED_NAMES = """spec names
var x : int domain 0..7 init 0
var y : int domain 0..2 init 0
action Jump {
    when x < 6
    any s in {1, 2} {
        any m in 0..s {
            x' = x + s
            y' = m
        }
    }
}
action Reset {
    when x >= 6
    x' = 0
    y' = 0
}
property Hit: forall np in 0..7 : eventually (x = np)
property Above: forall s in 0..3 : eventually (x >= s)
property Low: forall v0 in 0..2 : always eventually (y >= v0)
property Lead: forall t0 in 0..3 : (x = t0) leadsto (y = t0)
property Spread: forall b in 0..2 : (x >= b) leadsto (x < b or y >= b)
property Fallback: forall s in 0..3 :
    eventually (if x > 100 then x * 9223372036854775807 > s else x >= s)
"""


@pytest.mark.parametrize("wide", [1, sys.maxsize], ids=["keys", "tuples"])
def test_binders_named_like_generated_code_match_the_oracle(wide, monkeypatch):
    bound = build(GENERATED_NAMES)
    with monkeypatch.context() as m:
        m.setattr(explorer, "_WIDE", wide)
        graph = explore(bound)
    assert isinstance(graph.states, KeyStates) == (wide == 1)
    reference = oracles.explore_reference(bound, 10**6)[1]
    assert list(graph.states) == reference["states"]
    oracle = {model.Eventually: oracles.oracle_eventually,
              model.AlwaysEventually: oracles.oracle_always_eventually,
              model.LeadsTo: oracles.oracle_leadsto}
    statuses = set()
    for prop in bound.spec.properties:
        bname, bset = prop.binder
        want = ("pass", None)
        for v in semantics.eval_const_set(bset, bound, prop.name):
            columns = [[bool(oracles.evaluate(e, s, {bname: v}, bound)) for s in graph.states]
                       for e in liveness._preds(prop.shape)]
            if not oracle[type(prop.shape)](graph, *columns):
                want = ("fail", v)
                break
        verdict = check_property(graph, prop)
        assert (verdict.status, verdict.binder) == want, prop.name
        statuses.add(verdict.status)
    assert statuses == {"pass", "fail"}
    # the equality premise and target build their sweep words in one pass
    assert assert_one_pass_matches_holds(graph, prop_named(bound.spec, "Hit"), monkeypatch)
    assert assert_one_pass_matches_holds(graph, prop_named(bound.spec, "Lead"), monkeypatch)


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
    want = reference_search(graph, restrict, starts)
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
        info = _search_fail(graph, restrict, starts)
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
    """Failing `eventually`, `leadsto` and `always eventually` traces, over
    random target and premise columns, start with the reference prefix and
    loop from its end."""
    columns = {}
    monkeypatch.setattr(StateGraph, "holds", lambda g, pred, where, b: columns[pred])
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
            head = discovery_path(graph, want[0])
            prefix = head[:-1] + want
            assert v.trace.loop_start == len(prefix) - 1, trial
            assert v.trace.states[:len(prefix)] == [graph.states[i] for i in prefix], trial
            assert replay_trace(graph.bound, v.trace) is None, trial

        want = reference_prefix(graph, restrict, restrict)
        v = check_always_eventually(graph, "target")
        if want is None:
            assert v.status == "pass", trial
        else:
            assert v.status == "fail", trial
            assert want == [want[-1]], trial  # every allowed state is a start
            assert v.detail == f"after state {want[-1]} the target never holds again", trial
            prefix = discovery_path(graph, want[-1])
            assert v.trace.loop_start == len(prefix) - 1, trial
            assert v.trace.states[:len(prefix)] == [graph.states[i] for i in prefix], trial
            assert replay_trace(graph.bound, v.trace) is None, trial


def panels_source(seed):
    """perfbench's generated dashboard spec with 3 panels of 3 levels: every
    state has 6 edges, in an order the seed shuffles."""
    return perfbench_workloads().panels_source(seed, 3, 3)


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
def test_lasso_prefixes_match_reference_on_panels(seed, monkeypatch):
    bound, graph = build_graph(panels_source(seed), {"levels": 3})
    assert_prefixes_match_reference(graph, random.Random(12), 100)
    assert_lassos_match_reference(graph, random.Random(10), 50, monkeypatch)


# --- loop search ---------------------------------------------------------------------


def assert_cycles_match_reference(graph, allowed):
    """`_cycle_through` finds the reference walk's first cycle from every
    state of every nontrivial SCC inside `allowed`."""
    for comp in oracles._tarjan_sccs(oracles._changing_adj(graph, allowed)):
        if len(comp) < 2:
            continue
        members = frozenset(comp)
        column = np.zeros(graph.n_states, dtype=bool)
        column[comp] = True
        for entry in comp:
            want = oracles.first_cycle_through(graph, entry, members)
            assert _cycle_through(graph, entry, column) == want, (entry, members)


def random_digraph(rng, n):
    """A stand-in for a StateGraph: n states with up to 4 edges each, in
    random order, self-loops and repeated edges included."""
    rows = [[rng.randrange(n) for _ in range(rng.randint(0, 4))] for _ in range(n)]
    start, dst = [0], []
    for row in rows:
        dst.extend(row)
        start.append(len(dst))
    return SimpleNamespace(
        n_states=n, edge_start=start, edge_dst=dst,
        out_edges=lambda u: [("a", v) for v in rows[u]],
    )


def test_cycle_through_matches_reference_on_random_sccs():
    rng = random.Random(13)
    for _ in range(1000):
        graph = random_digraph(rng, rng.randint(2, 16))
        allowed = {i for i in range(graph.n_states) if rng.random() < 0.8}
        assert_cycles_match_reference(graph, allowed)


def test_cycle_through_matches_reference_on_random_specs():
    rng = random.Random(14)
    for seed in range(20):
        bound = bind_constants(oracles.gen_spec(seed), {})
        assert validate(bound) == []
        graph = explore(bound, ExploreLimits(max_states=200))
        for density in (0.6, 0.8, 1.0):
            allowed = {i for i in range(graph.n_states) if rng.random() < density}
            assert_cycles_match_reference(graph, allowed)


@pytest.mark.parametrize("trial", [14, 87])
def test_cycle_through_is_linear_on_panels(trial):
    # A 125-state SCC in which the reference walk tries a great many simple
    # paths before it closes the loop (it ran for seconds).
    bound, graph = build_graph(panels_source(3), {"levels": 3})
    rng = random.Random(10)
    for _ in range(trial + 1):
        restrict, starts = random_masks(graph, rng)
    info = _search_fail(graph, restrict, starts)
    entry = _bfs_prefix(info)[-1]
    assert info.on_scc(entry)
    column = info.scc_of(entry)
    members = frozenset(np.flatnonzero(column).tolist())
    with pytest.raises(RuntimeError, match="step cap"):
        oracles.first_cycle_through(graph, entry, members, step_cap=100_000)
    t0 = time.perf_counter()
    cycle = _cycle_through(graph, entry, column)
    assert time.perf_counter() - t0 < 1.0
    assert cycle[0] == entry and len(set(cycle)) == len(cycle) >= 2
    assert set(cycle) <= members
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert v in {t for _, t in graph.out_edges(u)}


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


_POOLS = {"int": oracles._INT_POOL, "bool": (True, False), "string": oracles._STR_POOL}


def with_domains_and_invariant(spec, seed: int):
    """`spec` with each variable's pool as its domain, so that its states
    pack into keys, and one invariant, under the binder of the spec's
    `forall` properties when they have one."""
    var_pool = [(v.name, v.kind) for v in spec.variables]
    for v in spec.variables:
        v.domain = model.SetLit(elems=[model.Lit(value=x) for x in _POOLS[v.kind]])
    binder = next((p.binder for p in spec.properties if p.binder is not None), None)
    rng = random.Random(f"invariant {seed}")
    pred = oracles._gen_pred(rng, var_pool, {} if binder is None else {binder[0]: "int"})
    spec.properties.append(model.TemporalProperty(name="Inv", shape=model.Invariant(pred=pred),
                                                  binder=binder))
    return spec


def oracle_holds(bound, graph, prop) -> bool:
    """Whether `prop` holds in `graph`, from `tests/oracles.py` alone: every
    binder value's instance holds."""
    shape, instances = prop.shape, [{}]
    if prop.binder is not None:
        name, over = prop.binder
        instances = [{name: x} for x in oracles.members(over, None, {}, bound)]
    for binders in instances:
        values = functools.partial(pred_values, graph, bound, binders=binders)
        if isinstance(shape, model.Invariant):
            holds = all(values(shape.pred))
        elif isinstance(shape, model.Eventually):
            holds = oracles.oracle_eventually(graph, values(shape.pred))
        elif isinstance(shape, model.LeadsTo):
            holds = oracles.oracle_leadsto(graph, values(shape.lhs), values(shape.rhs))
        else:
            holds = oracles.oracle_always_eventually(graph, values(shape.pred))
        if not holds:
            return False
    return True


@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_verdicts_on_both_stores_match_oracles(seed):
    """A generated spec explored one state at a time (a list of tuples) and
    as columns from level 0 (keys, looked up in sorted runs and in a table)
    gives the same graph and the same verdicts, each the oracles' verdict,
    and every trace replays."""
    for spec in (oracles.gen_spec(seed), oracles.gen_forall_spec(seed, 5)):
        bound = bind_constants(with_domains_and_invariant(spec, seed), {})
        assert validate(bound) == []
        runs = []
        for wide, dense_bits in ((1, 0), (1, explorer._DENSE_BITS),
                                 (sys.maxsize, explorer._DENSE_BITS)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(explorer, "_WIDE", wide)
                mp.setattr(explorer, "_DENSE_BITS", dense_bits)
                graph = explore(bound)
            runs.append((graph_fields(graph, levels=True), graph, [
                check_deadlock(graph), *(check_property(graph, p) for p in spec.properties)]))
        *keyed, (listed, graph, want) = runs
        for fields, _, verdicts in keyed:
            assert fields == listed
            assert verdicts == want
        deadlock = any(not oracles.step(bound, s) for s in graph.states)
        assert want[0].status == ("fail" if deadlock else "pass")
        for prop, v in zip(spec.properties, want[1:]):
            assert v.status == ("pass" if oracle_holds(bound, graph, prop) else "fail"), prop
        for v in want:
            assert v.trace is None or replay_trace(bound, v.trace) is None, v


# --- the analysis's dedupe and the search's one matrix ---------------------------


def first_changing_copies(rows: list) -> list:
    """The first copy of each (source, target) pair with source != target,
    in edge order."""
    seen = {}
    for u, row in enumerate(rows):
        for v in row:
            if u != v:
                seen.setdefault((u, v))
    return list(seen)


def csr_of(rows: list) -> tuple:
    """The (edge_start, edge_dst) int64 arrays of `rows`."""
    edge_start = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    return edge_start, np.array([v for row in rows for v in row], dtype=np.int64)


def matrix_pairs_repeat(matrix) -> bool:
    """Whether a row of the CSR `matrix` holds one column twice, not
    counting its self-loops."""
    for r in range(matrix.shape[0]):
        cols = matrix.indices[matrix.indptr[r]:matrix.indptr[r + 1]].tolist()
        cols = [c for c in cols if c != r]
        if len(cols) != len(set(cols)):
            return True
    return False


def test_changing_edges_keep_the_first_copy_of_each_pair(monkeypatch):
    """The dedupe, on random rows with repeated targets and self-loops, some
    too long for the shifted compares: the first copy of each pair, in edge
    order, and a matrix with no repeated entry but self-loops.  scipy's SCC
    pass is replaced, so a wrong dedupe fails here instead of hanging it."""
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    monkeypatch.setattr(liveness.csgraph, "connected_components",
                        lambda m, **k: (m.shape[0], np.arange(m.shape[0])))
    rng = random.Random(8)
    lengths = [0, 1, 2, 3, 10, liveness._SHIFT_ROWS, liveness._SHIFT_ROWS + 1, 80]
    shifted = fallback = 0
    for trial in range(300):
        n = rng.randint(1, 40)
        # few distinct targets per row, so repeats and self-loops are common
        rows = [[rng.randrange(n) if rng.random() < 0.5 else u + rng.randrange(3) - 1
                 for _ in range(rng.choice(lengths))] for u in range(n)]
        rows = [[min(max(v, 0), n - 1) for v in row] for row in rows]
        if trial % 3 == 0:  # rows short enough to be compared shifted
            rows = [row[:liveness._SHIFT_ROWS] for row in rows]
        edge_start, edge_dst = csr_of(rows)
        sorts.clear()
        src, dst = liveness._changing_edges(edge_start, edge_dst)
        longest = max(map(len, rows))
        assert sorts == ([1] if longest > liveness._SHIFT_ROWS else []), trial
        shifted += not sorts
        fallback += bool(sorts)
        want = first_changing_copies(rows)
        assert (src.dtype, dst.dtype) == (np.int32, np.int32)
        assert list(zip(src.tolist(), dst.tolist())) == want, trial
        graph = SimpleNamespace(n_states=n, edge_start=edge_start, edge_dst=edge_dst,
                                levels=np.array([0, n], dtype=np.int64))
        ana = liveness._Analysis(graph)
        assert not matrix_pairs_repeat(ana._csr), trial
        mask = np.array([rng.random() < 0.7 for _ in range(n)])
        starts = np.array([rng.random() < 0.3 for _ in range(n)])
        assert not matrix_pairs_repeat(ana.restricted(mask, starts)), trial
    assert shifted > 50 and fallback > 50


def test_the_analysis_of_the_benchmark_workloads_sorts_nothing(monkeypatch):
    """Every row of the benchmark's graphs is short enough for the shifted
    compares: the analysis runs no global sort."""
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    for name in ["math-dag", "math-cyclic", "panels-wide"]:
        w = perfbench_workloads().WORKLOADS[name](1)
        bound, graph = build_graph(w.source, w.constants)
        liveness._analysis(graph)
        assert sorts == [], name


def test_the_analysis_matrix_keeps_no_value_per_entry():
    """scipy's passes never read the matrix's values, so one zero-stride 1.0
    stands for all of them, and the failing searches' rewrites keep it."""
    bound, graph = build_graph(panels_source(1), {"levels": 3})
    statuses = [check_property(graph, p).status for p in bound.spec.properties]
    assert "fail" in statuses
    assert liveness._analysis(graph)._csr.data.strides == (0,)


# States 1 <-> 2 and 3 <-> 4 are two 2-cycles, entered from 0.
TWO_CYCLES = """spec two_cycles
var x : int init 0
action Enter {
    when x = 0
    any v in {1, 3} {
        x' = v
    }
}
action Low {
    when x = 1 or x = 2
    x' = 3 - x
}
action High {
    when x >= 3
    x' = 7 - x
}
"""


def test_search_scc_pass_reads_the_bfs_matrix(monkeypatch):
    """A failing search rewrites the matrix once, for its BFS and its SCC
    pass: with two disjoint cycles in `restrict` and starts that reach one,
    the SCC pass sees both, but the search keeps only the reached one."""
    bound, graph = build_graph(TWO_CYCLES)
    low, high = (index_of(graph)[(v,)] for v in (1, 3))
    liveness._analysis(graph)
    calls = []
    restricted = liveness._Analysis.restricted
    monkeypatch.setattr(liveness._Analysis, "restricted",
                        lambda self, *a: calls.append(a) or restricted(self, *a))
    restrict = state_mask(graph, range(1, graph.n_states))
    starts = state_mask(graph, [low])
    info = _search_fail(graph, restrict, starts)
    assert len(calls) == 1
    assert info.labels is not None  # the SCC pass ran
    pair = frozenset({low, index_of(graph)[(2,)]})
    assert scc_members(info) == dict.fromkeys(pair, pair)
    assert info.quiescent_hits.size == 0
    want = reference_search(graph, restrict, starts)
    assert (info.quiescent_hits.tolist(), info.scc_hits.tolist(), scc_members(info)) \
        == (want[0], want[1], {i: want[2][i] for i in want[1]})
    # the other cycle is nontrivial in the very same labels
    assert info.labels[high] == info.labels[index_of(graph)[(4,)]]
    assert np.bincount(info.labels)[info.labels[high]] == 2
