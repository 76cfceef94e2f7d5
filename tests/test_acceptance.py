"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test prints a single `criterion N: PASS` line on success (run with
`pytest -s tests/test_acceptance.py` to see them); a failing criterion fails
its test.
"""

import json
import re

import pytest

import oracles
from conftest import build_graph, corpus_path
from spacheck import (
    ExploreLimits,
    Trace,
    bind_constants,
    check_deadlock,
    check_eventually,
    check_invariant,
    check_property,
    check_leadsto,
    check_always_eventually,
    explore,
    parse_spec,
    pretty_print,
    replay_trace,
    successors,
    validate,
)
from spacheck.cli import RunConfig, emit_json, run_check
from spacheck.model import state_to_record
from spacheck.parser import _Parser, tokenize


def parse_expr(text: str):
    return _Parser(tokenize(text)).expr()


def prop_named(spec, name):
    return [p for p in spec.properties if p.name == name][0]


def ok(n: int, message: str):
    print(f"criterion {n}: PASS - {message}")


def test_criterion_01_clock_verdicts(clock_src):
    bound, graph = build_graph(clock_src)
    inv = check_property(graph, prop_named(bound.spec, "Invariant"))
    live = check_property(graph, prop_named(bound.spec, "Liveness"))
    assert inv.status == "pass"
    assert live.status == "pass"
    assert graph.n_states == 24
    assert graph.n_transitions == 24
    ok(1, "clock invariant and recurrence pass; 24 states, 24 transitions")


def test_criterion_02_math_reachability(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_property(graph, prop_named(bound.spec, "Reachability"))
    assert v.status == "pass"
    ok(2, "forall x in 1..5 : eventually (num = x) passes at max_num_q=5")


@pytest.mark.parametrize("n", [1, 3, 5])
def test_criterion_03_math_leadsto(math_src, n):
    bound, graph = build_graph(math_src, {"max_num_q": n})
    v = check_property(graph, prop_named(bound.spec, "Liveness"))
    assert v.status == "pass"
    if n == 5:
        ok(3, "input_enabled leadsto new_question_enabled passes for n in {1, 3, 5}")


def test_criterion_04_failing_invariant(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_invariant(graph, parse_expr("num = count_right + count_wrong"))
    assert v.status == "fail"
    assert len(v.trace.states) == 1  # the initial state itself violates it
    assert replay_trace(bound, v.trace) is None
    ok(4, "num = count_right + count_wrong fails with a replayable length-1 trace")


def test_criterion_05_corrected_invariant(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_invariant(graph, parse_expr('result = "" or num = count_right + count_wrong'))
    assert v.status == "pass"
    ok(5, 'result = "" or num = count_right + count_wrong passes')


def test_criterion_06_deadlock_mutant(math_src, buggy_src):
    bound, graph = build_graph(buggy_src, {"max_num_q": 3})
    v = check_deadlock(graph)
    assert v.status == "fail"
    final = v.trace.states[-1]
    assert state_to_record(final, bound.spec)["num"] == 4  # max_num_q + 1
    assert successors(final, bound) == []
    clean_bound, clean_graph = build_graph(math_src, {"max_num_q": 3})
    assert check_deadlock(clean_graph).status == "pass"
    ok(6, "buggy guard deadlocks at num = max_num_q + 1; clean spec does not")


def test_criterion_07_state_count_law(math_src):
    for n in (1, 2, 3, 4):
        hand = oracles.math_reachable(n)  # independent hand-coded enumeration
        bound, graph = build_graph(math_src, {"max_num_q": n})
        assert len(hand) == 2 * n * (n + 1)
        assert graph.n_states == len(hand)
        assert {tuple(s) for s in graph.states} == hand
    ok(7, "reachable math states equal 2n(n+1) for n in 1..4 (4, 12, 24, 40)")


def _oracle_for(kind):
    return {
        "eventually": oracles.oracle_eventually,
        "leadsto": oracles.oracle_leadsto,
        "always_eventually": oracles.oracle_always_eventually,
    }[kind]


def _pred_values(graph, bound, expr, binders=None):
    return [
        bool(oracles.evaluate(expr, s, binders or {}, bound)) for s in graph.states
    ]


def _compare_all_liveness(bound, graph) -> int:
    from spacheck.model import AlwaysEventually, Eventually, LeadsTo
    from spacheck.semantics import eval_const_set

    compared = 0
    for prop in bound.spec.properties:
        shape = prop.shape
        if prop.binder is not None:
            bname, bset = prop.binder
            instances = [{bname: v} for v in eval_const_set(bset, bound, prop.name)]
        else:
            instances = [{}]
        for binders in instances:
            if isinstance(shape, Eventually):
                got = check_eventually(graph, shape.pred, binders=binders).status
                want = oracles.oracle_eventually(
                    graph, _pred_values(graph, bound, shape.pred, binders)
                )
            elif isinstance(shape, LeadsTo):
                got = check_leadsto(graph, shape.lhs, shape.rhs, binders=binders).status
                want = oracles.oracle_leadsto(
                    graph,
                    _pred_values(graph, bound, shape.lhs, binders),
                    _pred_values(graph, bound, shape.rhs, binders),
                )
            elif isinstance(shape, AlwaysEventually):
                got = check_always_eventually(graph, shape.pred, binders=binders).status
                want = oracles.oracle_always_eventually(
                    graph, _pred_values(graph, bound, shape.pred, binders)
                )
            else:
                continue
            assert got == ("pass" if want else "fail"), (bound.spec.name, prop.name, binders)
            compared += 1
    return compared


def test_criterion_08_liveness_oracle_equivalence(math_src, clock_src, buggy_src):
    compared = 0
    corpus = [
        (math_src, {"max_num_q": 3}),
        (math_src, {"max_num_q": 5}),
        (buggy_src, {"max_num_q": 3}),
        (clock_src, {}),
    ]
    for src, consts in corpus:
        bound, graph = build_graph(src, consts)
        assert graph.n_states <= 200
        compared += _compare_all_liveness(bound, graph)
    # binderless kernels of the corpus Reachability property, expanded by hand
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    for x in (1, 2, 3):
        pred = parse_expr(f"num = {x}")
        got = check_eventually(graph, pred).status
        want = oracles.oracle_eventually(graph, _pred_values(graph, bound, pred))
        assert got == ("pass" if want else "fail")
        compared += 1

    specs = 0
    seed = 0
    while specs < 20:
        spec = oracles.gen_spec(seed)
        seed += 1
        source = pretty_print(spec)
        parsed = parse_spec(source)
        bound = bind_constants(parsed, {})
        assert validate(bound) == [], source
        graph = explore(bound, ExploreLimits(max_states=200))
        assert graph.n_states <= 200
        compared += _compare_all_liveness(bound, graph)
        specs += 1
    ok(8, f"{compared} liveness verdicts match the lasso-enumeration oracle "
          f"({specs} random specs + corpus)")


def _collect_failure_traces(math_src, buggy_src):
    out = []
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    v = check_invariant(graph, parse_expr("num = count_right + count_wrong"))
    out.append((bound, v.trace))
    v = check_eventually(graph, parse_expr("num = 6"))
    out.append((bound, v.trace))

    bound3, graph3 = build_graph(math_src, {"max_num_q": 3})
    v = check_always_eventually(graph3, parse_expr("input_enabled"))
    out.append((bound3, v.trace))

    bbound, bgraph = build_graph(buggy_src, {"max_num_q": 3})
    out.append((bbound, check_deadlock(bgraph).trace))

    mutated = math_src.replace("new_question_enabled' = true\n", "", 1)
    mbound, mgraph = build_graph(mutated, {"max_num_q": 3})
    v = check_leadsto(
        mgraph, parse_expr("input_enabled"), parse_expr("new_question_enabled")
    )
    out.append((mbound, v.trace))
    return out


def _mutations(value):
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1]
    return [value + "x", "Right" if value != "Right" else "Wrong"]


def test_criterion_09_trace_validity(math_src, buggy_src):
    traces = _collect_failure_traces(math_src, buggy_src)
    # every random-spec failure trace replays too
    for seed in range(12):
        spec = oracles.gen_spec(seed)
        bound = bind_constants(spec, {})
        assert validate(bound) == []
        graph = explore(bound)
        for prop in spec.properties:
            v = check_property(graph, prop)
            if v.status == "fail":
                traces.append((bound, v.trace))

    assert len(traces) >= 5
    checked_mutations = 0
    for bound, trace in traces:
        assert trace is not None
        assert replay_trace(bound, trace) is None
    # single-value mutations break replay (corpus traces: deterministic frame)
    for bound, trace in traces[:5]:
        nvars = len(bound.spec.variables)
        for i in range(len(trace.states)):
            for j in range(nvars):
                for new_value in _mutations(trace.states[i][j]):
                    state = list(trace.states[i])
                    state[j] = new_value
                    mutated = Trace(
                        states=trace.states[:i] + [tuple(state)] + trace.states[i + 1:],
                        actions=list(trace.actions),
                        loop_start=trace.loop_start,
                        loop_action=trace.loop_action,
                    )
                    assert replay_trace(bound, mutated) is not None, (i, j, new_value)
                    checked_mutations += 1
    ok(9, f"{len(traces)} failure traces replay; "
          f"{checked_mutations} single-value mutations all break replay")


def test_criterion_10_determinism_and_scale(math_src):
    config = RunConfig(spec_path=str(corpus_path("math.spa")),
                       constants={"max_num_q": 100}, json_mode=True)
    report1, code1 = run_check(config)
    report2, code2 = run_check(config)
    assert code1 == code2 == 0
    assert report1.states == report2.states == 20200  # 2 * 100 * 101
    strip = lambda s: re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', s)
    json1, json2 = emit_json(report1), emit_json(report2)
    assert strip(json1) == strip(json2)
    assert strip(json1).encode() == strip(json2).encode()
    assert report1.elapsed_ms < 2000.0 and report2.elapsed_ms < 2000.0
    assert all(r["status"] == "pass" for r in json.loads(json1)["results"])
    ok(10, f"two runs at max_num_q=100: byte-identical JSON, 20200 states, "
           f"{report1.elapsed_ms:.0f} ms and {report2.elapsed_ms:.0f} ms (< 2000 ms)")
