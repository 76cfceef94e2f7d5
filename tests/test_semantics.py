"""Constant binding, static validation, evaluation, and successor enumeration."""

import itertools

import pytest

import oracles
from conftest import build, build_graph
from spacheck import (
    BindError,
    EvalError,
    action_successors,
    bind_constants,
    explore,
    initial_states,
    parse_spec,
    successors,
    validate,
)
from spacheck import semantics
from spacheck.semantics import _column_plan, _make_expr_function, eval_const_set
from spacheck.model import INT_MAX, state_to_record
from spacheck.parser import _Parser, tokenize


def parse_expr(text: str):
    return _Parser(tokenize(text)).expr()


def parse_setexpr(text: str):
    return _Parser(tokenize(text)).setexpr()


def value_at(bound, text: str, record: dict):
    """`text`'s value at the state `record`, from a function generated for
    this call alone, so throwaway expressions stay out of the spec's cache."""
    state = tuple(record[v.name] for v in bound.spec.variables)
    return _make_expr_function(parse_expr(text), bound, "<expr>")(state)


def const_set(bound, text: str) -> list:
    return eval_const_set(parse_setexpr(text), bound, "<set>")


# --- bind_constants ---------------------------------------------------------


def test_bind_math(math_src):
    bound = bind_constants(parse_spec(math_src), {"max_num_q": 5})
    assert bound.constants == {"max_num_q": 5}


def test_bind_clock_empty(clock_src):
    assert bind_constants(parse_spec(clock_src), {}).constants == {}


def test_bind_missing_constant(math_src):
    with pytest.raises(BindError, match="max_num_q unbound"):
        bind_constants(parse_spec(math_src), {})


def test_bind_unknown_and_wrong_kind(math_src):
    spec = parse_spec(math_src)
    with pytest.raises(BindError, match="unknown constant nope"):
        bind_constants(spec, {"max_num_q": 3, "nope": 1})
    with pytest.raises(BindError, match="expects int"):
        bind_constants(spec, {"max_num_q": True})


# --- validate ----------------------------------------------------------------


def test_validate_corpus_clean(math_src, clock_src, buggy_src):
    assert validate(bind_constants(parse_spec(math_src), {"max_num_q": 5})) == []
    assert validate(bind_constants(parse_spec(clock_src), {})) == []
    assert validate(bind_constants(parse_spec(buggy_src), {"max_num_q": 3})) == []


def wrap_action(body: str, extra_vars: str = "") -> str:
    return (
        "spec t\nvar num : int init 1\nvar result : string init \"\"\n"
        f"{extra_vars}action A {{\n{body}\n}}"
    )


def errors_of(source: str, constants=None) -> list:
    return [str(e) for e in validate(bind_constants(parse_spec(source), constants or {}))]


def test_validate_kind_error_bool_into_int():
    errs = errors_of(wrap_action("num' = true"))
    assert any("num' is int but the value is bool" in e for e in errs)


def test_validate_double_assignment_each_path():
    body = (
        "if num = 1 {\n result' = \"Right\"\n} else {\n result' = \"Wrong\"\n}\n"
        "result' = \"\""
    )
    errs = errors_of(wrap_action(body))
    assert any("assigned more than once" in e for e in errs)


def test_validate_reports_all_errors():
    errs = errors_of(wrap_action("num' = true\nresult' = 3\nnope' = 1"))
    assert len(errs) == 3


def test_validate_mixed_kind_equality_rejected():
    errs = errors_of(wrap_action("when result = 0"))
    assert any("compares string with int" in e for e in errs)


def test_validate_unresolved_identifier():
    errs = errors_of(wrap_action("num' = numb + 1"))
    assert any("unresolved identifier numb" in e for e in errs)


def test_validate_binder_shadowing():
    errs = errors_of(wrap_action("any num in {1, 2} {\nresult' = \"x\"\n}"))
    assert any("shadows" in e for e in errs)


def test_validate_variable_in_any_set_rejected():
    errs = errors_of(wrap_action("any b in {num} {\nresult' = \"x\"\n}"))
    assert any("only constants" in e for e in errs)


def test_validate_init_references_variable_rejected():
    src = "spec t\nvar a : int init 1\nvar b : int init a\naction A { when true }"
    errs = errors_of(src)
    assert any("only constants" in e for e in errs)


def test_validate_property_predicate_kinds(math_src):
    src = math_src + "property Bad: eventually (num)\n"
    errs = errors_of(src, {"max_num_q": 2})
    assert any("must be bool" in e for e in errs)


def test_validate_requires_variable_and_action():
    errs = errors_of("spec empty")
    assert any("at least one variable" in e for e in errs)
    assert any("at least one action" in e for e in errs)


_KINDS_HEAD = "spec t\nvar x : int init 0\nvar b : bool init false\n"


# One spec per message: each gives exactly that error, at that location.
@pytest.mark.parametrize("source,message", [
    (_KINDS_HEAD + "action A {\nwhen not x\n}\n",
     "action A at 5:6: 'not' needs a bool operand, got int"),
    (_KINDS_HEAD + "action A {\nwhen x and b\n}\n",
     "action A at 5:6: 'and' needs bool operands, got int"),
    (_KINDS_HEAD + "action A {\nwhen b < x\n}\n",
     "action A at 5:6: ordering '<' needs int operands, got bool"),
    (_KINDS_HEAD + "action A {\nx' = x + b\n}\n",
     "action A at 5:10: arithmetic '+' needs int operands, got bool"),
    (_KINDS_HEAD + "action A {\nwhen b in 1..3\n}\n",
     "action A at 5:8: 'in' tests a bool against a set of int"),
    (_KINDS_HEAD + "action A {\nx' = if x then 1 else 2\n}\n",
     "action A at 5:9: if-condition must be bool, got int"),
    (_KINDS_HEAD + "action A {\nx' = if b then 1 else true\n}\n",
     "action A at 5:6: if-branches disagree: then is int, else is bool"),
    (_KINDS_HEAD + "action A {\nwhen x in 1..b\n}\n",
     "action A at 5:14: range bound must be int, got bool"),
    (_KINDS_HEAD + "action A {\nwhen x in {1, true}\n}\n",
     "action A at 5:11: set literal mixes value kinds"),
    (_KINDS_HEAD + "var x : int init 1\naction A {\nwhen b\n}\n",
     "declaration x at 4:1: duplicate declaration of x"),
    (_KINDS_HEAD + "action A {\nwhen b\n}\naction A {\nwhen x = 0\n}\n",
     "action A at 7:1: duplicate action name A"),
    (_KINDS_HEAD + "action A {\nwhen b\n}\ninvariant P: x = 0\ninvariant P: b\n",
     "property P at 8:1: duplicate property name P"),
    ("spec t\nvar x : int domain {true} init 0\naction A {\nwhen x = 0\n}\n",
     "var x at 2:20: domain of x has kind bool, expected int"),
    ("spec t\nvar x : int init true\naction A {\nwhen true\n}\n",
     "var x at 2:18: init of x has kind bool, expected int"),
    ("spec t\nvar x : int init in {true, false}\naction A {\nwhen true\n}\n",
     "var x at 2:21: init set of x has kind bool, expected int"),
    (_KINDS_HEAD + "action A {\nany k in {1} {\nk' = 1\n}\n}\n",
     "action A at 6:1: cannot assign to non-variable k"),
], ids=["not", "bool_op", "ordering", "arithmetic", "in", "if_condition", "if_branches",
        "range_bound", "set_literal", "declaration", "action_name", "property_name",
        "domain_kind", "init_kind", "init_set_kind", "non_variable"])
def test_validate_message(source, message):
    assert errors_of(source) == [message]


# --- expression and set evaluation -----------------------------------------------


def test_eval_clock_conditional(clock_src):
    bound = build(clock_src)
    text = "if hr = 12 then 1 else hr + 1"
    assert value_at(bound, text, {"hr": 12, "period": "am"}) == 1
    assert value_at(bound, text, {"hr": 5, "period": "am"}) == 6


def test_eval_overflow(math_src):
    bound = build(math_src, {"max_num_q": 2})
    record = dict(oracles.math_init(), num=INT_MAX)
    with pytest.raises(EvalError, match="overflow"):
        value_at(bound, "num + 1", record)


def test_eval_short_circuit_skips_overflow(math_src):
    bound = build(math_src, {"max_num_q": 2})
    record = dict(oracles.math_init(), num=INT_MAX)
    assert value_at(bound, "true or num + 1 = 0", record) is True
    assert value_at(bound, "false and num + 1 = 0", record) is False
    assert value_at(bound, "false implies num + 1 = 0", record) is True
    assert value_at(bound, "(if true then 1 else num + 1) = 1", record) is True
    # a set literal stops at the first equal member, a range below its low end
    assert value_at(bound, "1 in {1, num + 1}", record) is True
    assert value_at(bound, "5 in 7..num + 1", record) is False
    with pytest.raises(EvalError, match="overflow"):
        value_at(bound, "1 in {num + 1, 1}", record)


def test_eval_set_range(clock_src):
    bound = build(clock_src)
    assert const_set(bound, "1..12") == list(range(1, 13))


def test_eval_set_literal_and_empty_range(clock_src):
    bound = build(clock_src)
    assert const_set(bound, "{true, false}") == [True, False]
    assert const_set(bound, "5..3") == []
    assert const_set(bound, "{1, 2, 1}") == [1, 2]


# Templates whose holes X, Y (int) are filled either with a literal, so
# that the compiler folds the arithmetic, or with a variable holding the
# same value, so that it cannot; both must evaluate alike, overflow included.
FOLD_TEMPLATES = ["X + Y > 0", "X - Y < 0", "X * Y = 0"]
FOLD_VARS = {"X": "x", "Y": "y"}
FOLD_VALUES = {"X": (0, 1, INT_MAX), "Y": (0, 1, INT_MAX)}


def fold_outcome(bound, text, state):
    try:
        return value_at(bound, text, state)
    except EvalError as e:
        return f"EvalError: {e.message}"


@pytest.mark.parametrize("template", FOLD_TEMPLATES)
def test_folded_constants_evaluate_as_variables(template):
    bound = build("spec t\nvar x : int init 0\nvar y : int init 0\naction A { when true }")
    holes = [h for h in FOLD_VARS if h in template]
    for values in itertools.product(*(FOLD_VALUES[h] for h in holes)):
        state = {"x": 0, "y": 0}
        state.update({FOLD_VARS[h]: v for h, v in zip(holes, values)})
        want = fold_outcome(bound, template.translate(str.maketrans(FOLD_VARS)), state)
        for literal in itertools.product((False, True), repeat=len(holes)):
            text = template
            for h, v, lit in zip(holes, values, literal):
                if lit:
                    text = text.replace(h, str(v))
            text = text.translate(str.maketrans(FOLD_VARS))
            assert fold_outcome(bound, text, state) == want, text


# --- initial_states --------------------------------------------------------------


def test_clock_initial_states(clock_src):
    bound = build(clock_src)
    init = initial_states(bound)
    # brute-force product, lexicographic in declaration order
    expected = [(hr, p) for hr in range(1, 13) for p in ("am", "pm")]
    assert init == expected


def test_math_single_initial_state(math_src):
    bound = build(math_src, {"max_num_q": 5})
    init = initial_states(bound)
    assert len(init) == 1
    assert state_to_record(init[0], bound.spec) == oracles.math_init()


def test_empty_init_set_gives_no_initial_states():
    bound = build("spec t\nvar x : int init in 5..3\naction A { when true }")
    assert initial_states(bound) == []


# --- action_successors / successors ------------------------------------------------


def math_state(bound, **overrides):
    rec = dict(oracles.math_init())
    rec.update(overrides)
    return tuple(rec[v.name] for v in bound.spec.variables)


def test_check_action_branches(math_src):
    bound = build(math_src, {"max_num_q": 5})
    check = bound.spec.actions[1]
    phase_b = math_state(bound, input_enabled=False, check_enabled=True)
    succ = action_successors(phase_b, check, bound)
    records = [state_to_record(s, bound.spec) for s in succ]
    assert records == [
        dict(oracles.math_init(), input_enabled=False, check_enabled=False,
             new_question_enabled=True, count_right=1, result="Right"),
        dict(oracles.math_init(), input_enabled=False, check_enabled=False,
             new_question_enabled=True, count_wrong=1, result="Wrong"),
    ]


def test_terminating_is_a_self_loop(math_src):
    bound = build(math_src, {"max_num_q": 5})
    terminating = bound.spec.actions[3]
    s = math_state(bound, num=5)
    assert action_successors(s, terminating, bound) == [s]


def test_disabled_guard_yields_nothing(math_src):
    bound = build(math_src, {"max_num_q": 5})
    new_question = bound.spec.actions[2]
    assert action_successors(math_state(bound), new_question, bound) == []


def test_successors_at_math_init(math_src):
    bound = build(math_src, {"max_num_q": 5})
    init = initial_states(bound)[0]
    # guard oracle: evaluate each action's guards directly
    enabled = []
    for action in bound.spec.actions:
        if all(oracles.evaluate(g, init, {}, bound) for g in action.guards):
            enabled.append(action.name)
    assert enabled == ["Input_Answer"]
    succ = successors(init, bound)
    assert [label for label, _ in succ] == ["Input_Answer"]
    assert state_to_record(succ[0][1], bound.spec) == dict(
        oracles.math_init(), input_enabled=False, check_enabled=True
    )


def test_clock_successor_at_11_am(clock_src):
    bound = build(clock_src)
    assert successors((11, "am"), bound) == [("Next", (12, "pm"))]


def test_only_terminating_at_final_phase_c(math_src):
    bound = build(math_src, {"max_num_q": 3})
    s = math_state(
        bound, num=3, count_right=3, result="Right",
        input_enabled=False, check_enabled=False, new_question_enabled=True,
    )
    assert successors(s, bound) == [("Terminating", s)]


# --- semantic invariants -----------------------------------------------------------


def assigned_anywhere(action) -> set:
    from spacheck.model import AnyChoice, Assign, If

    out = set()

    def walk(stmts):
        for s in stmts:
            if isinstance(s, Assign):
                out.add(s.target)
            elif isinstance(s, If):
                walk(s.then)
                walk(s.orelse)
            elif isinstance(s, AnyChoice):
                walk(s.body)

    walk(action.body)
    return out


def test_frame_property_on_math(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 2})
    writable = {a.name: assigned_anywhere(a) for a in bound.spec.actions}
    names = bound.spec.var_names()
    for i, s in enumerate(graph.states):
        for label, j in graph.out_edges(i):
            t = graph.states[j]
            changed = {names[k] for k in range(len(names)) if s[k] != t[k]}
            assert changed <= writable[label]


def test_guard_monotonicity(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 2})
    for s in graph.states:
        for action in bound.spec.actions:
            guards_hold = all(oracles.evaluate(g, s, {}, bound) for g in action.guards)
            assert bool(action_successors(s, action, bound)) == guards_hold


def test_successor_determinism(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 2})
    for s in graph.states:
        assert successors(s, bound) == successors(s, bound)


def test_choice_completeness_on_check(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    check = bound.spec.actions[1]
    idx = bound.var_index["check_enabled"]
    for s in graph.states:
        succ = action_successors(s, check, bound)
        assert len(succ) == (2 if s[idx] else 0)


def test_any_over_empty_set_contributes_no_successor():
    bound = build(
        "spec t\nvar x : int init 1\n"
        "action A { when true any b in 5..3 { x' = b } }"
    )
    assert successors((1,), bound) == []


def test_domain_violation_is_an_error():
    bound = build(
        "spec t\nvar x : int domain 0..3 init 0\n"
        "action Up { x' = x + 1 }"
    )
    with pytest.raises(EvalError, match="outside its domain"):
        for s in [(3,)]:
            action_successors(s, bound.spec.actions[0], bound)


def test_initial_value_outside_its_domain_is_an_error():
    bound = build("spec t\nvar y : bool init false\nvar z : bool init true\n"
                  "var x : int domain 0..3 init 5\naction A {\nwhen y\n}\n")
    for make in (initial_states, explore):
        with pytest.raises(EvalError) as e:
            make(bound)
        assert str(e.value) == "var x at 4:1: initial value 5 of x is outside its domain"


def test_each_domain_is_evaluated_once_per_bound_spec(monkeypatch):
    """The initial states, the explore loop, the successor functions and
    the column plan read one evaluation of each domain; an oversized domain
    is still an error at its range."""
    calls = []
    evaluate = semantics.eval_const_set

    def counted(setexpr, bound, where):
        calls.append(where)
        return evaluate(setexpr, bound, where)

    monkeypatch.setattr(semantics, "eval_const_set", counted)
    bound = build("spec t\nvar x : int domain 0..3 init 0\nvar f : bool init false\n"
                  "action Up { when x < 3 x' = x + 1 }\naction Flip { f' = not f }\n")
    assert explore(bound).n_states == 8
    assert _column_plan(bound) is not None
    assert successors((3, True), bound) == [("Flip", (3, False))]
    assert calls == ["var x"]
    big = build("spec t\nvar x : int domain 0..10000000 init 0\naction Up { x' = x }\n")
    with pytest.raises(EvalError) as e:
        explore(big)
    assert str(e.value) == "var x at 2:20: range 0..10000000 exceeds the 1048576-element set limit"


def test_if_without_else_keeps_values():
    bound = build(
        "spec t\nvar x : int init 1\nvar y : int init 0\n"
        "action A { if x = 2 { y' = 5 } x' = 2 }"
    )
    assert successors((1, 0), bound) == [("A", (2, 0))]
    assert successors((2, 0), bound) == [("A", (2, 5))]
