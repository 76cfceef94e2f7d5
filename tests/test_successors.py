"""The generated successor functions against an independent interpreter of
the next-state relation (`oracles.step`), and the shapes of action that
Python's own compiler limits make hard to generate."""

import ast
import contextlib
import dataclasses
import io
import itertools
import os
import re
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DENSE_BOUNDS, build, corpus_text, explore_with, graph_fields
from spacheck import (ExploreLimits, LimitError, bind_constants, check_deadlock, check_property,
                      explore, initial_states, parse_spec, replay_trace, successors, validate)
from spacheck import cli, explorer, semantics
from spacheck.model import Binary, Cond, Lit, Name, Node
from spacheck.explorer import _explore_module
from spacheck.semantics import EvalError, _column_plan, _successor_source

INT_MAX = 2**63 - 1  # adding it to any positive value overflows


def outcome(step):
    """What `step()` returns, or the text of the EvalError it raises."""
    try:
        return step()
    except EvalError as e:
        return f"EvalError: {e}"


def agree_from_initial(bound, cap: int = 25) -> None:
    """Breadth-first over the oracle's successors, comparing `successors`
    with `oracles.step` at each of the first `cap` states."""
    seen = list(dict.fromkeys(initial_states(bound)))
    for s in itertools.islice(seen, cap):
        got = outcome(lambda: successors(s, bound))
        want = outcome(lambda: oracles.step(bound, s))
        assert got == want, s
        if isinstance(want, list):
            seen.extend(t for _, t in want if t not in seen)
        if len(seen) >= cap:
            break


@settings(max_examples=max(100, settings().max_examples), deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_successors_match_interpreter_on_random_specs(seed):
    spec = oracles.gen_spec(seed)
    bound = bind_constants(spec, {})
    assert validate(bound) == []
    agree_from_initial(bound, cap=60)


# --- a deeper generator: nesting, domains and errors on the path ----------------

_INTS = ("x0", "x1", "x2")


@st.composite
def deep_specs(draw, all_domains: bool = False):
    """Source text of a spec whose actions nest `if` and `any` three deep,
    with sequential and nested `any`, statements after an `if` that holds an
    `any`, assignments to variables with a domain (and values outside it),
    and products that overflow ahead of conditions that would overflow too.
    Each statement is on its own line, so every EvalError names a distinct
    location.  With `all_domains`, every int variable has a domain, so the
    spec's states pack into keys."""
    binder_ids = itertools.count()
    lines = ["spec deep"]
    for name in _INTS:
        domain = " domain 0..3" if all_domains or draw(st.booleans()) else ""
        init = draw(st.sampled_from(("init 0", "init 1", "init in {0, 2}")))
        lines.append(f"var {name} : int{domain} {init}")
    lines.append("var f : bool init in {true, false}")
    faulty = False  # drawn per action: errors then come often, and in sequence

    def fails() -> bool:
        return faulty and draw(st.integers(0, 2)) == 0

    def cond(binders):
        var = draw(st.sampled_from(_INTS))
        if binders and draw(st.booleans()):
            # a path that changes from one choice to the next
            b = draw(st.sampled_from(binders))
            return draw(st.sampled_from((f"{b} = {draw(st.integers(0, 2))}", f"{var} = {b}")))
        if fails():
            return f"{var} + {INT_MAX} > 0"  # overflows where var > 0
        return draw(st.sampled_from((f"{var} < {draw(st.integers(0, 3))}", "f", "not f")))

    def int_value(binders):
        var = draw(st.sampled_from(_INTS))
        if fails():
            # outside the domain 0..3, or an overflow where var > 0
            return draw(st.sampled_from(("5", f"{var} + {INT_MAX}")))
        options = [str(draw(st.integers(0, 3))), var, f"{var} + 1"]
        if binders:
            b = draw(st.sampled_from(binders))
            options += [b, f"{var} + {b}"]
        return draw(st.sampled_from(options))

    def choice_set(binders):
        atoms = [str(k) for k in range(3)] + list(binders)
        if draw(st.booleans()):
            return f"{draw(st.sampled_from(atoms))}..{draw(st.sampled_from(atoms))}"
        elems = draw(st.lists(st.sampled_from(atoms), min_size=2, max_size=3, unique=True))
        return "{" + ", ".join(elems) + "}"

    def block(assignable: list, binders: list, depth: int, pad: str) -> list:
        """Statements keep one assignment per variable per path: a variable
        assigned anywhere in a statement is not assigned after it."""
        out = []
        for _ in range(draw(st.integers(0, 3))):
            kinds = ["assign"] + (["if", "any"] if depth < 3 else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "assign":
                if not assignable:
                    continue
                target = draw(st.sampled_from(assignable))
                value = (draw(st.sampled_from(("true", "false", "not f")))
                         if target == "f" else int_value(binders))
                out.append(f"{pad}{target}' = {value}")
                used = {target}
            elif kind == "if":
                then = block(list(assignable), binders, depth + 1, pad + "    ")
                orelse = block(list(assignable), binders, depth + 1, pad + "    ")
                out.append(f"{pad}if {cond(binders)} {{")
                out += then
                out.append(f"{pad}}} else {{")
                out += orelse
                out.append(f"{pad}}}")
                used = _targets(then + orelse)
            else:
                binder = f"c{next(binder_ids)}"
                body = block(list(assignable), binders + [binder], depth + 1, pad + "    ")
                out.append(f"{pad}any {binder} in {choice_set(binders)} {{")
                out += body
                out.append(f"{pad}}}")
                used = _targets(body)
            assignable[:] = [v for v in assignable if v not in used]
        return out

    for a in range(draw(st.integers(1, 3))):
        faulty = draw(st.integers(0, 2)) == 0
        lines.append(f"action A{a} {{")
        if draw(st.booleans()):
            lines.append(f"    when {cond([])}")
        lines += block([*_INTS, "f"], [], 0, "    ")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _targets(lines: list) -> set:
    return {line.split("'")[0].strip() for line in lines if "' =" in line}


# Each hazard once for certain: a choice that assigns where the next does
# not, several paths to one successor, an `if` holding an `any` with a
# statement after it, and errors in sequence (a domain violation, then an
# overflowing assignment, then an overflowing condition).
_PATHS = """spec paths
var x0 : int init 0
var x1 : int init 0
var f : bool init false
action A {
    any c0 in {0, 1} {
        if c0 = 0 {
            x0' = 3
        } else {
        }
        any c1 in {1, 2} {
            if f {
                any c2 in {c1, 2} {
                    x1' = c2
                }
            } else {
            }
            f' = not f
        }
    }
}
"""
_ERRORS = """spec errors
var x0 : int init 1
var x1 : int domain 0..3 init 0
action A {
    x1' = 5
    x0' = x0 + 9223372036854775807
    if x0 + 9223372036854775807 > 0 {
    } else {
    }
}
"""
# A's two choices make one successor from the initial state, x0 = 1 and
# x1 = 2: each assigns its binder, but to x0 on one path and to x1 on the
# other.  B's choices cannot collide: each assigns its binder to x0.
_COLLIDE = """spec collide
var x0 : int domain 0..3 init 1
var x1 : int domain 0..3 init 2
var x2 : int domain 0..3 init 0
var f : bool init false
action A {
    any r in {1, 2} {
        if r = 1 {
            x0' = r
        } else {
            x1' = r
        }
    }
}
action B {
    any c in 0..3 {
        x0' = c
        x1' = 3 - c
    }
    f' = not f
}
"""


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@example(_PATHS)
@example(_ERRORS)
@example(_COLLIDE)
@given(deep_specs())
def test_successors_match_interpreter_on_deep_specs(source):
    agree_from_initial(build(source))


# --- the generated explore loop against a reference BFS -------------------------

def explore_outcome(bound, max_states: int, max_depth=None) -> tuple:
    """`explore`'s result in the shape of `oracles.explore_reference`: a
    state or depth limit carries the graph explored so far, its tree
    derived."""
    try:
        graph = explore(bound, ExploreLimits(max_states=max_states, max_depth=max_depth))
    except EvalError as e:
        return ("error", str(e), e.trace.states, e.trace.actions)
    except LimitError as e:
        return ("limit", str(e), graph_fields(e.graph))
    return ("graph", graph_fields(graph))


def assert_explore_matches_reference(bound, max_states: int, max_depth=None) -> None:
    assert explore_outcome(bound, max_states, max_depth) \
        == oracles.explore_reference(bound, max_states, max_depth)


# The random specs have at most a few dozen states, so the small limits
# truncate many of them, in any level.
@settings(max_examples=max(100, settings().max_examples), deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=4))
def test_explore_matches_reference_bfs_on_random_specs(seed, max_states, max_depth):
    bound = bind_constants(oracles.gen_spec(seed), {})
    assert validate(bound) == []
    assert_explore_matches_reference(bound, 10_000)
    assert_explore_matches_reference(bound, max_states)
    assert_explore_matches_reference(bound, 10_000, max_depth)
    assert_explore_matches_reference(bound, max_states, max_depth)


# Unbounded counters make some deep specs infinite: those end at the state
# limit in both explorations, with every EvalError before it compared too.
@settings(max_examples=max(200, settings().max_examples), deadline=None)
@example(_PATHS)
@example(_ERRORS)
@given(deep_specs())
def test_explore_matches_reference_bfs_on_deep_specs(source):
    assert_explore_matches_reference(build(source), 200)


# --- nesting past what one generated function can hold -----------------------------


def nested_ifs(n: int) -> str:
    body = "x' = x + 1"
    for _ in range(n):
        body = f"if x < {n} {{\n{body}\n}} else {{\ny' = true\n}}"
    return ("spec t\nvar x : int init 0\nvar y : bool init false\n"
            f"action A {{\nwhen x < 3\n{body}\n}}\n")


def nested_anys(n: int) -> str:
    body = "x' = x + " + " + ".join(f"c{k}" for k in range(n))
    for k in reversed(range(n)):
        body = f"any c{k} in {{1}} {{\n{body}\n}}"
    return f"spec t\nvar x : int init 0\naction A {{\nwhen x < {2 * n}\n{body}\n}}\n"


def sequential_anys(n: int) -> str:
    decls = "".join(f"var v{k} : int init 0\n" for k in range(n))
    body = "\n".join(f"any c{k} in {{{k}}} {{\nv{k}' = c{k}\n}}" for k in range(n))
    return f"spec t\n{decls}action A {{\n{body}\n}}\n"


def sequential_ifs_with_any(n: int) -> str:
    decls = "".join(f"var v{k} : int init 0\n" for k in range(n))
    body = "\n".join(
        f"if v{k} = 0 {{\nany c{k} in {{1}} {{\nv{k}' = c{k}\n}}\n}}" for k in range(n)
    )
    return f"spec t\n{decls}action A {{\n{body}\n}}\n"


def oracle_graph(bound) -> tuple:
    """States in BFS order and each state's labelled edges, from
    `oracles.step` alone."""
    states = list(dict.fromkeys(initial_states(bound)))
    index = {s: i for i, s in enumerate(states)}
    edges = []
    for s in states:
        row = []
        for label, t in oracles.step(bound, s):
            if t not in index:
                index[t] = len(states)
                states.append(t)
            row.append((label, index[t]))
        edges.append(row)
    return states, edges


def source_size(spec) -> int:
    """The size of the generated explore module of `spec` (text, or a bound
    spec)."""
    bound = build(spec) if isinstance(spec, str) else spec
    return len(_explore_module(bound)[1])


def check_shape(make, n: int, states: list) -> None:
    bound = build(make(n))
    graph = explore(bound)
    assert graph.states == states
    assert (graph.states, [graph.out_edges(i) for i in range(graph.n_states)]) \
        == oracle_graph(bound)
    # linear: halving the statements about halves the source (quadratic
    # growth would quarter it)
    assert source_size(make(n)) < 2.5 * source_size(make(n // 2))


def test_four_hundred_nested_ifs():
    check_shape(nested_ifs, 400, [(0, False), (1, False), (2, False), (3, False)])


def test_twenty_five_nested_anys():
    check_shape(nested_anys, 25, [(0,), (25,), (50,)])


def test_ten_nested_anys_inline_in_the_loop():
    # the most loops an action nests without a helper, inside the explore
    # loop's own `for`
    source = _explore_module(build(nested_anys(10)))[1]
    assert "def g" not in source and "def k" not in source
    check_shape(nested_anys, 10, [(0,), (10,), (20,)])


def helpers_in_two_actions() -> str:
    """A spec whose two actions each need helpers: A nests 45 `if`s, past
    `_MAX_INDENT`, and B nests 12 `any`s, past `_MAX_LOOPS`.  Every variable
    has a domain, so its graph can be kept as keys."""
    ifs = "x' = x + 1"
    for _ in range(45):
        ifs = f"if x < 45 {{\n{ifs}\n}} else {{\ny' = 0\n}}"
    anys = "y' = y + " + " + ".join(f"c{k}" for k in range(12))
    for k in reversed(range(12)):
        anys = f"any c{k} in {{{int(k == 0)}}} {{\n{anys}\n}}"
    return ("spec t\nvar x : int domain 0..3 init 0\nvar y : int domain 0..3 init 0\n"
            f"action A {{\nwhen x < 3\n{ifs}\n}}\naction B {{\nwhen y < 3\n{anys}\n}}\n")


@pytest.mark.parametrize("wide", [sys.maxsize, 1], ids=["loop", "keys"])
def test_actions_with_helpers_sit_inline_in_the_loop(wide):
    """Over 100 lines of action code, two actions with helpers among them,
    sit in the explore loop itself: its only functions are `explore`, `run`
    and the helpers, which `run` defines.  The graph is the reference BFS's,
    explored by the loop alone and kept as keys from level 0."""
    bound = build(helpers_in_two_actions())
    for action in bound.spec.actions:
        mod, main = _successor_source(bound, action)
        assert "def k" in mod.source(main), action.name
    tree = ast.parse(_explore_module(bound)[1])
    run = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert run.end_lineno - run.lineno > 100
    helpers = [node.name for node in ast.walk(run)
               if isinstance(node, ast.FunctionDef) and node is not run]
    assert len(helpers) >= 2 and all(re.fullmatch(r"k\d+", name) for name in helpers)
    functions = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert sorted(functions) == sorted(["explore", "run", *helpers])
    assert not any(re.fullmatch(r"g\d+", name) for name in functions)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", wide)
        assert isinstance(explore(bound).states, explorer.KeyStates) == (wide == 1)
        assert_explore_matches_reference(bound, 1000)


def test_twenty_five_sequential_anys():
    check_shape(sequential_anys, 25, [(0,) * 25, tuple(range(25))])


def test_thirty_sequential_ifs_each_with_an_any():
    check_shape(sequential_ifs_with_any, 30, [(0,) * 30, (1,) * 30])


@pytest.mark.parametrize("n", [3, 30])
def test_statements_after_an_if_with_an_any_run_as_helper_calls(n):
    """Every path through an `if` that holds an `any` ends with a call of a
    helper that runs the statements after it: no generated action code, in
    the explore loop or a reference successor function, yields."""
    bound = build(sequential_ifs_with_any(n))
    sources = [_explore_module(bound)[1]]
    for action in bound.spec.actions:
        mod, main = _successor_source(bound, action)
        sources.append(mod.source(main))
    for source in sources:
        assert "def k" in source
        assert not [node for node in ast.walk(ast.parse(source))
                    if isinstance(node, (ast.Yield, ast.YieldFrom))]
    graph = explore(bound)
    assert (graph.states, [graph.out_edges(i) for i in range(graph.n_states)]) \
        == oracle_graph(bound)
    assert [successors(s, bound) for s in graph.states] \
        == [oracles.step(bound, s) for s in graph.states]


# An `if` with an `any` inside and statements after it, inside another one:
# the inner one's helper calls the outer one's, so both run 2 helpers deep.
# With `twice`, both branches of the outer `if` hold one, 3 helpers in all.
def nested_helper_calls(twice: bool) -> str:
    inner = "if y = 0 {{\nany c in {{1, 2}} {{\ny' = c\n}}\n}}\nx' = {}\n"
    orelse = f"}} else {{\n{inner.format(2)}" if twice else ""
    return ("spec t\nvar x : int init 0\nvar y : int init 0\nvar z : int init 0\n"
            f"action A {{\nwhen z = 0\nif x = 0 {{\n{inner.format(1)}{orelse}}}\nz' = 1\n}}\n")


def helper_frames(bound, states) -> int:
    """The most helper frames (`k<n>`) on the stack at once while the
    reference successor functions run on each of `states`."""
    deepest = 0

    def profile(frame, event, arg):
        nonlocal deepest
        if event == "call" and re.fullmatch(r"k\d+", frame.f_code.co_name):
            depth = 0
            while frame is not None:
                depth += bool(re.fullmatch(r"k\d+", frame.f_code.co_name))
                frame = frame.f_back
            deepest = max(deepest, depth)

    sys.setprofile(profile)
    try:
        for s in states:
            successors(s, bound)
    finally:
        sys.setprofile(None)
    return deepest


@pytest.mark.parametrize("source,frames", [
    (sequential_ifs_with_any(4), 3),
    (nested_helper_calls(False), 2),
    (nested_helper_calls(True), 2),
    (nested_anys(25), 2),  # split at 10 and 20 nested loops
], ids=["sequential", "nested", "nested_twice", "loops"])
def test_helper_depth_is_the_deepest_call(source, frames, monkeypatch):
    """The smallest `_MAX_CALLS` an action's code can be generated under is
    the most helper frames its reference successor function has on the
    stack at once, over every reachable state."""
    bound = build(source)
    graph = explore(bound)
    assert helper_frames(bound, graph.states) == frames
    action = bound.spec.actions[0]
    monkeypatch.setattr(semantics, "_MAX_CALLS", frames)
    _successor_source(bound, action)
    monkeypatch.setattr(semantics, "_MAX_CALLS", frames - 1)
    with pytest.raises(EvalError) as raised:
        _successor_source(bound, action)
    assert str(raised.value) == f"action A at {action.line}:{action.col}: {semantics._TOO_DEEP}"


def test_helper_calls_up_to_the_limit_explore():
    # n sequential `if`s with an `any` inside run n - 1 helpers deep
    bound = build(sequential_ifs_with_any(semantics._MAX_CALLS + 1))
    graph = explore(bound)
    assert graph.n_states == 2
    assert successors(graph.states[0], bound) == [("A", graph.states[1])]
    deeper = build(sequential_ifs_with_any(semantics._MAX_CALLS + 2))
    with pytest.raises(EvalError):
        _successor_source(deeper, deeper.spec.actions[0])


def test_helper_calls_past_the_limit_are_a_located_error():
    """An action whose helpers would run deeper than Python allows is an
    error at the action, from explore and from the reference successors,
    not a RecursionError while it runs."""
    n = 1001
    bound = build(sequential_ifs_with_any(n))
    want = f"action A at {n + 2}:1: {semantics._TOO_DEEP}"
    with pytest.raises(EvalError) as raised:
        explore(bound)
    assert str(raised.value) == want
    with pytest.raises(EvalError) as raised:
        successors((0,) * n, bound)
    assert str(raised.value) == want


# --- expressions nested past what one Python expression can hold ---------------------

# Every `D` below becomes one deep expression whose value is `x` for x >= 0.
_DEEP = """spec deep
var x : int init 0
action Step { when D < 3 x' = D + 1 }
invariant Small: D < 4
invariant Below3: D < 3
property Reaches: eventually (D = 3)
property Never: eventually (D = 5)
"""
_DEEP_VERDICTS = [("deadlock", "fail"), ("Small", "pass"), ("Below3", "fail"),
                  ("Reaches", "pass"), ("Never", "fail")]


def deep_sum(n: int):
    """x + 0 + 1 - 1 + 1 - 1 ..., n terms, left-nested as the parser builds
    sums; the `+ 0` is there when n is even, so the value is x."""
    e = Name(name="x")
    ops = ([("+", 0)] if n % 2 == 0 else []) + [("+", 1), ("-", 1)] * (n // 2)
    for op, k in ops[:n - 1]:
        e = Binary(op=op, left=e, right=Lit(value=k))
    return e


def deep_cond(n: int):
    """An `if ... then ... else` nested n deep, alternately in the else and
    the then branch."""
    e = Name(name="x")
    for k in range(n):
        if k % 2:
            test = Binary(op=">=", left=Name(name="x"), right=Lit(value=0))
            e = Cond(cond=test, then=e, orelse=Lit(value=0))
        else:
            test = Binary(op="=", left=Name(name="x"), right=Lit(value=-1 - k))
            e = Cond(cond=test, then=Lit(value=0), orelse=e)
    return e


def substitute(node, make):
    """Replace every `Name("D")` below `node` by a fresh `make()`."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Name) and value.name == "D":
            setattr(node, f.name, make())
        elif isinstance(value, Node):
            substitute(value, make)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    substitute(item, make)


def deep_spec(make):
    spec = parse_spec(_DEEP)
    substitute(spec, make)
    bound = bind_constants(spec, {})
    assert validate(bound) == []
    return bound


@pytest.mark.parametrize("make,n", [(deep_sum, 120), (deep_sum, 400), (deep_cond, 150)],
                         ids=["sum_120", "sum_400", "cond_150"])
def test_deeply_nested_expressions(make, n):
    bound = deep_spec(lambda: make(n))
    graph = explore(bound)
    assert graph.states == [(0,), (1,), (2,), (3,)]
    assert (graph.states, [graph.out_edges(i) for i in range(graph.n_states)]) \
        == oracle_graph(bound)
    verdicts = [check_deadlock(graph)] + [check_property(graph, p) for p in bound.spec.properties]
    assert [(v.name, v.status) for v in verdicts] == _DEEP_VERDICTS
    for v in verdicts:
        if v.trace is not None:
            assert v.trace.states[-1] == (3,)
            assert replay_trace(bound, v.trace) is None
    # linear, as for nested statements
    half = deep_spec(lambda: make(n // 2))
    assert source_size(bound) < 2.5 * source_size(half)


def test_deeply_nested_constant_set_members():
    """A set member nested past `_MAX_EXPR_DEPTH` moves into a helper that
    takes the state, which a set function has as None: in a domain, an
    initial set and a `forall` set."""
    deep = "1"
    for _ in range(15):
        deep = f"(if 1 = 1 then {deep} else 0)"
    bound = build(f"spec t\nvar x : int domain {{{deep}, 2}} init in {{{deep}, 2}}\n"
                  "action A { when x = 1 x' = 2 }\n"
                  f"property P: forall q in {{2, {deep}}}: eventually (x = q)\n")
    graph = explore(bound)
    assert graph.states == [(1,), (2,)]
    verdict = check_property(graph, bound.spec.properties[0])
    assert (verdict.status, verdict.binder) == ("fail", 1)
    assert verdict.trace.states == [(2,)]


def test_generated_actions_read_and_compare_inline(math_src):
    """A variable read, binder, literal, comparison, `and`/`or` or sum in an
    action is inline source, in the explore loop and in the reference
    successor functions: the only calls left are interning or appending a
    successor, deduplicating, the loop's `enumerate` and deadline check, and
    raising an overflow or unresolved-name error."""
    bound = build(math_src, {"max_num_q": 3})
    explore_source = _explore_module(bound)[1]
    # math is small enough for all of its actions to sit inline in the loop
    assert [node.name for node in ast.walk(ast.parse(explore_source))
            if isinstance(node, ast.FunctionDef)] == ["explore", "run"]
    # Check's binder `r` is a local: no binder dict is built or searched
    assert "{**" not in explore_source and "'r' in" not in explore_source
    sources = [explore_source]
    for action in bound.spec.actions:
        mod, main = _successor_source(bound, action)
        sources.append(mod.source(main))
    for source in sources:
        tree = ast.parse(source)
        raisers = {id(node.orelse) for node in ast.walk(tree) if isinstance(node, ast.IfExp)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if re.fullmatch(r"[OU]\d+", name):
                assert id(node) in raisers, ast.unparse(node)
                assert not node.args, ast.unparse(node)
            else:
                assert name in {"out.append", "dict.fromkeys", "intern", "len", "enumerate",
                                "deadline.expired"} \
                    or name.startswith("add_"), ast.unparse(node)
    # An error helper is passed only what it reports: a domain test raises
    # `X<n>(w<i>)` and an `any` over a range loops over `R<n>(lo, hi)`.
    bound = build("spec t\nconst top : int\nvar x : int domain 0..3 init 0\n"
                  "action Step { any c in 0..top { x' = x + c } }\n", {"top": 3})
    mod, main = _successor_source(bound, bound.spec.actions[0])
    for source in (_explore_module(bound)[1], mod.source(main)):
        calls = [(ast.unparse(node.func), node.args) for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call)]
        assert [list(map(ast.unparse, args)) for name, args in calls
                if re.fullmatch(r"X\d+", name)] == [["w0"]]
        assert [len(args) for name, args in calls if re.fullmatch(r"R\d+", name)] == [2]
        assert [args for name, args in calls if re.fullmatch(r"O\d+", name)] == [[]]


def slot_copies(source: str) -> list:
    return re.findall(r"\bw(\d+) = s\[\1\]", source)


def test_each_slot_is_copied_only_where_a_path_needs_it(math_src):
    """Check restores count_right and count_wrong once per `any` choice,
    since each choice assigns only one of them, and copies no slot when its
    guard holds: every path assigns or restores every slot it writes.  The
    other actions assign their slots on every path."""
    bound = build(math_src, {"max_num_q": 3})
    check = next(a for a in bound.spec.actions if a.name == "Check")
    mod, main = _successor_source(bound, check)
    assert slot_copies(mod.source(main)) == ["1", "2"]
    assert slot_copies(_explore_module(bound)[1]) == ["1", "2"]


_DOMAIN = """spec t
const top : int
var x : int domain 0..top init 0
action Wrap { if x = top { x' = 0 } else { x' = x + 1 } }
action Top { when x = 1 x' = top }
action Out { when x = 2 x' = top + 4 }
"""


def test_domain_test_is_left_out_only_for_a_constant_in_the_domain():
    # `0` and `top` are constants in the domain; `x + 1` varies and
    # `top + 4` folds to a constant outside it
    bound = build(_DOMAIN, {"top": 3})
    source = _explore_module(bound)[1]
    assert source.count(" not in D") == 2
    with pytest.raises(EvalError) as err:
        explore(bound)
    assert str(err.value) == "action Out at 6:25: value 7 assigned to x is outside its domain"
    assert err.value.trace.states == [(0,), (1,), (2,)]
    assert_explore_matches_reference(bound, 100)


# --- whole levels expanded as columns, against the loop and the reference --------


# Every int variable has a domain.  Choices that make one successor several
# times (A, when f is false or x0 < 2), `if`s nested in an `any` and in an
# `if`, and a domain violation on a taken path after the first level (B at
# x0 = 3, x1 = 3).
_COLUMNS = """spec columns
var x0 : int domain 0..3 init in {0, 2}
var x1 : int domain 0..3 init 0
var f : bool init in {true, false}
action A {
    any c0 in {0, 1, 2} {
        if f {
            if x0 < 2 {
                x0' = x0 + 1
            } else {
                x1' = c0
            }
        } else {
            x1' = 1
        }
    }
}
action B {
    if x0 = 3 {
        x1' = x1 + 1
    } else {
        if f {
            f' = false
        } else {
            x0' = 3
        }
    }
}
"""
_COLUMN_EXAMPLES = [
    _COLUMNS,
    _COLUMNS.replace("x1' = x1 + 1", "x1' = 2"),  # no violation: the full graph
    _COLUMNS.replace("x1' = x1 + 1", "x1' = x1 - 3"),  # a violation below the domain
    _PATHS.replace("int init", "int domain 0..3 init"),
    _ERRORS.replace("x0 : int init", "x0 : int domain 0..3 init"),
]


def test_column_examples_have_a_column_plan():
    for source in _COLUMN_EXAMPLES:
        assert _column_plan(build(source)) is not None


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@example(_COLUMN_EXAMPLES[0], 5, 2)
@example(_COLUMN_EXAMPLES[1], 7, 1)
@example(_COLUMN_EXAMPLES[2], 3, 2)
@example(_COLUMN_EXAMPLES[3], 1, 0)
@example(_COLUMN_EXAMPLES[4], 9, 3)
@example(_COLLIDE, 6, 1)
@given(deep_specs(all_domains=True), st.integers(1, 40), st.integers(0, 5))
def test_column_levels_match_the_loop_and_the_reference(source, max_states, max_depth):
    """With every level expanded as columns, `explore` gives the loop's
    graph, error or partial graph, and the reference BFS's, with its keys
    looked up in sorted runs and in a table; a level whose
    columns raise EvalError is expanded by the loop, also when only a later
    chunk of the level raises EvalError, and one whose new states would pass
    a limit is cut where the loop stops.  The
    reports of `spacheck check` and its DOT output are the loop's too."""
    bound = build(source)
    for limits in ({"max_states": 200}, {"max_states": max_states},
                   {"max_states": 200, "max_depth": max_depth}):
        loop = explore_with(bound, sys.maxsize, **limits)
        for dense_bits in DENSE_BOUNDS:
            assert explore_with(bound, 1, dense_bits, **limits) == loop
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(semantics, "_CHUNK_ROWS", 1)  # a chunk per state
                assert explore_with(bound, 1, dense_bits, **limits) == loop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", 1)
        assert_explore_matches_reference(bound, 200)
        assert_explore_matches_reference(bound, max_states)
    source += _PROPERTIES
    assert check_outputs(source, 1) == check_outputs(source, sys.maxsize)


# Every kind of verdict over the variables of `deep_specs`, a `forall` too,
# so that the reports compare invariant and liveness verdicts and traces
# over states stored as keys with those over tuples.
_PROPERTIES = """invariant Small: x0 + x1 < 5
property Settles: eventually (x2 = 3)
property Answers: (f) leadsto (x0 = 0)
property Recurs: always eventually (not f)
property Each: forall v in 0..3 : eventually (x1 = v)
"""


def check_outputs(source: str, wide: int) -> tuple:
    """`spacheck check --json --dot` on `source` with every level at least
    `wide` states wide expanded as columns: the exit code, the JSON report
    with `elapsed_ms` stripped, the DOT file and what went to stderr."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", wide)
        spec, dot = os.path.join(tmp, "deep.spa"), os.path.join(tmp, "deep.dot")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(source)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", spec, "--json", "--dot", dot])
        graph = None
        if os.path.exists(dot):
            with open(dot, encoding="utf-8") as fh:
                graph = fh.read()
    report = re.sub(r'"elapsed_ms": [0-9.e+-]+', "", out.getvalue())
    return code, report, graph, err.getvalue().replace(tmp, "")


# A string domain, int domains that are not ranges, a bool with a domain, and
# an `if` expression over strings; Bad assigns 8, outside k's domain.
_KINDS = """spec kinds
var r : string domain {"b", "", "a"} init ""
var k : int domain {9, 1, 5} init 1
var on : bool domain {true} init true
var f : bool init in {true, false}
action Say {
    any w in {"a", "b"} {
        if f {
            r' = w
        } else {
            r' = if r = "" then "a" else r
        }
    }
}
action Step {
    when k /= 9
    if k = 1 {
        k' = 5
    } else {
        k' = k + 4
    }
}
action Flip {
    f' = not f
    on' = on
}
action Bad {
    when r = "b" and k = 9 and not f
    k' = k - 1
}
"""


def bools(n: int) -> str:
    """n bool variables; the actions set the lowest and flip the highest,
    the last bit of the key when n is 62."""
    decls = "".join(f"var b{k} : bool init false\n" for k in range(n))
    return (f"spec t\n{decls}action Set {{\nwhen not b0\nb0' = true\n}}\n"
            f"action Flip {{\nany v in {{true, false}} {{\nb{n - 1}' = v\n}}\n}}\n")


@pytest.mark.parametrize("n,keys", [(62, True), (63, False)])
def test_a_key_holds_62_bools(n, keys):
    """A bool takes one bit of a key and keys stay below 2**62: 62 bools
    are explored as columns and 63 by the loop, each into the reference
    BFS's graph."""
    bound = build(bools(n))
    assert (_column_plan(bound) is not None) == keys
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", 1)
        graph = explore(bound)
        assert isinstance(graph.states, explorer.KeyStates) == keys
        assert graph.n_states == 4
        assert_explore_matches_reference(bound, 100)


@pytest.mark.parametrize("bad", [True, False], ids=["violation", "graph"])
def test_string_and_sparse_domains_in_columns(bad):
    bound = build(_KINDS if bad else _KINDS.replace("k' = k - 1", "k' = 1"))
    assert _column_plan(bound) is not None
    outcome = explore_with(bound, 1)
    assert outcome[0] == ("error" if bad else "graph")
    assert outcome == explore_with(bound, sys.maxsize)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", 1)
        assert_explore_matches_reference(bound, 100)


# --- successors deduplicated only where an action's choices can collide ----------

_TWO_VARS = """spec t
var x : int domain 0..3 init 0
var y : int domain 0..3 init 0
var f : bool init false
action Step {
    when x < 3
    x' = x + 1
}
"""
_DISTINCT = [
    ("math_check", corpus_text("math_domains.spa"), {"max_num_q": 3}, "Check", True),
    # nested `any`s, each assigning its own binder, the inner one inside an
    # `if` with a statement after it
    ("nested", _TWO_VARS + """action A {
    any r in {0, 1} {
        x' = r
        if f {
            any q in {r, 2} {
                y' = q
            }
        } else {
            y' = 3
        }
        f' = not f
    }
}
""", {}, "A", True),
    ("no_binder", _TWO_VARS + "action A {\n    any r in {1, 2} {\n        x' = 0\n    }\n}\n",
     {}, "A", False),
    # at x /= 0 both choices take the branch that does not assign r
    ("one_branch", _TWO_VARS + """action A {
    any r in {1, 2} {
        if x = 0 {
            y' = r
        } else {
            x' = 0
        }
    }
}
""", {}, "A", False),
    ("other_slot", _COLLIDE, {}, "A", False),
    # the outer `any` assigns its binder, the inner one does not
    ("inner_no_binder", _TWO_VARS + """action A {
    any r in {1, 2} {
        x' = r
        any q in {1, 2} {
            y' = 0
        }
    }
}
""", {}, "A", False),
    # the outer `any` assigns the inner binder: (1, 2) and (2, 2) collide
    ("inner_set", _TWO_VARS + """action A {
    any c1 in {1, 2} {
        any c2 in {c1, 2} {
            y' = c2
        }
    }
}
""", {}, "A", False),
]


@pytest.mark.parametrize("source,constants,name,distinct", [x[1:] for x in _DISTINCT],
                         ids=[x[0] for x in _DISTINCT])
def test_successors_are_deduplicated_only_where_choices_can_collide(
        source, constants, name, distinct, monkeypatch):
    """An action whose every `any` assigns its binder to one variable on
    every path through its body makes distinct successors: the loop interns
    them where they are made, with no `out` list, the reference `succ`
    returns its list as it is, and the column plan keeps every slot.  The
    graph is the reference BFS's either way, and columns give the loop's."""
    copies = []
    real = semantics._first_copies

    def first_copies(*args):
        copies.append(args[2:])  # the action's slots
        real(*args)

    monkeypatch.setattr(semantics, "_first_copies", first_copies)
    bound = build(source, constants)
    action = next(a for a in bound.spec.actions if a.name == name)
    assert semantics._distinct_choices(action) == distinct
    loop = _explore_module(bound)[1]
    assert bool(re.search(r"\bout\b", loop)) == (not distinct)
    assert ("dict.fromkeys(out)" in loop) == (not distinct)
    mod, main = _successor_source(bound, action)
    assert ("dict.fromkeys(out)" in mod.source(main)) == (not distinct)
    agree_from_initial(bound)
    assert_explore_matches_reference(bound, 200)
    assert explore_with(bound, 1) == explore_with(bound, sys.maxsize)
    assert bool(copies) == (not distinct)


# Each choice assigns its binder to y, so the loop interns each where it is
# made: at x = 2 the first choice makes a new state, then the second
# overflows.
_LATE_OVERFLOW = """spec late
var x : int init 0
var y : int init 0
action A {
    any r in {0, 1} {
        y' = r
        if r = 0 {
            x' = x + 1
        } else {
            x' = x * 9223372036854775807
        }
    }
}
"""


def test_an_error_after_an_interned_choice_is_the_reference_error():
    bound = build(_LATE_OVERFLOW)
    assert semantics._distinct_choices(bound.spec.actions[0])
    got = explore_outcome(bound, 200)
    assert got == oracles.explore_reference(bound, 200)
    assert got == ("error", "action A at 10:20: integer overflow",
                   [(0, 0), (1, 0), (2, 0)], ["A", "A"])
