"""The generated successor functions against an independent interpreter of
the next-state relation (`oracles.step`), and the shapes of action that
Python's own compiler limits make hard to generate."""

import ast
import dataclasses
import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import build
from spacheck import (bind_constants, check_deadlock, check_property, explore, initial_states,
                      parse_spec, replay_trace, successors, validate)
from spacheck.model import Binary, Cond, Lit, Name, Node
from spacheck.semantics import EvalError, _ActionSource

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
def deep_specs(draw):
    """Source text of a spec whose actions nest `if` and `any` three deep,
    with sequential and nested `any`, statements after an `if` that holds an
    `any`, assignments to variables with a domain (and values outside it),
    and products that overflow ahead of conditions that would overflow too.
    Each statement is on its own line, so every EvalError names a distinct
    location."""
    binder_ids = itertools.count()
    lines = ["spec deep"]
    for name in _INTS:
        domain = " domain 0..3" if draw(st.booleans()) else ""
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


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@example(_PATHS)
@example(_ERRORS)
@given(deep_specs())
def test_successors_match_interpreter_on_deep_specs(source):
    agree_from_initial(build(source))


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
    """The size of the generated source of the first action of `spec`
    (text, or a bound spec)."""
    bound = build(spec) if isinstance(spec, str) else spec
    return len(_ActionSource(bound, bound.spec.actions[0]).source)


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


def test_twenty_five_sequential_anys():
    check_shape(sequential_anys, 25, [(0,) * 25, tuple(range(25))])


def test_thirty_sequential_ifs_each_with_an_any():
    check_shape(sequential_ifs_with_any, 30, [(0,) * 30, (1,) * 30])


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


def test_generated_actions_read_and_compare_inline(math_src):
    """A variable read, literal, comparison, `and`/`or` or sum in an action
    is inline source: the only calls left are appending a successor,
    deduplicating, and raising an overflow or unresolved-name error."""
    bound = build(math_src, {"max_num_q": 3})
    for action in bound.spec.actions:
        for explore_index in (None, 0):
            tree = ast.parse(_ActionSource(bound, action, explore_index).source)
            raisers = {id(node.orelse) for node in ast.walk(tree) if isinstance(node, ast.IfExp)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func)
                if re.fullmatch(r"[OU]\d+", name):
                    assert id(node) in raisers, ast.unparse(node)
                else:
                    assert name in {"out.append", "dict.fromkeys", "lookup", "len"} \
                        or name.startswith("add_"), ast.unparse(node)
