"""Lexing, parsing, error positions, and pretty-print round trips."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import ROOT, corpus_text, perfbench_workloads
from spacheck import ParseError, parse_spec, pretty_print, tokenize
from spacheck.model import (
    Binary, Cond, InSet, Invariant, LeadsTo, Lit, Name, Node, Unary, format_value,
)
from spacheck.parser import KEYWORDS, _Parser


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens if t.kind != "end-of-input"]


def test_tokenize_guard_line():
    assert kinds_and_texts(tokenize("when check_enabled = true")) == [
        ("keyword", "when"),
        ("identifier", "check_enabled"),
        ("operator", "="),
        ("keyword", "true"),
    ]


def test_tokenize_range():
    assert kinds_and_texts(tokenize("1..12")) == [
        ("integer-literal", "1"),
        ("operator", ".."),
        ("integer-literal", "12"),
    ]


def test_tokenize_integer_literal_past_python_digit_limit():
    # Python refuses to convert more than 4,300 digits to an int
    with pytest.raises(ParseError) as err:
        tokenize("1" * 5000)
    assert (err.value.line, err.value.col) == (1, 1)
    assert err.value.message.endswith("1 out of 64-bit range")
    with pytest.raises(ParseError, match="out of 64-bit range"):
        tokenize("0" * 5000 + str(2**63))
    # leading zeros do not count
    assert tokenize("0" * 5000 + "7")[0].kind == "integer-literal"
    assert parse_expr("0" * 5000 + "7").value == 7


def test_tokenize_string_literal():
    toks = tokenize('"Right"')
    assert toks[0].kind == "string-literal"
    assert toks[0].text == "Right"


def test_tokenize_comments_and_positions():
    toks = tokenize("var x // trailing\nvar")
    assert [t.text for t in toks[:-1]] == ["var", "x", "var"]
    assert (toks[2].line, toks[2].col) == (2, 1)
    # end of input after a trailing comment sits after the comment
    end = tokenize("spec t // c")[-1]
    assert (end.kind, end.line, end.col) == ("end-of-input", 1, 12)


@pytest.mark.parametrize(
    "source,message",
    [
        ('"oops', "unterminated string literal"),
        ("x ? y", "illegal character"),
        (str(2**63), "out of 64-bit range"),
    ],
)
def test_tokenize_errors(source, message):
    with pytest.raises(ParseError) as err:
        tokenize(source)
    assert message in str(err.value)


def test_parse_math_shape(math_src):
    spec = parse_spec(math_src)
    assert spec.name == "math"
    assert len(spec.constants) == 1
    assert len(spec.variables) == 7
    assert len(spec.actions) == 4
    assert len(spec.properties) == 3
    assert spec.var_names() == list(oracles.MATH_VARS)
    assert [a.name for a in spec.actions] == [
        "Input_Answer", "Check", "New_Question", "Terminating",
    ]


def test_parse_clock_shape(clock_src):
    spec = parse_spec(clock_src)
    assert len(spec.constants) == 0
    assert len(spec.variables) == 2
    assert len(spec.actions) == 1
    assert len(spec.properties) == 2


def test_parse_error_position():
    src = "spec t\nvar x : bool init true\naction A { when }"
    with pytest.raises(ParseError) as err:
        parse_spec(src)
    assert (err.value.line, err.value.col) == (3, 17)


def test_nested_when_rejected():
    src = (
        "spec t\nvar x : bool init true\n"
        "action A { if x { when x } }"
    )
    with pytest.raises(ParseError) as err:
        parse_spec(src)
    assert "top level" in err.value.message


def test_bare_leadsto_sugar(math_src):
    spec = parse_spec(math_src)
    lead = [p for p in spec.properties if p.name == "Liveness"][0]
    assert isinstance(lead.shape, LeadsTo)


def test_always_alias_is_invariant():
    spec = parse_spec(
        "spec t\nvar x : bool init true\naction A { when x }\n"
        "property P: always (x)"
    )
    assert isinstance(spec.properties[0].shape, Invariant)


# The golden panels spec and math_domains.spa print `domain` clauses.
@pytest.mark.parametrize("name", ["clock.spa", "math.spa", "math_buggy.spa", "math_domains.spa",
                                  "golden/panels.spa"])
def test_corpus_round_trip(name):
    if name.startswith("golden/"):
        source = (ROOT / "tests" / name).read_text(encoding="utf-8")
    else:
        source = corpus_text(name)
    first = parse_spec(source)
    printed = pretty_print(first)
    second = parse_spec(printed)
    assert first == second
    # idempotence after one normalization
    assert pretty_print(second) == printed


def test_minimal_spec_round_trip():
    src = "spec t var x : bool init true action A { when x x' = false }"
    spec = parse_spec(src)
    assert parse_spec(pretty_print(spec)) == spec


def test_forall_always_round_trip():
    src = ("spec t var x : int init 0 action A { when x < 3 x' = x + 1 }\n"
           "property P: forall v in 0..3 : always (x <= v)")
    spec = parse_spec(src)
    printed = pretty_print(spec)
    assert "property P: forall v in 0..3 : always (" in printed
    assert parse_spec(printed) == spec
    assert pretty_print(parse_spec(printed)) == printed


@pytest.mark.parametrize("source,message", [
    ("spec t foo", "1:8: expected 'const', 'var', 'action', 'invariant', 'property' but found 'foo'"),
    ("spec t property P: 3", "1:20: expected 'always', 'eventually', '(', identifier but found '3'"),
    ("spec t var x : bool action A { when x }", "1:21: expected 'init' but found 'action'"),
], ids=["top_level", "property_shape", "var_without_init"])
def test_parse_error_names_what_was_expected(source, message):
    with pytest.raises(ParseError) as err:
        parse_spec(source)
    assert str(err.value) == message


def test_parse_error_positions_inside_source():
    bad_sources = [
        "spec", "spec t var", "spec t var x :", "spec t action A {",
        "spec t invariant I:", "spec t property P: eventually x",
    ]
    for src in bad_sources:
        with pytest.raises(ParseError) as err:
            parse_spec(src)
        lines = src.split("\n")
        assert 1 <= err.value.line <= len(lines) + 1
        assert err.value.col >= 1


@settings(max_examples=max(60, settings().max_examples), deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_specs_round_trip(seed):
    spec = oracles.gen_spec(seed)
    printed = pretty_print(spec)
    # the printer output always lexes and reparses to an equal tree
    tokenize(printed)
    assert parse_spec(printed) == spec


def test_conditional_expression_parses(clock_src):
    spec = parse_spec(clock_src)
    printed = pretty_print(spec)
    assert "if hr = 12 then 1 else hr + 1" in printed


def test_crlf_sources_parse_identically(clock_src):
    assert parse_spec(clock_src.replace("\n", "\r\n")) == parse_spec(clock_src)


def parse_expr(text):
    return _Parser(tokenize(text)).expr()


def test_operator_precedence():
    x, y, z = Name(name="x"), Name(name="y"), Name(name="z")
    assert parse_expr("x or y and z") == Binary(op="or", left=x, right=Binary(op="and", left=y, right=z))
    assert parse_expr("not x = y") == Unary(op="not", operand=Binary(op="=", left=x, right=y))
    assert parse_expr("x implies y implies z") == Binary(
        op="implies", left=x, right=Binary(op="implies", left=y, right=z)
    )
    assert parse_expr("1 + 2 * 3") == Binary(
        op="+", left=Lit(value=1), right=Binary(op="*", left=Lit(value=2), right=Lit(value=3))
    )
    assert parse_expr("1 - 2 - 3") == Binary(
        op="-", left=Binary(op="-", left=Lit(value=1), right=Lit(value=2)), right=Lit(value=3)
    )
    within = parse_expr("x in 1..2 and y")
    assert within.op == "and" and isinstance(within.left, InSet)


# arbitrary expression trees: the printer must always reparse to the same tree
def _expr_strategy():
    from spacheck import model

    leaves = st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda v: model.Lit(value=v)),
        st.booleans().map(lambda v: model.Lit(value=v)),
        st.sampled_from(["am", "pm", ""]).map(lambda v: model.Lit(value=v)),
        st.sampled_from(["x", "y", "zz"]).map(lambda n: model.Name(name=n)),
    )

    def extend(children):
        sets = st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda es: model.SetLit(elems=es)),
            st.tuples(children, children).map(lambda p: model.RangeSet(lo=p[0], hi=p[1])),
        )
        return st.one_of(
            st.tuples(
                st.sampled_from(["or", "and", "implies", "=", "/=", "<", "<=", ">", ">=", "+", "-", "*"]),
                children, children,
            ).map(lambda t: model.Binary(op=t[0], left=t[1], right=t[2])),
            children.map(lambda e: model.Unary(op="not", operand=e)),
            st.tuples(children, sets).map(lambda t: model.InSet(item=t[0], over=t[1])),
            st.tuples(children, children, children).map(
                lambda t: model.Cond(cond=t[0], then=t[1], orelse=t[2])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=max(150, settings().max_examples), deadline=None)
@given(_expr_strategy())
def test_arbitrary_expressions_round_trip(expr):
    from spacheck.parser import _fmt_expr

    assert parse_expr(_fmt_expr(expr)) == expr


# text made of the language's own pieces reaches every token class and error
_PIECES = sorted(KEYWORDS) + [
    "x", "then", "0", "12", str(2**63), "=", "/=", "<", "<=", ">", ">=", "+", "-",
    "*", "..", ".", "/", "{", "}", "(", ")", ":", ",", "'", '"', '"s"', "//",
    " ", "\t", "\r", "\n", "?",
]


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(st.one_of(st.text(max_size=40), st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)))
def test_tokenize_never_crashes(source):
    # arbitrary text either tokenizes or reports a position inside the input
    lines = source.split("\n")
    try:
        toks = tokenize(source)
    except ParseError as err:
        assert 1 <= err.line <= len(lines)
        assert err.col >= 1
        return
    assert toks[-1].kind == "end-of-input"
    for t in toks[:-1]:
        assert t.line >= 1 and t.col >= 1
        spelling = f'"{t.text}"' if t.kind == "string-literal" else t.text
        assert lines[t.line - 1][t.col - 1:].startswith(spelling)


# --- parse edge cases ---------------------------------------------------------------

def _when(e):
    return f"spec t\nvar x : int init 0\naction A {{\n    when {e}\n}}\n"


# The grammar is non-associative at comparisons and `in`, and `not` binds
# looser than comparison: each of these stops where the tokens after a
# complete expression cannot continue it.
@pytest.mark.parametrize("e,line,col,message", [
    ("a = b = c", 4, 16, "expected statement but found '='"),
    ("1 <= x <= y", 4, 17, "expected statement but found '<='"),
    ("x in {1} + 1", 4, 19, "expected statement but found '+'"),
    ("x in 1..3 = true", 4, 20, "expected statement but found '='"),
    ('not z < "s" in {"t"}', 4, 22, "expected statement but found 'in'"),
    ("x = not y", 4, 14, "expected expression but found 'not'"),
    ("9 or 1 <= y <= z", 4, 22, "expected statement but found '<='"),
    ("a implies b = c = d", 4, 26, "expected statement but found '='"),
])
def test_parse_edge_case_errors(e, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_spec(_when(e))
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


def test_parse_edge_case_trees():
    x, y, z = Name(name="x"), Name(name="y"), Name(name="z")
    assert parse_expr("x and not y or z") == Binary(
        op="or", left=Binary(op="and", left=x, right=Unary(op="not", operand=y)), right=z
    )
    assert parse_expr("not not x") == Unary(op="not", operand=Unary(op="not", operand=x))
    a, b, c, d = (Name(name=n) for n in "abcd")
    assert parse_expr("a or b implies c or d") == Binary(
        op="implies", left=Binary(op="or", left=a, right=b), right=Binary(op="or", left=c, right=d)
    )


# --- node positions -------------------------------------------------------------------

def _nodes(root):
    stack = [root]
    while stack:
        n = stack.pop()
        if isinstance(n, (list, tuple)):
            stack.extend(n)
        elif isinstance(n, Node):
            yield n
            stack.extend(getattr(n, f.name) for f in dataclasses.fields(n))


# the source spelling of the token each expression node is placed at
_SPELLING = {
    Binary: lambda e: e.op,
    Unary: lambda e: "not",
    InSet: lambda e: "in",
    Cond: lambda e: "if",
    Lit: lambda e: format_value(e.value),
    Name: lambda e: e.name,
}


def _position_sources():
    for name in ("clock.spa", "math.spa", "math_buggy.spa"):
        yield name, corpus_text(name)
    yield "panels.spa", (ROOT / "tests" / "golden" / "panels.spa").read_text()
    for seed in range(100):
        yield f"gen_spec({seed})", pretty_print(oracles.gen_spec(seed))
    bench = perfbench_workloads()
    for seed in (1, 2, 3):
        yield f"math_source({seed})", bench.math_source(seed, False)
        yield f"math_source({seed}, cyclic)", bench.math_source(seed, True)
        yield f"panels_source({seed})", bench.panels_source(seed, 5, 3)


def test_expression_nodes_sit_at_their_tokens():
    for label, source in _position_sources():
        at = {
            (t.line, t.col): f'"{t.text}"' if t.kind == "string-literal" else t.text
            for t in tokenize(source)
        }
        checked = 0
        for node in _nodes(parse_spec(source)):
            spelling = _SPELLING.get(type(node))
            if spelling is not None:
                assert at.get((node.line, node.col)) == spelling(node), (label, node)
                checked += 1
        assert checked > 0, label


# --- nesting depth ----------------------------------------------------------------------

def test_spec_nested_too_deeply_is_a_located_parse_error():
    source = "spec t\nvar x : int init 0\naction A {\n" + "if x < 5 {\n" * 600 + "x' = 1\n" + "}\n" * 601
    with pytest.raises(ParseError) as err:
        parse_spec(source)
    assert err.value.message == "the spec nests too deeply to parse"
    assert 4 <= err.value.line <= 604 and err.value.col >= 1


def test_deep_expressions_parse_from_text():
    parens = parse_expr("(" * 400 + "x + 1" + ")" * 400)
    assert parens == Binary(op="+", left=Name(name="x"), right=Lit(value=1))
    # alternately nested in the else and the then branch
    text = "x"
    for k in range(150):
        text = f"if x = {k} then {text} else 0" if k % 2 else f"if x = {k} then 0 else {text}"
    cond, depth = parse_expr(text), 0
    while isinstance(cond, Cond):
        cond, depth = (cond.then if isinstance(cond.orelse, Lit) else cond.orelse), depth + 1
    assert (cond, depth) == (Name(name="x"), 150)
