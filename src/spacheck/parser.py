"""Lexer, parser and pretty printer for the `.spa` workflow language.

Grammar (EBNF):

    spec      = "spec" IDENT item* ;
    item      = const | var | action | prop ;
    const     = "const" IDENT ":" kind ;
    kind      = "int" | "bool" | "string" ;
    var       = "var" IDENT ":" kind ["domain" setexpr] initc ;
    initc     = "init" expr | "init" "in" setexpr ;
    action    = "action" IDENT "{" stmt* "}" ;
    stmt      = "when" expr                      // action top level only
              | IDENT "'" "=" expr
              | "any" IDENT "in" setexpr block
              | "if" expr block ["else" block] ;
    block     = "{" stmt* "}" ;
    prop      = "invariant" IDENT ":" expr
              | "property" IDENT ":" [ "forall" IDENT "in" setexpr ":" ] tform ;
    tform     = "always" "eventually" "(" expr ")"
              | "eventually" "(" expr ")"
              | "(" expr ")" "leadsto" "(" expr ")"
              | IDENT "leadsto" IDENT
              | "always" "(" expr ")" ;         // alias for invariant
    setexpr   = "{" expr { "," expr } "}" | addexpr ".." addexpr ;

Expression precedence, loosest first: implies (right associative), or, and,
not, comparison (= /= < <= > >= and `in` setexpr, non-associative), additive
(+ -), multiplicative (*), primary.  A primary is a literal, identifier,
parenthesised expression, or `if e then e else e` (note `then` is contextual,
not reserved).  Comments run from `//` to end of line.

The grammar above is the specification; the code is table-driven.  Tokens
come from one regular expression with a named alternative per token class,
and expressions from precedence climbing over `_PREC`, the table the pretty
printer reads to place parentheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .model import (
    INT_MAX,
    ActionDef,
    AlwaysEventually,
    AnyChoice,
    Assign,
    Binary,
    Cond,
    ConstDecl,
    Eventually,
    Expr,
    If,
    InSet,
    Invariant,
    LeadsTo,
    Lit,
    Name,
    RangeSet,
    SetExpr,
    SetLit,
    SpecModel,
    TemporalProperty,
    Unary,
    VarDecl,
    format_value,
)

KEYWORDS = frozenset(
    """spec const var init in domain action when any if else invariant
    property forall always eventually leadsto and or not implies true false
    int bool string""".split()
)

# One alternative per token class, tried in order at each position.  A lone
# `"` matches only where no closing quote follows on the same line.
_TOKEN_RE = re.compile(
    r"""(?P<skip>[ \t\r]+|//[^\n]*)
    |(?P<newline>\n)
    |(?P<word>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<integer>[0-9]+)
    |(?P<string>"[^"\n]*")
    |(?P<quote>")
    |(?P<operator>/=|<=|>=|\.\.|[=<>+*-])
    |(?P<punctuation>[{}():,'])""",
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # keyword | identifier | integer-literal | string-literal | operator | punctuation | end-of-input
    text: str
    line: int
    col: int


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int, expected: Optional[list] = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


def tokenize(source: str) -> list:
    """Split source text into tokens, ending with an end-of-input token.

    Raises ParseError on an illegal character, an unterminated string
    literal, or an integer literal outside the signed 64-bit range.
    """
    toks = []
    line, line_start, pos = 1, 0, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"illegal character {source[pos]!r}", line, pos - line_start + 1)
        kind, col, pos = m.lastgroup, pos - line_start + 1, m.end()
        if kind == "skip":
            continue
        if kind == "newline":
            line, line_start = line + 1, pos
            continue
        text = m.group()
        if kind == "word":
            toks.append(Token("keyword" if text in KEYWORDS else "identifier", text, line, col))
        elif kind == "integer":
            digits = text.lstrip("0")
            # Python converts at most 4,300 digits to an int; INT_MAX has 19.
            if len(digits) > 19 or int(digits or "0") > INT_MAX:
                raise ParseError(f"integer literal {text} out of 64-bit range", line, col)
            toks.append(Token("integer-literal", text, line, col))
        elif kind == "string":
            toks.append(Token("string-literal", text[1:-1], line, col))
        elif kind == "quote":
            raise ParseError("unterminated string literal", line, col)
        else:
            toks.append(Token(kind, text, line, col))
    toks.append(Token("end-of-input", "", line, pos - line_start + 1))
    return toks


# Binding tightness per operator, shared by the parser and the printer.
_PREC = {
    "implies": 1,
    "or": 2,
    "and": 3,
    "not": 4,
    "=": 5, "/=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5, "in": 5,
    "+": 6, "-": 6,
    "*": 7,
}
_NOT = _PREC["not"]
_CMP = _PREC["in"]  # comparisons and `in`: non-associative
_ADD = _PREC["+"]
_TIGHTEST = max(_PREC.values())


class _Parser:
    def __init__(self, tokens: list):
        self.toks = tokens
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "end-of-input":
            self.pos += 1
        return t

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "keyword" and t.text == word

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind in ("operator", "punctuation") and t.text == text

    def eat_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            self.fail(f"'{word}'")
        return self.next()

    def eat(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"'{text}'")
        return self.next()

    def eat_ident(self) -> Token:
        t = self.peek()
        if t.kind != "identifier":
            self.fail("identifier")
        return self.next()

    def fail(self, *expected: str):
        t = self.peek()
        got = t.text if t.kind != "end-of-input" else "end of input"
        raise ParseError(
            f"expected {', '.join(expected)} but found {got!r}",
            t.line,
            t.col,
            expected=list(expected),
        )

    # -- grammar -------------------------------------------------------------

    def spec(self) -> SpecModel:
        start = self.eat_kw("spec")
        name = self.eat_ident().text
        model = SpecModel(name=name, line=start.line, col=start.col)
        while True:
            t = self.peek()
            if t.kind == "end-of-input":
                break
            if self.at_kw("const"):
                model.constants.append(self.const_decl())
            elif self.at_kw("var"):
                model.variables.append(self.var_decl())
            elif self.at_kw("action"):
                model.actions.append(self.action_def())
            elif self.at_kw("invariant") or self.at_kw("property"):
                model.properties.append(self.prop_decl())
            else:
                self.fail("'const'", "'var'", "'action'", "'invariant'", "'property'")
        return model

    def kind_name(self) -> str:
        for k in ("int", "bool", "string"):
            if self.at_kw(k):
                return self.next().text
        self.fail("'int'", "'bool'", "'string'")

    def const_decl(self) -> ConstDecl:
        t = self.eat_kw("const")
        name = self.eat_ident().text
        self.eat(":")
        return ConstDecl(name=name, kind=self.kind_name(), line=t.line, col=t.col)

    def var_decl(self) -> VarDecl:
        t = self.eat_kw("var")
        name = self.eat_ident().text
        self.eat(":")
        kind = self.kind_name()
        domain = None
        if self.at_kw("domain"):
            self.next()
            domain = self.setexpr()
        self.eat_kw("init")
        init = init_set = None
        if self.at_kw("in"):
            self.next()
            init_set = self.setexpr()
        else:
            init = self.expr()
        return VarDecl(
            name=name,
            kind=kind,
            domain=domain,
            init=init,
            init_set=init_set,
            line=t.line,
            col=t.col,
        )

    def action_def(self) -> ActionDef:
        t = self.eat_kw("action")
        name = self.eat_ident().text
        action = ActionDef(name=name, line=t.line, col=t.col)
        self.eat("{")
        while not self.at("}"):
            if self.at_kw("when"):
                self.next()
                action.guards.append(self.expr())
            else:
                action.body.append(self.stmt())
        self.eat("}")
        return action

    def stmt(self):
        t = self.peek()
        if t.kind == "keyword" and t.text == "when":
            raise ParseError(
                "'when' is only allowed at the top level of an action", t.line, t.col
            )
        if self.at_kw("any"):
            self.next()
            binder = self.eat_ident().text
            self.eat_kw("in")
            over = self.setexpr()
            return AnyChoice(
                binder=binder, over=over, body=self.block(), line=t.line, col=t.col
            )
        if self.at_kw("if"):
            self.next()
            cond = self.expr()
            then = self.block()
            orelse = []
            if self.at_kw("else"):
                self.next()
                orelse = self.block()
            return If(cond=cond, then=then, orelse=orelse, line=t.line, col=t.col)
        if t.kind == "identifier":
            name = self.next().text
            self.eat("'")
            self.eat("=")
            return Assign(target=name, value=self.expr(), line=t.line, col=t.col)
        self.fail("statement")

    def block(self) -> list:
        self.eat("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.stmt())
        self.eat("}")
        return stmts

    def prop_decl(self) -> TemporalProperty:
        t = self.next()  # invariant | property
        name = self.eat_ident().text
        self.eat(":")
        if t.text == "invariant":
            return TemporalProperty(
                name=name, shape=Invariant(pred=self.expr()), line=t.line, col=t.col
            )
        binder = None
        if self.at_kw("forall"):
            self.next()
            bname = self.eat_ident().text
            self.eat_kw("in")
            bset = self.setexpr()
            self.eat(":")
            binder = (bname, bset)
        return TemporalProperty(
            name=name, shape=self.tform(), binder=binder, line=t.line, col=t.col
        )

    def tform(self):
        t = self.peek()
        if self.at_kw("always"):
            self.next()
            if self.at_kw("eventually"):
                self.next()
                self.eat("(")
                pred = self.expr()
                self.eat(")")
                return AlwaysEventually(pred=pred, line=t.line, col=t.col)
            self.eat("(")
            pred = self.expr()
            self.eat(")")
            return Invariant(pred=pred, line=t.line, col=t.col)
        if self.at_kw("eventually"):
            self.next()
            self.eat("(")
            pred = self.expr()
            self.eat(")")
            return Eventually(pred=pred, line=t.line, col=t.col)
        if self.at("("):
            self.next()
            lhs = self.expr()
            self.eat(")")
            self.eat_kw("leadsto")
            self.eat("(")
            rhs = self.expr()
            self.eat(")")
            return LeadsTo(lhs=lhs, rhs=rhs, line=t.line, col=t.col)
        if t.kind == "identifier":
            lhs = Name(name=self.next().text, line=t.line, col=t.col)
            self.eat_kw("leadsto")
            r = self.peek()
            rhs = Name(name=self.eat_ident().text, line=r.line, col=r.col)
            return LeadsTo(lhs=lhs, rhs=rhs, line=t.line, col=t.col)
        self.fail("'always'", "'eventually'", "'('", "identifier")

    # -- set expressions -------------------------------------------------------

    def setexpr(self) -> SetExpr:
        t = self.peek()
        if self.at("{"):
            self.next()
            elems = [self.expr()]
            while self.at(","):
                self.next()
                elems.append(self.expr())
            self.eat("}")
            return SetLit(elems=elems, line=t.line, col=t.col)
        lo = self.expr(_ADD)
        self.eat("..")
        hi = self.expr(_ADD)
        return RangeSet(lo=lo, hi=hi, line=t.line, col=t.col)

    # -- expressions -----------------------------------------------------------

    def expr(self, min_prec: int = 1) -> Expr:
        """An expression whose operators all bind at least as tightly as
        `min_prec`, by precedence climbing over `_PREC`."""
        t = self.peek()
        if t.kind == "keyword" and t.text == "not" and min_prec <= _NOT:
            self.next()
            left = Unary(op="not", operand=self.expr(_NOT), line=t.line, col=t.col)
            ceiling = _NOT - 1
        else:
            left = self.primary()
            ceiling = _TIGHTEST
        while True:
            t = self.peek()
            p = _PREC.get(t.text) if t.kind in ("operator", "keyword") else None
            # `ceiling` keeps the grammar: after an operator only operators
            # that bind no tighter may follow, and after `not`, a comparison
            # or `in`, only ones that bind strictly looser
            if p is None or t.text == "not" or not min_prec <= p <= ceiling:
                return left
            self.next()
            if t.text == "in":
                left = InSet(item=left, over=self.setexpr(), line=t.line, col=t.col)
            else:
                right = self.expr(p if t.text == "implies" else p + 1)  # implies: right assoc
                left = Binary(op=t.text, left=left, right=right, line=t.line, col=t.col)
            ceiling = p - 1 if p == _CMP else p

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "integer-literal":
            self.next()
            return Lit(value=int(t.text.lstrip("0") or "0"), line=t.line, col=t.col)
        if t.kind == "string-literal":
            self.next()
            return Lit(value=t.text, line=t.line, col=t.col)
        if self.at_kw("true"):
            self.next()
            return Lit(value=True, line=t.line, col=t.col)
        if self.at_kw("false"):
            self.next()
            return Lit(value=False, line=t.line, col=t.col)
        if t.kind == "identifier":
            self.next()
            return Name(name=t.text, line=t.line, col=t.col)
        if self.at("("):
            self.next()
            inner = self.expr()
            self.eat(")")
            return inner
        if self.at_kw("if"):
            self.next()
            cond = self.expr()
            # `then` is contextual: an identifier, not a reserved word
            th = self.peek()
            if th.kind != "identifier" or th.text != "then":
                self.fail("'then'")
            self.next()
            then = self.expr()
            self.eat_kw("else")
            return Cond(
                cond=cond, then=then, orelse=self.expr(), line=t.line, col=t.col
            )
        self.fail("expression")


def parse_spec(source: str) -> SpecModel:
    """Parse source text into a SpecModel.

    Raises ParseError at the first syntax violation, or at the token being
    read when the spec nests past Python's recursion limit.  Identifier
    resolution and kind checks are deferred to semantics.validate.
    """
    parser = _Parser(tokenize(source))
    try:
        return parser.spec()
    except RecursionError:
        t = parser.peek()
        raise ParseError("the spec nests too deeply to parse", t.line, t.col) from None


# --- pretty printer -----------------------------------------------------------


def _fmt_expr(e: Expr, ctx: int = 0) -> str:
    if isinstance(e, Lit):
        return format_value(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Unary):
        p = _NOT
        s = f"not {_fmt_expr(e.operand, p)}"
        return f"({s})" if p < ctx else s
    if isinstance(e, Binary):
        p = _PREC[e.op]
        if e.op == "implies":  # right associative
            s = f"{_fmt_expr(e.left, p + 1)} implies {_fmt_expr(e.right, p)}"
        elif p == _CMP:  # comparisons are non-associative
            s = f"{_fmt_expr(e.left, p + 1)} {e.op} {_fmt_expr(e.right, p + 1)}"
        else:  # left associative
            s = f"{_fmt_expr(e.left, p)} {e.op} {_fmt_expr(e.right, p + 1)}"
        return f"({s})" if p < ctx else s
    if isinstance(e, InSet):
        p = _CMP
        s = f"{_fmt_expr(e.item, p + 1)} in {_fmt_setexpr(e.over)}"
        return f"({s})" if p < ctx else s
    if isinstance(e, Cond):
        # parenthesised under any operator: a bare if-expression would
        # swallow the rest of the enclosing expression on reparse
        s = (
            f"if {_fmt_expr(e.cond)} then {_fmt_expr(e.then)} "
            f"else {_fmt_expr(e.orelse)}"
        )
        return f"({s})" if ctx > 0 else s
    raise TypeError(f"not an expression: {e!r}")


def _fmt_setexpr(s: SetExpr) -> str:
    if isinstance(s, SetLit):
        return "{" + ", ".join(_fmt_expr(e) for e in s.elems) + "}"
    return f"{_fmt_expr(s.lo, _ADD)}..{_fmt_expr(s.hi, _ADD)}"


def _fmt_stmts(stmts: list, indent: int, out: list):
    pad = "    " * indent
    for s in stmts:
        if isinstance(s, Assign):
            out.append(f"{pad}{s.target}' = {_fmt_expr(s.value)}")
        elif isinstance(s, AnyChoice):
            out.append(f"{pad}any {s.binder} in {_fmt_setexpr(s.over)} {{")
            _fmt_stmts(s.body, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(s, If):
            out.append(f"{pad}if {_fmt_expr(s.cond)} {{")
            _fmt_stmts(s.then, indent + 1, out)
            if s.orelse:
                out.append(f"{pad}}} else {{")
                _fmt_stmts(s.orelse, indent + 1, out)
            out.append(f"{pad}}}")
        else:
            raise TypeError(f"not a statement: {s!r}")


def _fmt_property(p: TemporalProperty) -> str:
    shape = p.shape
    if isinstance(shape, Invariant) and p.binder is None:
        return f"invariant {p.name}: {_fmt_expr(shape.pred)}"
    prefix = f"property {p.name}: "
    if p.binder is not None:
        bname, bset = p.binder
        prefix += f"forall {bname} in {_fmt_setexpr(bset)} : "
    if isinstance(shape, Invariant):
        return prefix + f"always ({_fmt_expr(shape.pred)})"
    if isinstance(shape, Eventually):
        return prefix + f"eventually ({_fmt_expr(shape.pred)})"
    if isinstance(shape, AlwaysEventually):
        return prefix + f"always eventually ({_fmt_expr(shape.pred)})"
    if isinstance(shape, LeadsTo):
        if isinstance(shape.lhs, Name) and isinstance(shape.rhs, Name):
            return prefix + f"{shape.lhs.name} leadsto {shape.rhs.name}"
        return prefix + f"({_fmt_expr(shape.lhs)}) leadsto ({_fmt_expr(shape.rhs)})"
    raise TypeError(f"not a property shape: {shape!r}")


def pretty_print(spec: SpecModel) -> str:
    """Render a SpecModel as canonical source text.

    The output reparses to a SpecModel structurally equal to the input.
    """
    out = [f"spec {spec.name}"]
    if spec.constants:
        out.append("")
        for c in spec.constants:
            out.append(f"const {c.name} : {c.kind}")
    if spec.variables:
        out.append("")
        for v in spec.variables:
            line = f"var {v.name} : {v.kind}"
            if v.domain is not None:
                line += f" domain {_fmt_setexpr(v.domain)}"
            if v.init_set is not None:
                line += f" init in {_fmt_setexpr(v.init_set)}"
            else:
                line += f" init {_fmt_expr(v.init)}"
            out.append(line)
    for a in spec.actions:
        out.append("")
        out.append(f"action {a.name} {{")
        for g in a.guards:
            out.append(f"    when {_fmt_expr(g)}")
        _fmt_stmts(a.body, 1, out)
        out.append("}")
    if spec.properties:
        out.append("")
        for p in spec.properties:
            out.append(_fmt_property(p))
    return "\n".join(out) + "\n"
