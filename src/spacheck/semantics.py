"""Static validation, constant binding, evaluation, and the next-state relation.

Expressions are compiled once per bound spec into nested closures; exploring a
state space then costs plain function calls rather than AST walks.  Evaluation
is strict except for `and`/`or`, which short-circuit.  Variables not assigned
on an executed action path keep their values (implicit frame), so an action
with guards only - no body - yields the unchanged state as its one successor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from .model import (
    INT_MAX,
    INT_MIN,
    ActionDef,
    AnyChoice,
    Assign,
    Binary,
    Cond,
    Expr,
    If,
    InSet,
    LeadsTo,
    Lit,
    Name,
    RangeSet,
    SetExpr,
    SpecModel,
    State,
    Unary,
    Value,
    value_kind,
)

# Materialized finite sets larger than this abort evaluation; anything bigger
# would exhaust memory long before the state cap triggers.
SET_LIMIT = 1 << 20


class EvalError(Exception):
    """Runtime evaluation failure (overflow, domain violation, oversized set).

    Carries the source location, the owning action/property, and optionally
    the state under evaluation; the explorer attaches the discovery trace of
    the offending state before re-raising.
    """

    def __init__(self, message: str, where: str = "", line: int = 0, col: int = 0,
                 state: Optional[State] = None):
        super().__init__(message)
        self.message = message
        self.where = where
        self.line = line
        self.col = col
        self.state = state
        self.trace = None

    def __str__(self) -> str:
        loc = f"{self.where} at {self.line}:{self.col}" if self.where else f"{self.line}:{self.col}"
        return f"{loc}: {self.message}"


class BindError(Exception):
    """Constant binding failure: unknown name, missing value, or wrong kind."""


@dataclass
class StaticError:
    message: str
    where: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.where} at {self.line}:{self.col}: {self.message}"


@dataclass
class BoundSpec:
    """A spec together with one value per declared constant."""

    spec: SpecModel
    constants: dict  # name -> Value
    var_index: dict = field(init=False, compare=False, repr=False)
    _actions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.var_index = {v.name: i for i, v in enumerate(self.spec.variables)}


@dataclass
class Env:
    """Evaluation context: the current state plus any choice/quantifier
    binder values in scope."""

    current: Optional[State]
    binders: dict
    bound: BoundSpec

    @property
    def constants(self) -> dict:
        return self.bound.constants


def bind_constants(spec: SpecModel, assignments: dict) -> BoundSpec:
    """Attach a value to every declared constant.

    Raises BindError listing every unbound constant, unknown name, or
    kind mismatch.
    """
    declared = {c.name: c.kind for c in spec.constants}
    problems = []
    for name, value in assignments.items():
        if name not in declared:
            problems.append(f"unknown constant {name}")
        elif value_kind(value) != declared[name]:
            problems.append(
                f"constant {name} expects {declared[name]}, got {value_kind(value)}"
            )
    for name in declared:
        if name not in assignments:
            problems.append(f"constant {name} unbound")
    if problems:
        raise BindError("; ".join(problems))
    return BoundSpec(spec=spec, constants=dict(assignments))


# --- static validation ---------------------------------------------------------


class _Checker:
    """Collects every static error instead of stopping at the first."""

    def __init__(self, bound: BoundSpec):
        self.bound = bound
        self.spec = bound.spec
        self.errors: list = []
        self.const_kinds = {c.name: c.kind for c in self.spec.constants}
        self.var_kinds = {v.name: v.kind for v in self.spec.variables}

    def err(self, message: str, where: str, node) -> None:
        self.errors.append(StaticError(message, where, node.line, node.col))

    # scope: name -> kind for everything visible; allow_vars toggles contexts
    # restricted to constants (+ binders), such as init and binder sets.
    def kind_of(self, e: Expr, where: str, scope: dict, allow_vars: bool) -> Optional[str]:
        if isinstance(e, Lit):
            return value_kind(e.value)
        if isinstance(e, Name):
            if e.name in scope:
                if not allow_vars and e.name in self.var_kinds:
                    self.err(
                        f"{e.name} is a variable; only constants"
                        " and binders may appear here", where, e,
                    )
                    return None
                return scope[e.name]
            self.err(f"unresolved identifier {e.name}", where, e)
            return None
        if isinstance(e, Unary):
            k = self.kind_of(e.operand, where, scope, allow_vars)
            if k is not None and k != "bool":
                self.err(f"'not' needs a bool operand, got {k}", where, e)
            return "bool"
        if isinstance(e, Binary):
            lk = self.kind_of(e.left, where, scope, allow_vars)
            rk = self.kind_of(e.right, where, scope, allow_vars)
            if e.op in ("and", "or", "implies"):
                for k, side in ((lk, e.left), (rk, e.right)):
                    if k is not None and k != "bool":
                        self.err(f"'{e.op}' needs bool operands, got {k}", where, side)
                return "bool"
            if e.op in ("=", "/="):
                if lk is not None and rk is not None and lk != rk:
                    self.err(
                        f"'{e.op}' compares {lk} with {rk}; operands must have"
                        " the same kind", where, e,
                    )
                return "bool"
            if e.op in ("<", "<=", ">", ">="):
                for k, side in ((lk, e.left), (rk, e.right)):
                    if k is not None and k != "int":
                        self.err(f"ordering '{e.op}' needs int operands, got {k}", where, side)
                return "bool"
            # + - *
            for k, side in ((lk, e.left), (rk, e.right)):
                if k is not None and k != "int":
                    self.err(f"arithmetic '{e.op}' needs int operands, got {k}", where, side)
            return "int"
        if isinstance(e, InSet):
            ik = self.kind_of(e.item, where, scope, allow_vars)
            sk = self.set_kind(e.over, where, scope, allow_vars)
            if ik is not None and sk is not None and ik != sk:
                self.err(f"'in' tests a {ik} against a set of {sk}", where, e)
            return "bool"
        if isinstance(e, Cond):
            ck = self.kind_of(e.cond, where, scope, allow_vars)
            if ck is not None and ck != "bool":
                self.err(f"if-condition must be bool, got {ck}", where, e.cond)
            tk = self.kind_of(e.then, where, scope, allow_vars)
            ek = self.kind_of(e.orelse, where, scope, allow_vars)
            if tk is not None and ek is not None and tk != ek:
                self.err(f"if-branches disagree: then is {tk}, else is {ek}", where, e)
                return None
            return tk if tk is not None else ek
        raise TypeError(f"not an expression: {e!r}")

    def set_kind(self, s: SetExpr, where: str, scope: dict, allow_vars: bool) -> Optional[str]:
        if isinstance(s, RangeSet):
            for side in (s.lo, s.hi):
                k = self.kind_of(side, where, scope, allow_vars)
                if k is not None and k != "int":
                    self.err(f"range bound must be int, got {k}", where, side)
            return "int"
        kinds = [self.kind_of(e, where, scope, allow_vars) for e in s.elems]
        known = [k for k in kinds if k is not None]
        if known and any(k != known[0] for k in known):
            self.err("set literal mixes value kinds", where, s)
            return None
        return known[0] if known else None

    def expect_bool(self, e: Expr, where: str, scope: dict, allow_vars: bool, what: str):
        k = self.kind_of(e, where, scope, allow_vars)
        if k is not None and k != "bool":
            self.err(f"{what} must be bool, got {k}", where, e)

    def check_binder_name(self, name: str, where: str, node, enclosing: dict):
        if name in self.const_kinds or name in self.var_kinds or name in enclosing:
            self.err(f"binder {name} shadows an existing name", where, node)

    def run(self) -> list:
        spec = self.spec
        if not spec.variables:
            self.err("a spec needs at least one variable", f"spec {spec.name}", spec)
        if not spec.actions:
            self.err("a spec needs at least one action", f"spec {spec.name}", spec)
        seen = {}
        for d in itertools.chain(spec.constants, spec.variables):
            if d.name in seen:
                self.err(f"duplicate declaration of {d.name}", f"declaration {d.name}", d)
            seen[d.name] = True

        base = dict(self.const_kinds)
        base.update(self.var_kinds)

        for v in spec.variables:
            where = f"var {v.name}"
            if v.domain is not None:
                dk = self.set_kind(v.domain, where, base, allow_vars=False)
                if dk is not None and dk != v.kind:
                    self.err(f"domain of {v.name} has kind {dk}, expected {v.kind}", where, v.domain)
            if v.init is not None:
                ik = self.kind_of(v.init, where, base, allow_vars=False)
                if ik is not None and ik != v.kind:
                    self.err(f"init of {v.name} has kind {ik}, expected {v.kind}", where, v.init)
            else:
                ik = self.set_kind(v.init_set, where, base, allow_vars=False)
                if ik is not None and ik != v.kind:
                    self.err(f"init set of {v.name} has kind {ik}, expected {v.kind}", where, v.init_set)

        action_names = {}
        for a in spec.actions:
            where = f"action {a.name}"
            if a.name in action_names:
                self.err(f"duplicate action name {a.name}", where, a)
            action_names[a.name] = True
            for g in a.guards:
                self.expect_bool(g, where, base, True, "guard")
            self.check_stmts(a.body, where, base, {})
            self.check_single_assignment(a)

        prop_names = {}
        for p in spec.properties:
            where = f"property {p.name}"
            if p.name in prop_names:
                self.err(f"duplicate property name {p.name}", where, p)
            prop_names[p.name] = True
            scope = dict(base)
            if p.binder is not None:
                bname, bset = p.binder
                self.check_binder_name(bname, where, p, {})
                bk = self.set_kind(bset, where, base, allow_vars=False)
                if bk is not None:
                    scope[bname] = bk
            shape = p.shape
            if isinstance(shape, LeadsTo):
                self.expect_bool(shape.lhs, where, scope, True, "leadsto left side")
                self.expect_bool(shape.rhs, where, scope, True, "leadsto right side")
            else:
                self.expect_bool(shape.pred, where, scope, True, "property predicate")
        return self.errors

    def check_stmts(self, stmts: list, where: str, scope: dict, binders: dict):
        for s in stmts:
            if isinstance(s, Assign):
                if s.target not in self.var_kinds:
                    if s.target in self.const_kinds or s.target in binders:
                        self.err(f"cannot assign to non-variable {s.target}", where, s)
                    else:
                        self.err(f"assignment to undeclared variable {s.target}", where, s)
                    self.kind_of(s.value, where, scope, allow_vars=True)
                    continue
                vk = self.kind_of(s.value, where, scope, allow_vars=True)
                want = self.var_kinds[s.target]
                if vk is not None and vk != want:
                    self.err(f"{s.target}' is {want} but the value is {vk}", where, s.value)
            elif isinstance(s, If):
                self.expect_bool(s.cond, where, scope, True, "if-condition")
                self.check_stmts(s.then, where, scope, binders)
                self.check_stmts(s.orelse, where, scope, binders)
            elif isinstance(s, AnyChoice):
                self.check_binder_name(s.binder, where, s, binders)
                bk = self.set_kind(s.over, where, scope, allow_vars=False)
                inner_scope = dict(scope)
                inner_binders = dict(binders)
                if bk is not None:
                    inner_scope[s.binder] = bk
                inner_binders[s.binder] = True
                self.check_stmts(s.body, where, inner_scope, inner_binders)
            else:
                raise TypeError(f"not a statement: {s!r}")

    def check_single_assignment(self, action: ActionDef):
        """Reject a primed variable assigned twice along any execution path."""
        where = f"action {action.name}"

        def walk(stmts: list, paths: list) -> list:
            for s in stmts:
                if isinstance(s, Assign):
                    for assigned in paths:
                        if s.target in assigned:
                            self.err(
                                f"{s.target}' assigned more than once on one path",
                                where, s,
                            )
                            break
                    paths = [p | {s.target} for p in paths]
                elif isinstance(s, If):
                    taken = walk(s.then, [set(p) for p in paths])
                    skipped = walk(s.orelse, [set(p) for p in paths])
                    merged = []
                    for p in taken + skipped:
                        if p not in merged:
                            merged.append(p)
                    paths = merged
                elif isinstance(s, AnyChoice):
                    paths = walk(s.body, paths)
            return paths

        walk(action.body, [set()])


def validate(bound: BoundSpec) -> list:
    """Run every static check; returns all violations (empty list when clean).

    Checks: identifier resolution, kind consistency (mixed-kind `=` is an
    error), assignment targets, at most one primed assignment per variable
    per path, binder shadowing, and constants-only contexts (init, domain,
    `any`/`forall` sets).
    """
    return _Checker(bound).run()


# --- compilation to closures -----------------------------------------------------

# A compiled expression is fn(state, binders) -> Value.


def _arith(op: str, lf, rf, where: str, node):
    line, col = node.line, node.col
    if op == "+":
        def add(s, b):
            v = lf(s, b) + rf(s, b)
            if v < INT_MIN or v > INT_MAX:
                raise EvalError("integer overflow", where, line, col, s)
            return v
        return add
    if op == "-":
        def sub(s, b):
            v = lf(s, b) - rf(s, b)
            if v < INT_MIN or v > INT_MAX:
                raise EvalError("integer overflow", where, line, col, s)
            return v
        return sub
    def mul(s, b):
        v = lf(s, b) * rf(s, b)
        if v < INT_MIN or v > INT_MAX:
            raise EvalError("integer overflow", where, line, col, s)
        return v
    return mul


def _member(item, elems):
    def member(s, b):
        v = item(s, b)
        return any(v == f(s, b) for f in elems)
    return member


# Each entry builds one closure from compiled operands: "not"(f), "and"/"or"/
# "implies"(lf, rf), "if"(cond, then, orelse), "range"(item, lo, hi) for
# `item in lo..hi`, "member"(item, elems) for a set literal, and
# "+"/"-"/"*"(lf, rf, where, node).
_SCALAR_OPS = {
    "not": lambda f: lambda s, b: not f(s, b),
    "and": lambda lf, rf: lambda s, b: lf(s, b) and rf(s, b),
    "or": lambda lf, rf: lambda s, b: lf(s, b) or rf(s, b),
    "implies": lambda lf, rf: lambda s, b: (not lf(s, b)) or rf(s, b),
    "if": lambda cf, tf, ff: lambda s, b: tf(s, b) if cf(s, b) else ff(s, b),
    "range": lambda item, lo, hi: lambda s, b: lo(s, b) <= item(s, b) <= hi(s, b),
    "member": _member,
    "+": partial(_arith, "+"),
    "-": partial(_arith, "-"),
    "*": partial(_arith, "*"),
}


def _compile_expr(e: Expr, bound: BoundSpec, where: str, ops: dict = _SCALAR_OPS) -> Callable:
    """The one walk over expressions.  Literals, names and comparisons mean
    the same for one state tuple and for a list of state columns; `ops`
    supplies the rest (`liveness` has the column table)."""
    def sub(x: Expr) -> Callable:
        return _compile_expr(x, bound, where, ops)

    if isinstance(e, Lit):
        v = e.value
        return lambda s, b: v
    if isinstance(e, Name):
        if e.name in bound.var_index:
            i = bound.var_index[e.name]
            return lambda s, b: s[i]
        if e.name in bound.constants:
            v = bound.constants[e.name]
            return lambda s, b: v
        name = e.name
        line, col = e.line, e.col

        def lookup(s, b):
            try:
                return b[name]
            except KeyError:
                raise EvalError(f"unresolved identifier {name}", where, line, col, s) from None
        return lookup
    if isinstance(e, Unary):
        return ops["not"](sub(e.operand))
    if isinstance(e, Binary):
        lf, rf = sub(e.left), sub(e.right)
        op = e.op
        if op in ("and", "or", "implies"):
            return ops[op](lf, rf)
        if op == "=":
            return lambda s, b: lf(s, b) == rf(s, b)
        if op == "/=":
            return lambda s, b: lf(s, b) != rf(s, b)
        if op == "<":
            return lambda s, b: lf(s, b) < rf(s, b)
        if op == "<=":
            return lambda s, b: lf(s, b) <= rf(s, b)
        if op == ">":
            return lambda s, b: lf(s, b) > rf(s, b)
        if op == ">=":
            return lambda s, b: lf(s, b) >= rf(s, b)
        return ops[op](lf, rf, where, e)
    if isinstance(e, InSet):
        item = sub(e.item)
        if isinstance(e.over, RangeSet):
            return ops["range"](item, sub(e.over.lo), sub(e.over.hi))
        return ops["member"](item, [sub(el) for el in e.over.elems])
    if isinstance(e, Cond):
        return ops["if"](sub(e.cond), sub(e.then), sub(e.orelse))
    raise TypeError(f"not an expression: {e!r}")


def _compile_set(se: SetExpr, bound: BoundSpec, where: str) -> Callable:
    """Compiled set expression: fn(state, binders) -> ordered distinct values."""
    if isinstance(se, RangeSet):
        lo = _compile_expr(se.lo, bound, where)
        hi = _compile_expr(se.hi, bound, where)
        line, col = se.line, se.col

        def range_values(s, b):
            a, z = lo(s, b), hi(s, b)
            if z - a + 1 > SET_LIMIT:
                raise EvalError(
                    f"range {a}..{z} exceeds the {SET_LIMIT}-element set limit",
                    where, line, col, s,
                )
            return list(range(a, z + 1))
        return range_values
    elems = [_compile_expr(el, bound, where) for el in se.elems]

    def literal_values(s, b):
        out = []
        for f in elems:
            v = f(s, b)
            if v not in out:
                out.append(v)
        return out
    return literal_values


def eval_expr(expr: Expr, env: Env) -> Value:
    """Evaluate a validated expression in the given environment."""
    return _compile_expr(expr, env.bound, "<expr>")(env.current, env.binders)


def eval_set(setexpr: SetExpr, env: Env) -> list:
    """Evaluate a finite set expression to its ordered distinct members.

    `a..b` yields a, a+1, ..., b (empty when a > b); a literal keeps written
    order, first occurrence wins.
    """
    return _compile_set(setexpr, env.bound, "<set>")(env.current, env.binders)


def eval_const_set(setexpr: SetExpr, bound: BoundSpec, where: str) -> list:
    """Evaluate a constants-only set expression (binder sets, domains)."""
    return _compile_set(setexpr, bound, where)(None, {})


# --- action compilation ------------------------------------------------------


class _CompiledAction:
    """Guards plus a body runner that appends one successor per executed path
    and choice combination to a result list."""

    __slots__ = ("name", "guards", "run")

    def __init__(self, bound: BoundSpec, action: ActionDef):
        self.name = action.name
        where = f"action {action.name}"
        self.guards = [_compile_expr(g, bound, where) for g in action.guards]

        spec = bound.spec
        nvars = len(spec.variables)
        domains = {}
        for i, v in enumerate(spec.variables):
            if v.domain is not None:
                domains[i] = frozenset(eval_const_set(v.domain, bound, f"var {v.name}"))
        var_names = [v.name for v in spec.variables]

        def emit(s, b, w, out):
            out.append(tuple(w.get(i, s[i]) for i in range(nvars)))

        def compile_stmts(stmts: list, k: Callable) -> Callable:
            for st in reversed(stmts):
                k = compile_stmt(st, k)
            return k

        def compile_stmt(st, k: Callable) -> Callable:
            if isinstance(st, Assign):
                i = bound.var_index[st.target]
                f = _compile_expr(st.value, bound, where)
                dom = domains.get(i)
                line, col = st.line, st.col
                if dom is None:
                    def assign(s, b, w, out):
                        w2 = dict(w)
                        w2[i] = f(s, b)
                        k(s, b, w2, out)
                    return assign

                def assign_checked(s, b, w, out):
                    v = f(s, b)
                    if v not in dom:
                        raise EvalError(
                            f"value {v!r} assigned to {var_names[i]} is outside its domain",
                            where, line, col, s,
                        )
                    w2 = dict(w)
                    w2[i] = v
                    k(s, b, w2, out)
                return assign_checked
            if isinstance(st, If):
                cf = _compile_expr(st.cond, bound, where)
                tk = compile_stmts(st.then, k)
                ek = compile_stmts(st.orelse, k)
                def branch(s, b, w, out):
                    if cf(s, b):
                        tk(s, b, w, out)
                    else:
                        ek(s, b, w, out)
                return branch
            if isinstance(st, AnyChoice):
                sf = _compile_set(st.over, bound, where)
                bk = compile_stmts(st.body, k)
                binder = st.binder
                def choose(s, b, w, out):
                    for v in sf(s, b):
                        b2 = dict(b)
                        b2[binder] = v
                        bk(s, b2, w, out)
                return choose
            raise TypeError(f"not a statement: {st!r}")

        self.run = compile_stmts(action.body, emit)

    def enabled(self, state: State) -> bool:
        return all(g(state, {}) for g in self.guards)

    def successors(self, state: State) -> list:
        if not self.enabled(state):
            return []
        out: list = []
        self.run(state, {}, {}, out)
        return list(dict.fromkeys(out))


def _compiled_action(bound: BoundSpec, action: ActionDef) -> _CompiledAction:
    ca = bound._actions.get(action.name)
    if ca is None:
        ca = _CompiledAction(bound, action)
        bound._actions[action.name] = ca
    return ca


# --- initial states and successors ---------------------------------------------


def initial_states(bound: BoundSpec) -> list:
    """Enumerate the Cartesian product of every variable's init clause, in
    lexicographic declaration order.  Values are checked against declared
    domains; a violation is an EvalError."""
    per_var = []
    for v in bound.spec.variables:
        where = f"var {v.name}"
        if v.init is not None:
            values = [_compile_expr(v.init, bound, where)(None, {})]
        else:
            values = eval_const_set(v.init_set, bound, where)
        if v.domain is not None:
            dom = frozenset(eval_const_set(v.domain, bound, where))
            for val in values:
                if val not in dom:
                    raise EvalError(
                        f"initial value {val!r} of {v.name} is outside its domain",
                        where, v.line, v.col,
                    )
        per_var.append(values)
    return [tuple(combo) for combo in itertools.product(*per_var)]


def action_successors(state: State, action: ActionDef, bound: BoundSpec) -> list:
    """Successor states of one action: empty when a guard is false, otherwise
    one state per executed path and `any` choice, in enumeration order, with
    duplicates merged."""
    return _compiled_action(bound, action).successors(state)


def successors(state: State, bound: BoundSpec) -> list:
    """All labeled transitions from a state: (action name, successor) pairs,
    actions in declaration order.  The pairs are distinct: each action's
    successors are deduplicated, and `validate` makes action names unique."""
    out = []
    for action in bound.spec.actions:
        ca = _compiled_action(bound, action)
        for t in ca.successors(state):
            out.append((ca.name, t))
    return out
