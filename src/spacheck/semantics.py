"""Static validation, constant binding, evaluation, and the next-state relation.

Expressions compile to Python source text from source templates, and each
action to generated straight-line Python with its guards, assignments,
conditions and `any` sets inline (`_action_source`), around lines the
caller gives for each successor: one function per action for
`successors`, and the explore loop that `explorer.py` builds around every
action's code.  Exploring a state space then runs straight-line Python
rather than AST walks or calls per operator.  A spec whose states pack into
an int key also compiles to one numpy function per action over a whole
column of keys, which `explore` runs on wide BFS levels (see
`_column_plan`).
Evaluation skips what cannot change a result: `and`, `or` and `implies`
skip their right operand, `if` evaluates one branch, `x in lo..hi` skips
`hi` when `x` is below `lo`, and `x in {a, b}` stops at the first member
equal to `x`.  Variables not assigned on an executed action path keep
their values (implicit frame), so an action with guards only - no body -
yields the unchanged state as its one successor.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

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
    value_kind,
)

# Materialized finite sets larger than this abort evaluation; anything bigger
# would exhaust memory long before the state cap triggers.
SET_LIMIT = 1 << 20


class EvalError(Exception):
    """Runtime evaluation failure (overflow, domain violation, oversized set).

    Carries the source location and the owning action/property as `where`;
    the explorer attaches the discovery trace of the offending state as
    `trace` before re-raising, and `StateGraph.holds` the predicate's values
    in the states before it as `held`.
    """

    def __init__(self, message: str, where: str = "", line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.where = where
        self.line = line
        self.col = col
        self.trace = None
        self.held = None

    def __str__(self) -> str:
        loc = f"{self.where} at {self.line}:{self.col}" if self.where else f"{self.line}:{self.col}"
        return f"{loc}: {self.message}"


_TOO_DEEP = "the spec nests too deeply to check"


def _within_depth(node, where: str, make: Callable):
    """`make()`, or a located EvalError at `node` when it recurses past
    Python's limit: validating, compiling and evaluating recurse once per
    level of nested blocks or operators."""
    try:
        return make()
    except RecursionError:
        raise EvalError(_TOO_DEEP, where, node.line, node.col) from None


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
    # Generated code, made on first use: successor code, predicate
    # functions, domains and init sets.
    _generated: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.var_index = {v.name: i for i, v in enumerate(self.spec.variables)}


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

    @contextlib.contextmanager
    def within_depth(self, where: str, node):
        """Report a declaration that nests past Python's recursion limit as
        a static error at `node`."""
        try:
            yield
        except RecursionError:
            self.err(_TOO_DEEP, where, node)

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
            with self.within_depth(where, v):
                self.check_variable(v, where, base)

        action_names = {}
        for a in spec.actions:
            where = f"action {a.name}"
            if a.name in action_names:
                self.err(f"duplicate action name {a.name}", where, a)
            action_names[a.name] = True
            with self.within_depth(where, a):
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
            with self.within_depth(where, p):
                self.check_property(p, where, base)
        return self.errors

    def check_variable(self, v, where: str, base: dict):
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

    def check_property(self, p, where: str, base: dict):
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
        """Reject a primed variable assigned twice along any execution path.

        Conditions are not evaluated, so every combination of branches is a
        path: an assignment repeats one on some path exactly when some
        statement before it on its own path may assign the same variable."""
        where = f"action {action.name}"

        def walk(stmts: list, before: frozenset) -> frozenset:
            for s in stmts:
                if isinstance(s, Assign):
                    if s.target in before:
                        self.err(f"{s.target}' assigned more than once on one path", where, s)
                    before = before | {s.target}
                elif isinstance(s, If):
                    before = walk(s.then, before) | walk(s.orelse, before)
                elif isinstance(s, AnyChoice):
                    before = walk(s.body, before)
            return before

        walk(action.body, frozenset())


def validate(bound: BoundSpec) -> list:
    """Run every static check; returns all violations (empty list when clean).

    Checks: identifier resolution, kind consistency (mixed-kind `=` is an
    error), assignment targets, at most one primed assignment per variable
    per path, binder shadowing, and constants-only contexts (init, domain,
    `any`/`forall` sets).  A declaration nested past Python's recursion
    limit is an error at that variable, action or property.
    """
    return _Checker(bound).run()


# --- compilation to Python source -------------------------------------------------

# An expression compiles to Python source text over a state `s` and its
# binders: a variable is `s[3]`, a binder a parameter or local variable (or
# in column code its value's repr), a literal or constant its repr, and
# operators come from a table of source templates.  `_SCALAR_OPS` is the
# table for one state tuple, `_COLUMN_OPS` the table for state columns, where
# `s[3]` is a whole column: predicates over a graph (`StateGraph.holds`)
# and the level-synchronous explore use it.  Generated functions then run
# that text.

_VARIES = object()  # the value of an expression that depends on the state

# An operand whose source nests this deep moves into a helper function of its
# own: CPython's parser gives up at a few hundred nested parentheses, and a
# level of arithmetic adds two.
_MAX_EXPR_DEPTH = 12

_COMPARE = {"=": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _overflow(where: str, line: int, col: int) -> Callable:
    def overflow():
        raise EvalError("integer overflow", where, line, col)
    return overflow


def _unresolved(name: str, where: str, line: int, col: int) -> Callable:
    def unresolved():
        raise EvalError(f"unresolved identifier {name}", where, line, col)
    return unresolved


def _range_values(where: str, line: int, col: int) -> Callable:
    def range_values(a, z):
        if z - a + 1 > SET_LIMIT:
            raise EvalError(
                f"range {a}..{z} exceeds the {SET_LIMIT}-element set limit", where, line, col
            )
        return range(a, z + 1)
    return range_values


def _checked(op: str) -> str:
    return "({t} if %d <= ({t} := {0} %s {1}) <= %d else {f}())" % (INT_MIN, op, INT_MAX)


# Templates over operand sources {0}, {1}, ... and a fresh local {t}.  Set
# membership is (template, separator between the members); arithmetic is
# (template, factory(where, line, col) of the function named {f}).  Names a
# table's templates use come from its "globals".
_SCALAR_OPS = {
    "globals": {},
    "not": "(not {0})",
    "and": "({0} and {1})",
    "or": "({0} or {1})",
    "implies": "(not {0} or {1})",
    "if": "({1} if {0} else {2})",
    "range": "({1} <= {0} <= {2})",  # item in lo..hi
    "member": ("(({t} := {0}) == {1})", " or {t} == "),
    "+": (_checked("+"), _overflow),
    "-": (_checked("-"), _overflow),
    "*": (_checked("*"), _overflow),
}


def _extremes(v) -> tuple:
    if isinstance(v, np.ndarray):
        return (int(v.min()), int(v.max())) if v.size else ()
    return (int(v),)


def _column_arith(fn: Callable) -> Callable:
    """Factory, for the column table, of the function that applies `+`,
    `-` or `*` to two operands.  Each is monotone in each operand (`*` is
    bilinear), so its exact results at the corners of the operands' ranges
    bound every element's; when a corner leaves 64 bits it raises EvalError
    instead of wrapping around."""
    def make(where: str, line: int, col: int) -> Callable:
        def arith(left, right):
            corners = [fn(x, y) for x in _extremes(left) for y in _extremes(right)]
            if any(not INT_MIN <= v <= INT_MAX for v in corners):
                raise EvalError("integer overflow", where, line, col)
            return fn(left, right)
        return arith
    return make


def _column_member(item, *elems):
    acc = item == elems[0]
    for v in elems[1:]:
        acc = np.logical_or(acc, item == v)
    return acc


# The table for columns: `s[i]` is variable i in many states at once, as a
# numpy column, and the result is a column, or a scalar when it does not
# depend on the state.  Both sides of and/or/implies/if are evaluated on
# every state.
_COLUMN_OPS = {
    "globals": {"np": np, "column_member": _column_member},
    "not": "np.logical_not({0})",
    "and": "np.logical_and({0}, {1})",
    "or": "np.logical_or({0}, {1})",
    "implies": "np.logical_or(np.logical_not({0}), {1})",
    "if": "np.where({0}, {1}, {2})",
    "range": "np.logical_and({1} <= ({t} := {0}), {t} <= {2})",
    "member": ("column_member({0}, {1})", ", "),
    "+": ("{f}({0}, {1})", _column_arith(operator.add)),
    "-": ("{f}({0}, {1})", _column_arith(operator.sub)),
    "*": ("{f}({0}, {1})", _column_arith(operator.mul)),
}


class _Module:
    """Generated source under construction: the helper functions it defines,
    and the namespace its other names refer to.  With `state`, its functions
    take a state `s`, which its helpers are passed too."""

    def __init__(self, ns: Optional[dict] = None, state: bool = True):
        self.ns = dict(ns or {})
        self.state = state
        self.defs: list = []
        self.count = itertools.count()

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self.count)}"

    def bind(self, prefix: str, value) -> str:
        name = self.fresh(prefix)
        self.ns[name] = value
        return name

    def source(self, main: str) -> str:
        return "".join(self.defs) + main

    def run(self, main: str, filename: str) -> dict:
        ns = dict(self.ns)
        exec(compile(self.source(main), filename, "exec"), ns)
        return ns


def _literal(v) -> tuple:
    text = repr(v)
    return (f"({text})" if text.startswith("-") else text), v, 0


def _binder_args(b: dict) -> str:
    """The parameters through which a helper function sees the binders `b`
    whose values vary (see `_source`)."""
    return ", ".join(src for src, value in b.values() if value is _VARIES)


def _source(e: Expr, bound: BoundSpec, where: str, mod: _Module, b, ops: dict) -> tuple:
    """The one walk over expressions: (source, value, height).  `source`
    evaluates `e` over state `s` and the binders `b` with the operator table
    `ops`; the names it needs are added to `mod`.  `b` maps each binder in
    scope to (source, value): the parameter or local variable that holds it
    with _VARIES, or, where its value is known, that value's literal and the
    value.  `value` is the constant `e` folds to, or _VARIES: literals and
    constants are their value, and arithmetic on two constants folds unless
    it overflows.  `height` is the nesting of the source; an operand as high
    as _MAX_EXPR_DEPTH moves into a helper function `x<n>(s, <binders>)`,
    which takes no `s` in a module whose functions take no state."""
    def sub(x: Expr) -> tuple:
        src, value, height = _source(x, bound, where, mod, b, ops)
        if height < _MAX_EXPR_DEPTH:
            return src, value, height
        name = mod.fresh("x")
        params = _binder_args(b)
        if mod.state:
            params = f"s, {params}" if params else "s"
        mod.defs.append(f"def {name}({params}):\n    return {src}\n")
        return f"{name}({params})", value, 1

    def made(src: str, *operands) -> tuple:
        return src, _VARIES, 1 + max(h for _, _, h in operands)

    if isinstance(e, Lit):
        return _literal(e.value)
    if isinstance(e, Name):
        if e.name in bound.var_index:
            return f"s[{bound.var_index[e.name]}]", _VARIES, 0
        if e.name in bound.constants:
            return _literal(bound.constants[e.name])
        if e.name in b:
            return (*b[e.name], 0)
        err = mod.bind("U", _unresolved(e.name, where, e.line, e.col))
        return f"{err}()", _VARIES, 1
    if isinstance(e, Unary):
        x = sub(e.operand)
        return made(ops["not"].format(x[0]), x)
    if isinstance(e, Binary):
        left, right = sub(e.left), sub(e.right)
        if e.op in ("and", "or", "implies"):
            return made(ops[e.op].format(left[0], right[0]), left, right)
        if e.op in _COMPARE:
            return made(f"({left[0]} {_COMPARE[e.op]} {right[0]})", left, right)
        if left[1] is not _VARIES and right[1] is not _VARIES:
            v = _ARITH[e.op](left[1], right[1])
            if INT_MIN <= v <= INT_MAX:
                return _literal(v)
        template, factory = ops[e.op]
        f = mod.bind("O", factory(where, e.line, e.col))
        return made(template.format(left[0], right[0], t=mod.fresh("t"), f=f), left, right)
    if isinstance(e, InSet):
        item = sub(e.item)
        t = mod.fresh("t")
        if isinstance(e.over, RangeSet):
            lo, hi = sub(e.over.lo), sub(e.over.hi)
            return made(ops["range"].format(item[0], lo[0], hi[0], t=t), item, lo, hi)
        elems = [sub(el) for el in e.over.elems]
        template, sep = ops["member"]
        src = template.format(item[0], sep.format(t=t).join(x for x, _, _ in elems), t=t)
        return made(src, item, *elems)
    if isinstance(e, Cond):
        cond, then, orelse = sub(e.cond), sub(e.then), sub(e.orelse)
        return made(ops["if"].format(cond[0], then[0], orelse[0]), cond, then, orelse)
    raise TypeError(f"not an expression: {e!r}")


def _compile_set(se: SetExpr, bound: BoundSpec, where: str, mod: _Module, b: dict) -> str:
    """Python source for the ordered distinct members of a set expression,
    as an iterable; a literal set of constants is folded to a tuple."""
    if isinstance(se, RangeSet):
        lo, hi = (_source(x, bound, where, mod, b, _SCALAR_OPS)[0] for x in (se.lo, se.hi))
        check = mod.bind("R", _range_values(where, se.line, se.col))
        return f"{check}({lo}, {hi})"
    elems = [_source(x, bound, where, mod, b, _SCALAR_OPS) for x in se.elems]
    values = [v for _, v, _ in elems]
    if _VARIES not in values:
        return "(" + "".join(_literal(v)[0] + ", " for v in dict.fromkeys(values)) + ")"
    return "dict.fromkeys((" + "".join(x + ", " for x, _, _ in elems) + "))"


def _generated(store: dict, e, key: tuple, make: Callable):
    """`make()`, run once per expression object `e` and `key` while `store`
    holds it.  An entry keeps `e` alive, so its id() cannot pass to another
    object."""
    key = (id(e),) + key
    hit = store.get(key)
    if hit is None:
        hit = store[key] = (e, make())
    return hit[1]


def _make_expr_function(e: Expr, bound: BoundSpec, where: str, ops: dict = _SCALAR_OPS,
                        names: tuple = ()) -> Callable:
    """fn(s, *values) -> the value of `e` over state `s` with the binders
    `names` at `values`.  Each binder is a parameter with a fresh name, so
    no binder can hide a name of the generated code."""
    mod = _Module(ops["globals"])
    b = {name: (mod.fresh("v"), _VARIES) for name in names}
    src = _source(e, bound, where, mod, b, ops)[0]
    params = "".join(", " + p for p, _ in b.values())
    return mod.run(f"def f(s{params}):\n    return {src}\n", f"<{where}>")["f"]


def _expr_function(e: Expr, bound: BoundSpec, where: str, ops: dict = _SCALAR_OPS,
                   names: tuple = ()) -> Callable:
    """`_make_expr_function`, generated once per bound spec."""
    return _generated(bound._generated, e, (where, id(ops), names),
                      partial(_within_depth, e, where,
                              partial(_make_expr_function, e, bound, where, ops, names)))


def _make_set_function(se: SetExpr, bound: BoundSpec, where: str, b: dict) -> Callable:
    """fn() -> the ordered distinct members of `se`, with the binders `b`
    at their known values, as a list.  No set code reads a state, so its
    module's functions take none."""
    mod = _Module(state=False)
    src = _compile_set(se, bound, where, mod, b)
    return mod.run(f"def f():\n    return list({src})\n", f"<{where}>")["f"]


def eval_const_set(setexpr: SetExpr, bound: BoundSpec, where: str) -> list:
    """Evaluate a constants-only set expression (binder sets, domains) to
    its ordered distinct members: `a..b` yields a, a+1, ..., b (empty when
    a > b); a literal keeps written order, first occurrence wins."""
    fn = _generated(bound._generated, setexpr, (where, "set"),
                    partial(_within_depth, setexpr, where,
                            partial(_make_set_function, setexpr, bound, where, {})))
    return fn()


def _domain(bound: BoundSpec, v) -> Optional[frozenset]:
    """The members of variable `v`'s declared domain, evaluated once per
    bound spec, or None for a variable without one."""
    if v.domain is None:
        return None
    return _generated(bound._generated, v.domain, ("domain",), lambda: frozenset(
        eval_const_set(v.domain, bound, f"var {v.name}")))


# --- action compilation ------------------------------------------------------

# Action code nests no deeper than this many indentation levels or `for`
# loops in one generated function; the statements below that depth move into
# a helper.  CPython rejects about 100 levels and 20 nested blocks.
_MAX_INDENT = 40
_MAX_LOOPS = 10

# Action code runs at most this many helper calls deep; an action whose code
# could go deeper is an error when it is generated.  Python stops at 1,000
# frames by default, and the caller's frames count too: bisecting the longest
# run of `if`s with an `any` inside that explores (each one helper deeper),
# a plain script ran the action code 6 frames deep, `spacheck check` 12 and
# a pytest test about 50 (Python 3.11).  The rest is left for the calls an
# expression makes.
_MAX_CALLS = 900


def _contains_any(stmts: list) -> bool:
    for st in stmts:
        if isinstance(st, AnyChoice):
            return True
        if isinstance(st, If) and (_contains_any(st.then) or _contains_any(st.orelse)):
            return True
    return False


def _assigned(stmts: list, var_index: dict) -> tuple:
    """(may, must): the slots assigned anywhere in `stmts`, and those
    assigned on every path through it that reaches its end.  An `any`
    restores each slot its body may assign, so it assigns them all."""
    may, must = set(), set()
    for st in stmts:
        if isinstance(st, Assign):
            may.add(var_index[st.target])
            must.add(var_index[st.target])
        elif isinstance(st, If):
            then, orelse = _assigned(st.then, var_index), _assigned(st.orelse, var_index)
            may |= then[0] | orelse[0]
            must |= then[1] & orelse[1]
        elif isinstance(st, AnyChoice):
            body = _assigned(st.body, var_index)[0]
            may |= body
            must |= body
    return may, must


def _binder_targets(stmts: list, binder: str) -> set:
    """The variables that every path through `stmts` assigns exactly the
    value of `binder`."""
    out = set()
    for st in stmts:
        if isinstance(st, Assign):
            if isinstance(st.value, Name) and st.value.name == binder:
                out.add(st.target)
        elif isinstance(st, If):
            out |= _binder_targets(st.then, binder) & _binder_targets(st.orelse, binder)
        else:
            out |= _binder_targets(st.body, binder)
    return out


def _distinct_choices(action: ActionDef) -> bool:
    """Whether no two paths of `action` can make one successor: every `any`
    in it has a variable that every path through its body assigns exactly
    its binder.  Two paths first part at some `any`, with two of its
    choices, which are distinct (`_compile_set`); each then assigns its own
    choice to that variable, and `validate` allows no second assignment to
    it on the path.  An action with no `any` has one path."""
    def walk(stmts: list) -> bool:
        for st in stmts:
            if isinstance(st, If):
                if not (walk(st.then) and walk(st.orelse)):
                    return False
            elif isinstance(st, AnyChoice):
                if not (_binder_targets(st.body, st.binder) and walk(st.body)):
                    return False
        return True
    return walk(action.body)


def _domain_error(var: str, where: str, line: int, col: int, value) -> EvalError:
    return EvalError(f"value {value!r} assigned to {var} is outside its domain", where, line, col)


class _ActionSource:
    """The code of one action: `lines`, at indentation `depth` of a generated
    function whose locals include the state `s`, run `emit` once for each
    distinct successor `t` of `s` that the action makes, in enumeration
    order.  The names the code needs are added to `mod`.

    The lines check the guards in order, in one `if`, then run the body as
    straight-line code with one local `w<i>` for each slot `i` the body
    assigns: an `if` is a Python `if`, and an `any` is a `for` loop that
    runs its body and the rest of the action once per choice.  The loop
    variable is the binder: expressions read a binder as a plain local.
    Each iteration starts by restoring the slots the body assigns on some
    path but not on all paths through it and the rest; the rest cannot see
    the binder, so it takes the same path in every iteration.  Each path
    ends with the successor `t = (s[0], w1, s[2], ...)`, and a slot is
    copied from `s` once the guards hold only when some path can reach
    that line without assigning or restoring it.  Guards, assignments,
    conditions and `any` sets are `_source` source, inline; an
    assigned value is tested against its slot's domain unless it folds to
    a constant inside it.  Only an action whose `any` choices may collide
    can make one successor twice, so only those collect their successors
    in `out` and run `emit` over them deduplicated; the others run `emit`
    where each successor is made.

    The statements after an `if` with an `any` inside move into a helper
    that runs them and then the rest of the action, and every path through
    the `if` ends with a call of it: each path runs them in full before the
    next path starts.  Statements that would nest too deep move into a
    helper called in their place.  Helpers are nested functions `k<n>(...)`
    of the binders in scope that share the slot locals; `emit` may rebind
    the caller's locals `rebinds`, which a helper that runs `emit` shares
    too.  A helper runs one frame deeper than the deepest function whose
    lines call it, and an action whose helpers would run more than
    `_MAX_CALLS` deep raises a located EvalError.
    """

    def __init__(self, bound: BoundSpec, action: ActionDef, mod: _Module,
                 emit: list, depth: int, rebinds: frozenset = frozenset()):
        self.bound = bound
        self.where = f"action {action.name}"
        self.mod = mod
        self.pending: list = []  # (name, statements, tail, binders) of helpers to generate
        # Each helper's depth, the helper frames on the stack while it runs,
        # and the helper each call line calls; `calls` is the depth of the
        # function whose lines are being made.
        self.depth: dict = {}
        self.callee: dict = {}
        self.calls = 0
        self.domains = [_domain(bound, v) for v in bound.spec.variables]
        nvars = len(bound.spec.variables)
        slots, always = _assigned(action.body, bound.var_index)
        fields = "".join(f"w{i}, " if i in slots else f"s[{i}], " for i in range(nvars))
        collect = not _distinct_choices(action)
        made = [f"t = ({fields})" if slots else "t = s"]
        made += ["out.append(t)"] if collect else emit
        # the lines that make a successor, and the locals they rebind
        self.made, self.rebinds = made, frozenset() if collect else rebinds

        lines = []
        if action.guards:
            guards = " and ".join(self.expr(g, {}) for g in action.guards)
            lines.append(f"{'    ' * depth}if {guards}:")
            depth += 1
        pad = "    " * depth
        body: list = []
        self.block(body, set(), action.body, made, depth, 0, {})
        # A helper shares the slot locals, so they must all be bound here.
        copied = slots if self.pending else slots - always
        lines.extend(f"{pad}w{i} = s[{i}]" for i in sorted(copied))
        if collect:
            lines.append(f"{pad}out = []")
        while self.pending:  # a loop, not recursion: helpers may be many
            name, stmts, tail, binders = self.pending.pop()
            # Last in, first out: every function that calls this helper, in
            # its own lines or in the tail of a helper made after it, is made.
            self.calls = self.depth[name]
            if self.calls > _MAX_CALLS:
                raise EvalError(_TOO_DEEP, self.where, action.line, action.col)
            for line in tail:  # run inside this helper, or deeper
                if line in self.callee:
                    after = self.callee[line]
                    self.depth[after] = max(self.depth[after], self.calls + 1)
            helper: list = []
            written: set = set()
            self.block(helper, written, stmts, tail, depth + 1, 0, binders)
            lines.append(f"{pad}def {name}({_binder_args(binders)}):")
            if written:
                lines.append(f"{pad}    nonlocal " + ", ".join(sorted(written)))
            lines.extend(helper)
        lines.extend(body)
        if collect:
            lines.append(f"{pad}for t in dict.fromkeys(out):")
            lines.extend(f"{pad}    {line}" for line in emit)
        self.lines = lines

    def expr(self, e: Expr, b: dict) -> str:
        return _source(e, self.bound, self.where, self.mod, b, _SCALAR_OPS)[0]

    def helper(self, stmts: list, tail: list, b: dict) -> str:
        """A call of a helper that runs `stmts`, then the lines `tail`, with
        the binders `b`."""
        name = self.mod.fresh("k")
        self.pending.append((name, stmts, tail, b))
        call = f"{name}({_binder_args(b)})"
        self.depth[name] = self.calls + 1
        self.callee[call] = name
        return call

    def block(self, lines: list, written: set, stmts: list, tail: list, depth: int,
              loops: int, b: dict) -> None:
        """Append the lines that run `stmts` and then the lines `tail` at
        indentation `depth`, inside `loops` nested loops, with the binders
        `b` in scope (see `_source`); `written` collects the shared
        locals those lines assign.  An `if` with no `any` inside falls
        through to the next statement: its branches end with no tail."""
        pad = "    " * depth
        start = len(lines)
        for k, st in enumerate(stmts):
            if isinstance(st, Assign):
                i = self.bound.var_index[st.target]
                src, value, _ = _source(st.value, self.bound, self.where, self.mod, b,
                                        _SCALAR_OPS)
                lines.append(f"{pad}w{i} = {src}")
                written.add(f"w{i}")
                # A value that folds to a constant in the domain needs no test.
                dom = self.domains[i]
                if dom is not None and (value is _VARIES or value not in dom):
                    dom = self.mod.bind("D", dom)
                    err = self.mod.bind("X", partial(
                        _domain_error, st.target, self.where, st.line, st.col))
                    lines.append(f"{pad}if w{i} not in {dom}: raise {err}(w{i})")
                continue
            if depth >= _MAX_INDENT or loops >= _MAX_LOOPS:
                lines.append(pad + self.helper(stmts[k:], tail, b))
                return
            rest = stmts[k + 1:]
            if isinstance(st, If):
                lines.append(f"{pad}if {self.expr(st.cond, b)}:")
                if not _contains_any([st]):
                    branch_tail = []
                elif rest:
                    branch_tail = [self.helper(rest, tail, b)]
                else:
                    branch_tail = tail
                self.block(lines, written, st.then, branch_tail, depth + 1, loops, b)
                if st.orelse or branch_tail:
                    lines.append(f"{pad}else:")
                    self.block(lines, written, st.orelse, branch_tail, depth + 1, loops, b)
                if not branch_tail:
                    continue
                return
            choices = _compile_set(st.over, self.bound, self.where, self.mod, b)
            value = self.mod.fresh("v")
            lines.append(f"{pad}for {value} in {choices}:")
            restored = _assigned(st.body, self.bound.var_index)[0]
            for i in sorted(restored - _assigned(st.body + rest, self.bound.var_index)[1]):
                lines.append(f"{pad}    w{i} = s[{i}]")
                written.add(f"w{i}")
            self.block(lines, written, st.body + rest, tail, depth + 1, loops + 1,
                       {**b, st.binder: (value, _VARIES)})
            return
        lines.extend(pad + line for line in tail)
        if tail is self.made:
            written |= self.rebinds
        if len(lines) == start:
            lines.append(f"{pad}pass")


def _action_source(bound: BoundSpec, action: ActionDef, mod: _Module,
                   emit: list, depth: int,
                   rebinds: frozenset = frozenset()) -> _ActionSource:
    """`_ActionSource`, with a located EvalError for an action that nests
    past Python's recursion limit."""
    return _within_depth(action, f"action {action.name}",
                         partial(_ActionSource, bound, action, mod, emit, depth, rebinds))


def _successor_source(bound: BoundSpec, action: ActionDef) -> tuple:
    """(module, main source) of `succ(s)`, which returns the action's
    distinct successors of state `s` in enumeration order: the reference
    next-state function that `successors` and `replay_trace` run.  Its
    emit line appends each successor to a list of its own: `out` may hold
    a colliding action's successors before they are deduplicated."""
    mod = _Module()
    src = _action_source(bound, action, mod, ["found.append(t)"], 1)
    return mod, "\n".join(["def succ(s):", "    found = []", *src.lines, "    return found\n"])


def _successor_functions(bound: BoundSpec) -> list:
    """One generated successor function per action, in declaration order;
    generated on the bound spec's first use."""
    def make():
        out = []
        for action in bound.spec.actions:
            mod, main = _successor_source(bound, action)
            out.append(mod.run(main, f"<action {action.name}>")["succ"])
        return out
    return _generated(bound._generated, bound.spec, ("succ",), make)


# --- level-synchronous expansion of finite-domain specs ------------------------

# When every variable is a bool or has a domain, a state packs into one int
# key: each variable's code, the position of its value in the sorted domain,
# in a bit field of its own.  `explore` can then expand a whole BFS level at
# once: one generated function per action maps a column of keys to its
# successor keys, using the column table, so its cost is a few numpy calls
# per action and level rather than Python code per state.  Keys stay below
# 2**62: non-negative int64s with a bit to spare.
_KEY_BITS = 62

# An action makes at most this many successor slots: one per path through
# its `any` choices and the `if`s with an `any` inside.  A spec with a larger
# action is explored one state at a time; each slot costs every state of a
# level a column of the successor matrix, whether the path is taken or not.
# With one action whose `any v in 1..S` may make a successor twice, over
# 1,024 states and their 1,024 x S successors (2 cores, Python 3.11, numpy
# 2.4), columns took 0.75, 0.85, 1.1, 1.2 and 2.1 times the loop's explore
# time at S = 4, 8, 16, 32 and 64.
_MAX_SLOTS = 16

# A level's successor slots are made in chunks of at most _CHUNK_ROWS states
# and _CHUNK_CELLS slots, so the successor matrix and its mask take at most
# 9 MB and each column an action makes at most 512 KB, however many slots go
# unused.  The chunks' edges are then joined and interned as one level:
# traced with tracemalloc, a level's memory peaks at 65-85 bytes per edge,
# of which the graph keeps 30-45 (edges, new states, index).  That does not
# set the peak of explore, which for panels at K = 5 and 6 (widest levels
# 58,900 and 513,792 edges) is within 1% of the state-by-state loop's.
_CHUNK_ROWS = 1 << 16
_CHUNK_CELLS = 1 << 20


class _Columns(dict):
    """Variable index -> the variable's value in every state of a set, as a
    numpy column made by `make(i)` on its first read, so a check pays only
    for the variables its predicates name."""

    _DTYPES = {"int": np.int64, "bool": bool, "string": object}  # by variable kind

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, i: int) -> np.ndarray:
        column = self[i] = self.make(i)
        return column


class _Codec:
    """Where one variable sits in a state key: its code, the position of its
    value in the sorted domain (false and true for a bool without a domain),
    in `bits` bits from bit `shift`.  A domain that is an int range keeps
    no table: a code is the value minus `lo`."""

    def __init__(self, values: list, kind: str, checked: bool, shift: int):
        self.shift = shift
        self.bits = (len(values) - 1).bit_length()
        self.mask = (1 << self.bits) - 1
        self.field = self.mask << shift
        self.checked = checked  # a declared domain, which assigned values must be in
        self.lo = self.hi = self.table = None
        if kind == "int" and values[-1] - values[0] + 1 == len(values):
            self.lo, self.hi = values[0], values[-1]
        else:
            self.table = np.array(values, dtype=_Columns._DTYPES[kind])

    def value(self, key: int):
        """The value held in one key, as a Python value."""
        code = (key >> self.shift) & self.mask
        return code + self.lo if self.lo is not None else self.table.item(code)

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """The values held in `keys`, as a column."""
        codes = (keys >> self.shift) & self.mask
        return codes + self.lo if self.lo is not None else self.table[codes]

    def encode(self, values) -> np.ndarray:
        """The codes of `values`, shifted into place; a value outside the
        domain gets some code."""
        if self.lo is not None:
            return (np.asarray(values, np.int64) - self.lo) << self.shift
        return np.searchsorted(self.table, np.asarray(values, self.table.dtype)) << self.shift

    def outside(self, values) -> np.ndarray:
        """Where `values` fall outside the domain."""
        if self.lo is not None:
            return np.logical_or(np.less(values, self.lo), np.greater(values, self.hi))
        values = np.asarray(values, self.table.dtype)
        at = np.minimum(np.searchsorted(self.table, values), len(self.table) - 1)
        return self.table[at] != values


def _key_codecs(bound: BoundSpec) -> Optional[list]:
    """One `_Codec` per variable, or None when some variable is neither a
    bool nor has a domain, or the key would pass _KEY_BITS bits."""
    codecs, shift = [], 0
    for v in bound.spec.variables:
        if v.domain is not None:
            values = sorted(_domain(bound, v))
        elif v.kind == "bool":
            values = [False, True]
        else:
            return None
        if not values:
            return None
        codecs.append(_Codec(values, v.kind, v.domain is not None, shift))
        shift += codecs[-1].bits
        if shift > _KEY_BITS:
            return None
    return codecs


class _NotColumnar(Exception):
    """An action with more than _MAX_SLOTS successor slots."""


def _first_copies(out: np.ndarray, ok: np.ndarray, lo: int, hi: int) -> None:
    """Keep, in each row of slots lo to hi - 1, only the first valid slot
    of each key, as `dict.fromkeys` keeps an action's first copy of a
    successor: a stable sort of each row, in which an invalid slot holds a
    negative key of its own, puts each repeat right after an earlier copy."""
    rows = np.flatnonzero(np.count_nonzero(ok[:, lo:hi], axis=1) > 1)
    block = np.where(ok[rows, lo:hi], out[rows, lo:hi], np.arange(lo - hi, 0))
    order = np.argsort(block, axis=1, kind="stable")
    block = np.take_along_axis(block, order, axis=1)
    repeat = np.zeros(block.shape, dtype=bool)
    np.equal(block[:, 1:], block[:, :-1], out=repeat[:, 1:])
    first = np.empty_like(repeat)
    np.put_along_axis(first, order, ~repeat, axis=1)
    ok[rows, lo:hi] &= first


class _ColumnAction:
    """The path list of one action, as the lines of a generated function
    `f(K, s, out, ok)` over a column of state keys `K` and their decoded
    values `s` (a `_Columns`): each path through the action's body is one
    successor slot, whose key column goes to `out[:, slot]` and whose mask
    (the guards and the path's conditions) to `ok[:, slot]`.

    Three facts make the paths static.  Expressions read only the pre-state,
    and `validate` allows one assignment per variable and path, so an
    assignment is one column and no later statement of its path sees it.
    An `any` set names constants and enclosing binders only, so its choices
    enumerate statically, in `_compile_set` order, each a path with the
    binder a constant.  An `if` with no `any` inside stays on its path: each
    slot it assigns becomes `np.where(cond, then, else)`, with the pre-state
    value for a branch that does not assign it; an `if` with an `any` inside
    splits the path in two, under the condition and its negation.

    Every expression is evaluated on every state, so an integer overflow
    anywhere raises EvalError, as does a value outside its domain on a path
    where the assignment is taken (`mask & outside(value)`): `explore` then
    drops that graph and explores again from the initial states with the
    loop alone, which raises the error where it really happens, if it does.
    `ends` holds each path's (conditions, assignments) once the action is
    compiled.  Two paths can make one successor only when the action's `any`
    choices may collide; only then does the plan keep just the first copy of
    each (`_first_copies`, see `_distinct_choices`)."""

    def __init__(self, bound: BoundSpec, action: ActionDef, codecs: list, mod: _Module):
        self.bound, self.codecs, self.mod = bound, codecs, mod
        self.where = f"action {action.name}"
        self.lines: list = []
        self.masks: dict = {(): "True"}
        self.ends: list = []
        guards = tuple(self.local(self.expr(g, {})[0]) for g in action.guards)
        self.walk(action.body, {}, guards, {})

    def expr(self, e: Expr, binders: dict) -> tuple:
        """(column source, constant value or _VARIES) of `e`, with the
        binders `binders` (name -> (literal, value))."""
        src, value, _ = _source(e, self.bound, self.where, self.mod, binders, _COLUMN_OPS)
        return src, value

    def local(self, src: str) -> str:
        name = self.mod.fresh("c")
        self.lines.append(f"    {name} = {src}")
        return name

    def mask(self, terms: tuple) -> str:
        """A local, or literal, holding the conjunction of `terms`."""
        if terms not in self.masks:
            if len(terms) > 1:
                src = f"np.logical_and({self.mask(terms[:-1])}, {terms[-1]})"
            else:
                src = terms[0]
            self.masks[terms] = src if src.isidentifier() else self.local(src)
        return self.masks[terms]

    def walk(self, stmts: list, binders: dict, terms: tuple, vals: dict) -> None:
        """Add the paths of `stmts` under the conditions `terms`, with the
        assignments `vals` (slot -> (source, constant or _VARIES)) made
        before them, to `ends`."""
        for k, st in enumerate(stmts):
            if isinstance(st, Assign):
                self.assign(st, binders, terms, vals)
                continue
            rest = stmts[k + 1:]
            if isinstance(st, If):
                c = self.local(self.expr(st.cond, binders)[0])
                branches = ((st.then, terms + (c,)),
                            (st.orelse, terms + (f"np.logical_not({c})",)))
                if _contains_any([st]):
                    for body, conds in branches:
                        self.walk(body + rest, binders, conds, dict(vals))
                    return
                then, orelse = (self.branch(body, binders, conds) for body, conds in branches)
                for i in sorted(then.keys() | orelse.keys()):
                    a, b = (x[i][0] if i in x else f"s[{i}]" for x in (then, orelse))
                    vals[i] = (self.local(f"np.where({c}, {a}, {b})"), _VARIES)
                continue
            for v in _make_set_function(st.over, self.bound, self.where, binders)():
                self.walk(st.body + rest, {**binders, st.binder: _literal(v)[:2]}, terms,
                          dict(vals))
            return
        self.ends.append((terms, vals))
        if len(self.ends) > _MAX_SLOTS:
            raise _NotColumnar

    def branch(self, stmts: list, binders: dict, terms: tuple) -> dict:
        """The assignments of `stmts`, which hold no `any`: one path."""
        vals: dict = {}
        ends, self.ends = self.ends, []
        self.walk(stmts, binders, terms, vals)
        self.ends = ends
        return vals

    def assign(self, st: Assign, binders: dict, terms: tuple, vals: dict) -> None:
        i = self.bound.var_index[st.target]
        codec = self.codecs[i]
        src, value = self.expr(st.value, binders)
        if value is _VARIES:
            src = self.local(src)
            bad = f"B{i}({src})" if codec.checked else None
        else:
            bad = "True" if codec.outside([value])[0] else None
        if bad is not None:
            taken = self.mask(terms)
            test = taken if bad == "True" else bad if taken == "True" else \
                f"np.logical_and({taken}, {bad})"
            err = self.mod.bind("X", partial(EvalError, "a value outside its domain",
                                             self.where, st.line, st.col))
            self.lines.append(f"    if np.any({test}): raise {err}()")
        vals[i] = (src, value)

    def key(self, vals: dict) -> str:
        """The source of the successor keys of a path with assignments `vals`."""
        full = keep = (1 << _KEY_BITS) - 1
        const, parts = 0, []
        for i, (src, value) in sorted(vals.items()):
            codec = self.codecs[i]
            keep &= ~codec.field
            if value is _VARIES:
                parts.append(f"E{i}({src})")
            elif not codec.outside([value])[0]:  # else the path raises where it is taken
                const |= int(codec.encode([value])[0])
        return " | ".join(["K" if keep == full else f"(K & {keep})"]
                          + ([str(const)] if const else []) + parts)


class _ColumnPlan:
    """A spec's level-synchronous form: `codecs` pack states into keys, and
    `expand` makes the successors of a column of keys with one generated
    function per action (see `_ColumnAction`)."""

    def __init__(self, codecs: list, functions: list, slot_action: list):
        self.codecs = codecs
        self.bits = sum(codec.bits for codec in codecs)  # keys are below 2**bits
        self.functions = functions
        self.slot_action = np.array(slot_action, dtype=np.int64)  # the action of each slot

    def keys(self, states: list) -> np.ndarray:
        """The keys of `states`."""
        keys = np.zeros(len(states), dtype=np.int64)
        for i, codec in enumerate(self.codecs):
            if codec.bits:
                keys |= codec.encode([s[i] for s in states])
        return keys

    def states(self, keys: np.ndarray) -> list:
        """The state tuples of `keys`."""
        return list(zip(*(codec.decode(keys).tolist() for codec in self.codecs)))

    def state(self, key: int) -> tuple:
        """The state tuple of one key."""
        return tuple(codec.value(key) for codec in self.codecs)

    def columns(self, keys: np.ndarray) -> _Columns:
        """The values held in `keys`, each variable's decoded on its first read."""
        return _Columns(lambda i: self.codecs[i].decode(keys))

    def expand(self, keys: np.ndarray) -> tuple:
        """(targets, actions, counts) of the states `keys`: their successor
        keys and the action of each, in edge order (states in order, then
        actions in declaration order, then each action's successors in
        enumeration order, repeats dropped), and the number of edges out of
        each state.  Raises EvalError where some state may raise it."""
        parts = []
        rows = max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // max(1, self.slot_action.size)))
        for lo in range(0, keys.size, rows):
            chunk = keys[lo:lo + rows]
            out = np.empty((chunk.size, self.slot_action.size), dtype=np.int64)
            ok = np.empty(out.shape, dtype=bool)
            columns = self.columns(chunk)
            for f in self.functions:
                f(chunk, columns, out, ok)
            parts.append((out[ok], np.broadcast_to(self.slot_action, ok.shape)[ok],
                          np.count_nonzero(ok, axis=1)))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(x) for x in zip(*parts))


def _make_column_plan(bound: BoundSpec) -> Optional[_ColumnPlan]:
    codecs = _key_codecs(bound)
    if codecs is None:
        return None
    mod = _Module(_COLUMN_OPS["globals"])
    mod.ns["first_copies"] = _first_copies
    for i, codec in enumerate(codecs):
        mod.ns[f"E{i}"], mod.ns[f"B{i}"] = codec.encode, codec.outside
    main, slot_action = [], []
    try:
        for a, action in enumerate(bound.spec.actions):
            x = _ColumnAction(bound, action, codecs, mod)
            lo = len(slot_action)
            ends = []
            for p, (terms, vals) in enumerate(x.ends, lo):
                ends.append(f"    ok[:, {p}] = {x.mask(terms)}")  # may add to x.lines
                ends.append(f"    out[:, {p}] = {x.key(vals)}")
            slot_action += [a] * len(x.ends)
            if not _distinct_choices(action):
                ends.append(f"    first_copies(out, ok, {lo}, {len(slot_action)})")
            main += [f"def a{a}(K, s, out, ok):", *x.lines, *ends, "    return\n"]
        ns = mod.run("\n".join(main), f"<columns {bound.spec.name}>")
    except (_NotColumnar, EvalError, RecursionError):
        return None
    return _ColumnPlan(codecs, [ns[f"a{a}"] for a in range(len(bound.spec.actions))],
                       slot_action)


def _column_plan(bound: BoundSpec) -> Optional[_ColumnPlan]:
    """The level-synchronous form of `bound`, made once per bound spec, or
    None when a state does not fit a key (see `_key_codecs`) or an action
    has too many paths or an `any` set that cannot be evaluated."""
    return _generated(bound._generated, bound.spec, ("columns",),
                      partial(_make_column_plan, bound))


# --- initial states and successors ---------------------------------------------


def initial_states(bound: BoundSpec) -> list:
    """Enumerate the Cartesian product of every variable's init clause, in
    lexicographic declaration order: distinct states, since each clause's
    values are distinct.  Values are checked against declared domains; a
    violation is an EvalError."""
    return [tuple(combo) for combo in itertools.product(*initial_values(bound))]


def initial_values(bound: BoundSpec) -> list:
    """Each variable's distinct initial values, in declaration order: the
    factors of `initial_states`, checked against declared domains as it
    checks them, without building their product."""
    per_var = []
    for v in bound.spec.variables:
        where = f"var {v.name}"
        if v.init is not None:
            values = [_expr_function(v.init, bound, where)(None)]
        else:
            values = eval_const_set(v.init_set, bound, where)
        dom = _domain(bound, v)
        if dom is not None:
            for val in values:
                if val not in dom:
                    raise EvalError(
                        f"initial value {val!r} of {v.name} is outside its domain",
                        where, v.line, v.col,
                    )
        per_var.append(values)
    return per_var


def action_successors(state: State, action: ActionDef, bound: BoundSpec) -> list:
    """Successor states of one action: empty when a guard is false, otherwise
    one state per executed path and `any` choice, in enumeration order, with
    duplicates merged.  `action` is one of the spec's, found by name."""
    k = [a.name for a in bound.spec.actions].index(action.name)
    return list(_successor_functions(bound)[k](state))


def successors(state: State, bound: BoundSpec) -> list:
    """All labeled transitions from a state: (action name, successor) pairs,
    actions in declaration order.  The pairs are distinct: each action's
    successors are deduplicated, and `validate` makes action names unique."""
    out = []
    for action, fn in zip(bound.spec.actions, _successor_functions(bound)):
        for t in fn(state):
            out.append((action.name, t))
    return out
