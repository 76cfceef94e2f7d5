"""Core data model: values, states, and the workflow-spec AST.

A workflow spec describes a single-page application as a set of typed
variables (one per observable widget property) and guarded actions (one per
user action).  A state is one valuation of all declared variables, held as a
plain tuple aligned with declaration order; that order is the single source
of truth for state layout everywhere else in the package, and the tuple is
the state's identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

# Runtime values are plain Python scalars.  Validation guarantees that a
# given variable slot always holds one kind, so tuple equality on states is
# kind-safe (a bool slot never meets an int slot of the same spec).
Value = Union[bool, int, str]
State = tuple  # tuple[Value, ...] aligned with SpecModel.variables

# Signed 64-bit range; arithmetic leaving it is a runtime evaluation error.
INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


def value_kind(v: Value) -> str:
    """Kind tag of a runtime value.  bool must be tested before int."""
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, str):
        return "string"
    raise TypeError(f"not a runtime value: {v!r}")


def format_value(v: Value) -> str:
    """Render a value in source syntax: true/false, a decimal int, or "..."."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return '"' + v + '"'


@dataclass
class Node:
    """Base for AST nodes.  Source position is carried for diagnostics but
    excluded from structural equality."""

    line: int = field(default=0, compare=False, repr=False, kw_only=True)
    col: int = field(default=0, compare=False, repr=False, kw_only=True)


# --- expressions -----------------------------------------------------------


@dataclass
class Lit(Node):
    value: Value = False


@dataclass
class Name(Node):
    name: str = ""


@dataclass
class Unary(Node):
    op: str = "not"
    operand: "Expr" = None


@dataclass
class Binary(Node):
    # op is one of: or and implies = /= < <= > >= + - *
    op: str = ""
    left: "Expr" = None
    right: "Expr" = None


@dataclass
class InSet(Node):
    item: "Expr" = None
    over: "SetExpr" = None


@dataclass
class Cond(Node):
    """if c then a else b, as an expression."""

    cond: "Expr" = None
    then: "Expr" = None
    orelse: "Expr" = None


Expr = Union[Lit, Name, Unary, Binary, InSet, Cond]


# --- finite set expressions ------------------------------------------------


@dataclass
class SetLit(Node):
    elems: list = field(default_factory=list)  # list[Expr], nonempty


@dataclass
class RangeSet(Node):
    """lo..hi, inclusive; empty when lo > hi."""

    lo: Expr = None
    hi: Expr = None


SetExpr = Union[SetLit, RangeSet]


# --- statements (action bodies) --------------------------------------------


@dataclass
class Assign(Node):
    """Primed assignment: target gets this value in the successor state."""

    target: str = ""
    value: Expr = None


@dataclass
class AnyChoice(Node):
    """any x in S { ... }: one successor branch per member of S."""

    binder: str = ""
    over: SetExpr = None
    body: list = field(default_factory=list)  # list[Stmt]


@dataclass
class If(Node):
    cond: Expr = None
    then: list = field(default_factory=list)
    orelse: list = field(default_factory=list)


Stmt = Union[Assign, AnyChoice, If]


# --- declarations -----------------------------------------------------------


@dataclass
class ConstDecl(Node):
    name: str = ""
    kind: str = "int"


@dataclass
class VarDecl(Node):
    """A state variable.  Exactly one of init / init_set is present; init
    expressions may reference constants only."""

    name: str = ""
    kind: str = "int"
    domain: Optional[SetExpr] = None
    init: Optional[Expr] = None
    init_set: Optional[SetExpr] = None


@dataclass
class ActionDef(Node):
    """One guarded user action.  All top-level `when` clauses are conjoined
    into the guard; variables not assigned on the executed path keep their
    values (implicit frame)."""

    name: str = ""
    guards: list = field(default_factory=list)  # list[Expr]
    body: list = field(default_factory=list)  # list[Stmt]


# --- temporal properties -----------------------------------------------------


@dataclass
class Invariant(Node):
    pred: Expr = None


@dataclass
class Eventually(Node):
    pred: Expr = None


@dataclass
class LeadsTo(Node):
    lhs: Expr = None
    rhs: Expr = None


@dataclass
class AlwaysEventually(Node):
    pred: Expr = None


Shape = Union[Invariant, Eventually, LeadsTo, AlwaysEventually]

KIND_OF_SHAPE = {
    Invariant: "invariant",
    Eventually: "eventually",
    LeadsTo: "leadsto",
    AlwaysEventually: "always_eventually",
}


@dataclass
class TemporalProperty(Node):
    name: str = ""
    shape: Shape = None
    # optional universal quantifier: (binder name, finite set over constants)
    binder: Optional[tuple] = None

    @property
    def kind(self) -> str:
        return KIND_OF_SHAPE[type(self.shape)]


@dataclass
class SpecModel(Node):
    """A parsed workflow specification.  Variable declaration order defines
    the state layout; the next-state relation is the disjunction of all
    declared actions."""

    name: str = ""
    constants: list = field(default_factory=list)  # list[ConstDecl]
    variables: list = field(default_factory=list)  # list[VarDecl]
    actions: list = field(default_factory=list)  # list[ActionDef]
    properties: list = field(default_factory=list)  # list[TemporalProperty]

    def var_names(self) -> list:
        return [v.name for v in self.variables]


def state_to_record(state: State, spec: SpecModel) -> dict:
    """Project a state onto an ordered name -> value mapping, one entry per
    declared variable in declaration order."""
    return {decl.name: v for decl, v in zip(spec.variables, state)}


def format_state(state: State, spec: SpecModel, sep: str = ", ") -> str:
    """One-line rendering used by reports: name=value, `sep` separated."""
    return sep.join(
        f"{decl.name}={format_value(v)}" for decl, v in zip(spec.variables, state)
    )
