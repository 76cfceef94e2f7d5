"""spacheck: specify single-page-application workflows as guarded-action
systems and model-check them for deadlock freedom, invariants, and liveness
under weak fairness, with replayable counterexample traces."""

from .model import (
    SpecModel,
    State,
    Value,
    state_to_record,
)
from .parser import ParseError, parse_spec, pretty_print, tokenize
from .semantics import (
    BindError,
    BoundSpec,
    EvalError,
    action_successors,
    bind_constants,
    initial_states,
    successors,
    validate,
)
from .explorer import (
    ExploreLimits,
    LimitError,
    StateGraph,
    Trace,
    Verdict,
    check_deadlock,
    check_invariant,
    explore,
    reconstruct_trace,
    replay_trace,
)
from .liveness import (
    check_always_eventually,
    check_eventually,
    check_leadsto,
    check_property,
)
from .cli import Report, RunConfig, emit_dot, emit_json, render_text, run_check

__version__ = "0.1.0"

__all__ = [
    "SpecModel", "State", "Value", "state_to_record",
    "ParseError", "parse_spec", "pretty_print", "tokenize",
    "BindError", "BoundSpec", "EvalError",
    "action_successors", "bind_constants", "initial_states", "successors",
    "validate",
    "ExploreLimits", "LimitError", "StateGraph", "Trace", "Verdict",
    "check_deadlock", "check_invariant", "explore", "reconstruct_trace",
    "replay_trace",
    "check_always_eventually", "check_eventually", "check_leadsto",
    "check_property",
    "Report", "RunConfig", "emit_dot", "emit_json", "render_text", "run_check",
]
