"""spacheck: specify single-page-application workflows as guarded-action
systems and model-check them for deadlock freedom, invariants, and liveness
under weak fairness, with replayable counterexample traces."""

import os

# numpy and scipy each load an OpenBLAS that starts a thread pool, one thread
# per extra core, when it loads; each pool thread spins about 130 ms of CPU
# right after it starts (2 cores, numpy 2.4, scipy 1.17; hosts with more
# cores were not measured), and scipy's starts late enough to spin inside
# the check.  The checker does no linear algebra, so while it imports them
# OpenBLAS is asked for one thread, unless the caller set a number.  The
# variable is removed again once the imports are done, so subprocesses see
# the caller's environment.
_SET_THREADS = "OPENBLAS_NUM_THREADS" not in os.environ
if _SET_THREADS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
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
finally:
    if _SET_THREADS:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
