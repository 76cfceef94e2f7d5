"""spacheck: specify single-page-application workflows as guarded-action
systems and model-check them for deadlock freedom, invariants, and liveness
under weak fairness, with replayable counterexample traces."""

import gc
import os

# While the modules load, OpenBLAS is asked for one thread, unless the caller
# set a number, and the cyclic GC is paused; once they have loaded, every
# object alive, the importer's own too, is frozen out of the GC for good.
# The environment and whether the GC is enabled are restored, also when an
# import raises, which freezes nothing.  Before scipy loads, the numpy
# submodules that scipy's `from numpy import *` would run and no check reads
# are registered as numpy's own lazy modules, whose code runs at their first
# attribute read.  Of scipy's graph code only the compiled traversal module
# loads, under a stand-in for its package that is never run and is gone from
# `sys.modules` once the module has loaded.  README's "What `import spacheck`
# does" says why.
_SET_THREADS = "OPENBLAS_NUM_THREADS" not in os.environ
if _SET_THREADS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
_GC_ENABLED = gc.isenabled()
gc.disable()
try:
    def _defer_numpy_submodules():
        import importlib.util
        import sys

        import numpy
        for name in ("f2py", "testing", "ma", "polynomial", "char", "rec", "strings",
                     "ctypeslib", "core"):
            full = "numpy." + name
            if name in vars(numpy) or full in sys.modules:
                continue
            spec = importlib.util.find_spec(full)
            if spec is None:  # numpy 1.x has no `strings`
                continue
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = sys.modules[full] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            setattr(numpy, name, module)

    def _load_graph_traversal():
        import importlib.util
        import sys

        name = "scipy.sparse.csgraph"
        if name in sys.modules:
            return
        # The package's `__init__` would load scipy.sparse.linalg and
        # scipy.linalg (by way of `_laplacian`), which no check uses.
        sys.modules[name] = importlib.util.module_from_spec(importlib.util.find_spec(name))
        try:
            import scipy.sparse.csgraph._traversal  # noqa: F401
        finally:
            del sys.modules[name]

    _defer_numpy_submodules()
    _load_graph_traversal()
    del _defer_numpy_submodules, _load_graph_traversal
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
    gc.freeze()
finally:
    if _GC_ENABLED:
        gc.enable()
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
