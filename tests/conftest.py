import importlib.util
import os
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import settings

from spacheck import (EvalError, ExploreLimits, LimitError, Trace, bind_constants, explore,
                      explorer, liveness, parse_spec, validate)

# `HYPOTHESIS_PROFILE=ci` fuzzes harder where time is cheap: tests that ask
# for `max(N, settings().max_examples)` examples draw 1,000, and none has a
# deadline.  Without it, Hypothesis's default profile applies.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def corpus_path(name: str) -> pathlib.Path:
    return EXAMPLES / name


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


def perfbench_workloads():
    """`perfbench/workloads.py`, the benchmark's spec generators, loaded by
    path since `perfbench` is not a package on the test path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def build(source: str, constants=None):
    """parse + bind + validate; fails the test on static errors."""
    spec = parse_spec(source)
    bound = bind_constants(spec, constants or {})
    errors = validate(bound)
    assert errors == [], [str(e) for e in errors]
    return bound


def build_graph(source: str, constants=None):
    bound = build(source, constants)
    return bound, explore(bound)


def json_traces(report: dict, spec) -> list:
    """The traces of a `--json` report's results, those that have one,
    rebuilt as `Trace`s: each state is its record's values in variable
    order."""
    names = [v.name for v in spec.variables]
    return [Trace([tuple(record[name] for name in names) for record in t["states"]],
                  t["actions"], t["loop_start"], t["loop_action"])
            for t in (result["trace"] for result in report["results"]) if t is not None]


def index_of(graph) -> dict:
    """State -> index over the states of `graph`."""
    return {s: i for i, s in enumerate(graph.states)}


def graph_fields(graph, levels: bool = False):
    """The fields of `graph` in the shape of `oracles.explore_reference`,
    None for no graph: the states, `initial` and the edge arrays and
    `parent` as lists, with each state's parent action, the action index
    of `edge_label(parent[v], v)`, and its depth, the level that holds it
    in `levels` (-1 and 0 for an initial state).  With `levels`, `levels`
    too."""
    if graph is None:
        return None
    names = [a.name for a in graph.spec.actions]
    parent, starts = list(graph.parent), list(graph.levels)
    fields = {"states": graph.states, "initial": list(graph.initial),
              "edge_start": list(graph.edge_start), "edge_dst": list(graph.edge_dst),
              "edge_action": list(graph.edge_action), "parent": parent,
              "parent_action": [-1 if u < 0 else names.index(graph.edge_label(u, v))
                                for v, u in enumerate(parent)],
              "depth": [d for d, (lo, hi) in enumerate(zip(starts, starts[1:]))
                        for _ in range(lo, hi)]}
    if levels:
        fields["levels"] = starts
    return fields


# The bounds on a key's bits at which `explore_with` looks keys up in sorted
# runs (0) and in a table (the default) for any spec with at most that many.
DENSE_BOUNDS = (0, explorer._DENSE_BITS)


def explore_with(bound, wide: int, dense_bits: int = explorer._DENSE_BITS, **limits) -> tuple:
    """`explore`'s outcome with every level at least `wide` states wide
    expanded as columns, whose keys are looked up in a table when they have
    at most `dense_bits` bits, else in sorted runs (at 0, the runs for every
    spec with more than one possible state): ("graph", fields), ("limit",
    message, fields of the partial graph or None), or ("error", message,
    trace states, trace actions).  The fields are `graph_fields`', `levels`
    among them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_WIDE", wide)
        mp.setattr(explorer, "_DENSE_BITS", dense_bits)
        try:
            graph = explore(bound, ExploreLimits(**limits))
        except EvalError as e:
            return ("error", str(e), e.trace.states, e.trace.actions)
        except LimitError as e:
            return ("limit", str(e), graph_fields(e.graph, levels=True))
    return ("graph", graph_fields(graph, levels=True))


@pytest.fixture(scope="session")
def clock_src() -> str:
    return corpus_text("clock.spa")


@pytest.fixture(scope="session")
def math_src() -> str:
    return corpus_text("math.spa")


@pytest.fixture(scope="session")
def buggy_src() -> str:
    return corpus_text("math_buggy.spa")


@pytest.fixture(autouse=True)
def _no_repeated_edge_reaches_scipy(monkeypatch):
    """Fail a test whose strong components pass gets a matrix that holds one
    target twice in a row, instead of letting scipy loop forever on it.
    Self-loops may repeat: a search parks the states outside it on rows of
    them, and scipy handles them.  A sort and a neighbour compare, since a
    test counts the calls of `np.unique`.  The pass is patched where
    liveness calls it, its own module-level name."""
    strong = liveness.connected_components

    def checked(matrix, *args, **kwargs):
        indptr, indices = matrix.indptr, matrix.indices
        rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
        pairs = rows * matrix.shape[1] + indices
        pairs = pairs[indices != rows]
        pairs.sort()
        if (pairs[1:] == pairs[:-1]).any():
            pytest.fail("a row of the matrix given to connected_components repeats a target")
        return strong(matrix, *args, **kwargs)

    monkeypatch.setattr(liveness, "connected_components", checked)
