"""Counts, verdicts, replays and reports at sizes tier-1 does not reach:
`PYTHONPATH=src python tests/scale.py` prints one line per check with its
wall time, or its traceback, and exits 1 if any check failed.  A check's
parameters are its sizes, full size by default; `test_scale.py` runs each
small.  Expected counts are `perfbench/workloads.py`'s closed forms."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from conftest import ROOT, corpus_path, corpus_text, json_traces, perfbench_workloads
from spacheck import (ExploreLimits, LimitError, RunConfig, bind_constants, cli, emit_json,
                      explore, explorer, liveness, parse_spec, replay_trace, run_check, successors)
from spacheck.explorer import KeyStates

workloads = perfbench_workloads()


@contextlib.contextmanager
def _spec_file(source: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.spa")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
        yield path


def _cli_check(*args) -> tuple:
    """`spacheck check ARGS --json` in-process through `cli.main`, so that
    argument parsing and `--timeout` run too: its exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", *args, "--json"])
    return code, out.getvalue()


def _math_report(name: str, n: int) -> str:
    """`spacheck check` of the quiz `name` at n questions, which must pass
    all four checks: its JSON report with the elapsed time stripped."""
    code, out = _cli_check(str(corpus_path(name)), "--const", f"max_num_q={n}",
                           "--timeout", "120")
    r = json.loads(out)
    assert (code, r["states"]) == (0, workloads.math_states(n)), (name, code, r["states"])
    assert [v["status"] for v in r["results"]] == ["pass"] * 4, (name, r["results"])
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', "", out)


def reference_successors(math_n=workloads.MATH_N, panels_k=workloads.PANELS_K, domains_n=100):
    """The reference successor functions (`successors`, which `replay_trace`
    runs too), which the benchmark never calls, give explore's edges, in
    order, at every state; math_domains.spa's `Check` runs through column
    levels, which keep every slot of an action whose `any` choices cannot
    collide."""
    specs = [workloads.math_workload(1, cyclic=False, n=math_n),
             workloads.panels_workload(1, k=panels_k)]
    specs = [(w.name, w.source, w.constants) for w in specs]
    specs.append((f"math_domains n={domains_n}", corpus_text("math_domains.spa"),
                  {"max_num_q": domains_n}))
    counts = []
    for name, source, constants in specs:
        bound = bind_constants(parse_spec(source), constants)
        graph = explore(bound)
        states = graph.states
        for i in range(graph.n_states):
            want = [(a, states[j]) for a, j in graph.out_edges(i)]
            assert successors(states[i], bound) == want, (name, i)
        counts.append(f"{name} {graph.n_states}")
    return f"{', '.join(counts)} states: reference successors equal explore's edges"


def repeated_edges(n=3000, jumps=40):
    """From each of n states on one cycle, Next and Again reach the same
    state and Jump makes `jumps` successors, so the liveness analysis
    dedupes its edges by its sort, not by shifted compares, and scipy's SCC
    passes, which loop forever on a repeated edge, read the deduped
    matrix.  A wrong dedupe hangs here, and the scale step's timeout fails it."""
    wrap = lambda e: f"if {e} < {n} then {e} else {e} - {n}"
    source = (f"spec repeats\nvar x : int init 0\n"
              f"action Next {{\nx' = {wrap('x + 1')}\n}}\n"
              f"action Again {{\nx' = {wrap('x + 1')}\n}}\n"
              f"action Jump {{\nany v in 0..{jumps - 1} {{\nx' = {wrap('x + v')}\n}}\n}}\n"
              "property Recurs: always eventually (x = 0)\n"
              "property Leaves: (x = 0) leadsto (x > 0)\n")
    graph = explore(bind_constants(parse_spec(source), {}))
    assert np.diff(np.frombuffer(graph.edge_start, dtype=np.int64)).max() > liveness._SHIFT_ROWS
    with _spec_file(source) as path:
        report, code = run_check(RunConfig(path, {}))
    assert (code, report.states, report.transitions) == (1, n, n * (2 + jumps)), \
        (code, report.states, report.transitions)
    verdicts = [(v.name, v.status) for v in report.results]
    assert verdicts == [("deadlock", "pass"), ("Recurs", "fail"), ("Leaves", "pass")], verdicts
    traces = [v.trace for v in report.results if v.trace is not None]
    assert [replay_trace(graph.bound, t) for t in traces] == [None], traces
    return f"{report.transitions} edges with repeats: verdicts as expected, the lasso replays"


def panels(k=6, levels=4):
    """Level-synchronous explore: at K = 6 panels and L = 4 levels, BFS
    levels of up to 42,816 states expand as numpy columns over bit-packed
    state keys, with int64 shifts and masks by Python ints, which numpy
    typed differently before NEP 50 (numpy 2.0).  Every counterexample,
    read back from the JSON report, replays against the spec, the always
    eventually lasso among them, whose prefix comes from the BFS of its own
    search."""
    w = workloads.panels_workload(1, k=k, levels=levels)
    with _spec_file(w.source) as path:
        code, out = _cli_check(path, "--const", f"levels={levels}", "--timeout", "300")
    r = json.loads(out)
    assert code == 1, code
    assert (r["states"], r["transitions"]) == (w.states, w.transitions), r
    assert [(v["name"], v["status"]) for v in r["results"]] == list(w.verdicts), r["results"]
    bound = bind_constants(parse_spec(w.source), w.constants)
    traces = json_traces(r, bound.spec)
    replays = [replay_trace(bound, t) for t in traces]
    assert traces and replays == [None] * len(traces), replays
    return f"{r['states']} states, {r['transitions']} transitions: {len(traces)} traces replay"


def math_quizzes(n=600):
    """The north star's scale, which no benchmark workload reaches: the math
    quiz must pass all four checks as math.spa and as math_domains.spa,
    whose declared domains, a string one among them, put its wide levels in
    numpy columns and each state in one int64 key.  A graph that keeps
    tuples reads each value column through np.fromiter, a string one with
    dtype=object, which numpy has only since 1.23.  The two JSON reports,
    elapsed times aside, are the same byte for byte."""
    assert _math_report("math.spa", n) == _math_report("math_domains.spa", n)
    return f"{workloads.math_states(n)} states on both stores: all pass, reports equal"


def forall_one_pass(n=300):
    """A `forall` over `var = x` builds each block of 64 instances' bits in
    one pass over the variable's column (`liveness._binder_equality`); with
    that matcher forced off, every block packs one `holds` column per
    instance.  The quiz must give the same JSON report either way, byte for
    byte once elapsed times are stripped."""
    on, original = _math_report("math.spa", n), liveness._binder_equality
    liveness._binder_equality = lambda *args: None
    try:
        off = _math_report("math.spa", n)
    finally:
        liveness._binder_equality = original
    assert on == off
    return f"{workloads.math_states(n)} states: the same report with one-pass blocks on and off"


def math_buggy(n=600):
    """The longest discovery path in the corpus: the buggy quiz reaches
    what the quiz at n + 1 questions does (723,604 states at n = 600), and
    deadlocks after three steps for each of questions 1 to n and two for
    question n + 1 (a trace of 1,803 states), each named by the first edge
    from its parent (`StateGraph.edge_label`).  The trace replays against
    the spec."""
    constants = {"max_num_q": n}
    report, code = run_check(RunConfig(str(corpus_path("math_buggy.spa")), constants))
    length = 3 * n + 3
    assert (code, report.states) == (1, workloads.math_states(n + 1)), (code, report.states)
    traces = [(v.name, v.trace) for v in report.results if v.trace is not None]
    assert [(name, len(t.states)) for name, t in traces] == [("deadlock", length)], \
        [(name, len(t.states)) for name, t in traces]
    bound = bind_constants(parse_spec(corpus_text("math_buggy.spa")), constants)
    assert replay_trace(bound, traces[0][1]) is None
    return f"a deadlock trace of {length} states replays"


def key_store_limits(n=600, cap=700000):
    """A state limit met inside a column level of the key store: the level
    is cut where the loop stops, so the partial graph keeps its states as
    keys, and it is math.spa's partial graph under the same limit."""
    graphs = []
    for name in ("math_domains.spa", "math.spa"):
        bound = bind_constants(parse_spec(corpus_text(name)), {"max_num_q": n})
        try:
            explore(bound, ExploreLimits(max_states=cap))
        except LimitError as e:
            assert str(e) == f"state limit of {cap} exceeded", (name, str(e))
            graphs.append(e.graph)
        else:
            raise AssertionError(f"{name}: no state limit")
    keyed, listed = graphs
    assert isinstance(keyed.states, KeyStates), type(keyed.states)
    for field in ("levels", "edge_start", "edge_dst", "edge_action", "parent"):
        assert getattr(keyed, field) == getattr(listed, field), field
    assert keyed.states == listed.states
    return f"{keyed.n_states} states in keys: math.spa's partial graph"


def key_table_limits(k=6, cap=200000):
    """A state limit met inside a column level of panels, whose keys (18
    bits at K = 6) are looked up in a table: the level is cut where the loop
    stops, so the partial graph keeps its states as keys, and it is the
    partial graph of the same keys looked up in sorted runs."""
    w = workloads.panels_workload(1, k=k)
    bound = bind_constants(parse_spec(w.source), w.constants)
    dense = explorer._DENSE_BITS
    assert explorer._column_plan(bound).bits <= dense
    graphs = []
    for bits in (dense, 0):
        explorer._DENSE_BITS = bits
        try:
            explore(bound, ExploreLimits(max_states=cap))
        except LimitError as e:
            assert str(e) == f"state limit of {cap} exceeded", (bits, str(e))
            graphs.append(e.graph)
        else:
            raise AssertionError(f"dense bits {bits}: no state limit")
        finally:
            explorer._DENSE_BITS = dense
    table, runs = graphs
    assert isinstance(table.states, KeyStates), type(table.states)
    assert table.levels[-2] < cap, (cap, table.levels[-2])  # met inside the last level
    assert table == runs
    return f"{table.n_states} states in keys: the partial graph of the sorted runs"


def column_restart(x_max=2000, z_max=127):
    """A column level that raises where the loop does not: at level 1,024,
    `x * 2**53` overflows in a branch that no state takes.  Explore drops
    the graph of its column levels and explores again from the initial
    states with the loop alone, so the graph, in tuples, is the loop's."""
    source = (f"spec late\nvar x : int domain 0..{x_max} init 0\n"
              f"var z : int domain 0..{z_max} init in 0..{z_max}\n"
              "var y : int domain 0..0 init 0\n"
              f"action Up {{ when x < {x_max} x' = x + 1 }}\n"
              "action B { if x > 5000 { y' = x * 9007199254740992 } else { y' = 0 } }\n")
    bound = bind_constants(parse_spec(source), {})
    assert explorer._column_plan(bound) is not None
    graph, wide = explore(bound), explorer._WIDE
    explorer._WIDE = sys.maxsize
    try:
        loop = explore(bound)
    finally:
        explorer._WIDE = wide
    assert type(graph.states) is list, type(graph.states)
    assert graph == loop
    return f"{graph.n_states} states: the loop's graph after a column level raised"


def cli_exit(n=600):
    """`python -m spacheck check --json` in a process of its own, which
    exits with the import's objects still frozen out of the cyclic GC: the
    buggy quiz exits 1, and its stdout is the in-process report, its
    deadlock trace of 3n + 3 states (1,803 at n = 600) included, byte for
    byte once elapsed times are stripped."""
    path = str(corpus_path("math_buggy.spa"))
    report, code = run_check(RunConfig(path, {"max_num_q": n}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "spacheck", "check", path,
                           "--const", f"max_num_q={n}", "--json"],
                          env=env, capture_output=True, timeout=300)
    assert (code, proc.returncode) == (1, 1), (code, proc.returncode, proc.stderr)
    elapsed = re.compile(rb'"elapsed_ms": [0-9.e+-]+')
    want = elapsed.sub(b"", (emit_json(report) + "\n").encode("utf-8"))
    assert elapsed.sub(b"", proc.stdout) == want, (len(proc.stdout), len(want))
    return f"exit 1 and the in-process report, {len(proc.stdout)} bytes, on stdout"


CHECKS = (reference_successors, repeated_edges, panels, math_quizzes, forall_one_pass,
          math_buggy, key_store_limits, key_table_limits, column_restart, cli_exit)


def main() -> int:
    failed = False
    for check in CHECKS:
        t0 = time.perf_counter()
        try:
            message = check()
        except Exception:
            failed = True
            message = "FAILED\n" + traceback.format_exc()
        print(f"{check.__name__} ({time.perf_counter() - t0:.1f} s): {message}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
