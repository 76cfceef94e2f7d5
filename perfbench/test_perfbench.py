"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spacheck import RunConfig, bind_constants, explore, parse_spec, run_check  # noqa: E402


def _explore(wl):
    bound = bind_constants(parse_spec(wl.source), wl.constants)
    return explore(bound)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    make = workloads.WORKLOADS[name]
    assert make(5) == make(5)
    sources = {make(seed).source for seed in range(8)}
    assert len(sources) > 1  # the seed does permute something
    expected = {(w.states, w.transitions, w.verdicts) for w in map(make, range(8))}
    assert len(expected) == 1  # ... but never the expectation


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_math_closed_forms_match_explore(n, cyclic):
    wl = workloads.math_workload(seed=n, cyclic=cyclic, n=n)
    graph = _explore(wl)
    assert (graph.n_states, graph.n_transitions) == (wl.states, wl.transitions)


def test_math_closed_forms_at_scale():
    for n in (100, 200, 300):
        graph = _explore(workloads.math_workload(seed=0, cyclic=False, n=n))
        assert (graph.n_states, graph.n_transitions) == (
            workloads.math_states(n), workloads.math_transitions(n))


@pytest.mark.parametrize("k,levels", [(2, 2), (2, 3), (3, 2)])
def test_panels_closed_forms_match_explore(k, levels):
    wl = workloads.panels_workload(seed=k * levels, k=k, levels=levels)
    graph = _explore(wl)
    assert (graph.n_states, graph.n_transitions) == (wl.states, wl.transitions)


@pytest.mark.parametrize("wl", [
    workloads.math_workload(seed=3, cyclic=False, n=3),
    workloads.math_workload(seed=3, cyclic=True, n=3),
    workloads.panels_workload(seed=3, k=2, levels=2),
    workloads.panels_workload(seed=4, k=3, levels=3),
], ids=lambda wl: wl.name)
def test_expected_verdicts_at_small_sizes(wl, tmp_path):
    spec = tmp_path / "w.spa"
    spec.write_text(wl.source, encoding="utf-8")
    report, code = run_check(RunConfig(spec_path=str(spec), constants=wl.constants))
    assert code == wl.exit_code
    assert tuple((v.name, v.status) for v in report.results) == wl.verdicts


def test_benchmark_json_lists_every_metric_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert listed == run.END_TO_END
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == run.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def _small_check(tmp_path, traced, wl=None):
    wl = wl or workloads.math_workload(seed=1, cyclic=True, n=4)
    spec = tmp_path / "w.spa"
    spec.write_text(wl.source, encoding="utf-8")
    return wl, run.run_child(spec, wl, traced)


def test_traced_child_gives_every_per_layer_metric(tmp_path):
    wl, rec = _small_check(tmp_path, traced=True)
    assert run.verify(rec, wl, None) == []
    layers = run.layer_metrics(rec)
    assert set(layers) | {"trace.overhead_ratio"} == set(run.PER_LAYER)
    assert layers["explorer.states"] == wl.states
    assert layers["liveness.forall_instances"] == 4
    assert all(layers[n] > 0 for n in layers
               if n not in ("trace.uncovered_frac", "explorer.rss_per_state_b"))


def test_untraced_child_gives_every_end_to_end_metric(tmp_path):
    wl, rec = _small_check(tmp_path, traced=False)
    assert run.verify(rec, wl, None) == []
    run.normalise(rec, run.run_reference(), run.run_reference())
    assert all(rec[name] > 0 for name in (*run.END_TO_END, *run.RAW_SECONDS))


def test_wrong_expectation_and_changed_report_are_failures(tmp_path):
    wl, rec = _small_check(tmp_path, traced=False)
    wrong = workloads.Workload(wl.name, wl.source, wl.constants, wl.states + 1,
                               wl.transitions, wl.verdicts[:-1] + (("Learns", "pass"),))
    problems = run.verify(rec, wrong, "another report")
    assert any("states" in p for p in problems)
    assert any("verdicts" in p for p in problems)
    assert any("exit code" in p for p in problems)
    assert any("differs" in p for p in problems)


def test_timeout_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.05)
    wl, rec = _small_check(tmp_path, traced=False)
    assert "timed out" in run.verify(rec, wl, None)[0]


def test_runner_refuses_without_checker_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "math-dag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
