"""Golden reports: the CLI's output on fixed inputs, byte for byte.

Each case runs `spacheck` in-process and compares its output with a file
under `tests/golden/`.  `elapsed_ms` in JSON and `elapsed: ... ms` in text are
the only fields a run may change; both are zeroed before comparing.  A change
that moves BFS numbering, a trace, a verdict or an exit code fails here.

`panels.spa` is `perfbench.workloads.panels_source(1, 3, 3)`, committed so
that the corpus has a spec with nested `if`s, self-loop-free edges and
several failing liveness properties.
"""

import json
import re

import pytest

from conftest import ROOT, build, corpus_path, json_traces
from spacheck import replay_trace
from spacheck.cli import main

GOLDEN = ROOT / "tests" / "golden"

MATH = str(corpus_path("math.spa"))
BUGGY = str(corpus_path("math_buggy.spa"))
CLOCK = str(corpus_path("clock.spa"))
PANELS = str(GOLDEN / "panels.spa")

# golden file -> (argv, exit code); a `.dot` case writes its graph to a file.
CASES = {
    "math5.json": (("check", MATH, "--const", "max_num_q=5", "--json"), 0),
    "math100.json": (("check", MATH, "--const", "max_num_q=100", "--json"), 0),
    "math_buggy3.json": (("check", BUGGY, "--const", "max_num_q=3", "--json"), 1),
    "math_buggy3.txt": (("check", BUGGY, "--const", "max_num_q=3"), 1),
    "clock.json": (("check", CLOCK, "--json"), 0),
    "panels.json": (("check", PANELS, "--const", "levels=3", "--json"), 1),
    "clock.dot": (("graph", CLOCK, "--dot"), 0),
}


def _strip_elapsed(text: str) -> str:
    text = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', text)
    return re.sub(r"elapsed: [0-9.]+ ms", "elapsed: 0 ms", text)


def render(name: str, capsys, tmp_path) -> tuple:
    """(output with elapsed times zeroed, exit code) of one case."""
    argv, _ = CASES[name]
    if name.endswith(".dot"):
        out_path = tmp_path / name
        code = main([*argv, str(out_path)])
        capsys.readouterr()
        return out_path.read_text(encoding="utf-8"), code
    code = main(list(argv))
    return _strip_elapsed(capsys.readouterr().out), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, code = render(name, capsys, tmp_path)
    assert code == CASES[name][1]
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_json_traces_replay():
    """Every failing trace of panels.json, rebuilt from its JSON, replays:
    each of its four lassos names the action that closes its loop."""
    bound = build((GOLDEN / "panels.spa").read_text(encoding="utf-8"), {"levels": 3})
    traces = json_traces(json.loads((GOLDEN / "panels.json").read_text(encoding="utf-8")),
                         bound.spec)
    assert [t.loop_action for t in traces] == ["Adjust_2"] * 4
    assert [replay_trace(bound, t) for t in traces] == [None] * 4
