"""CLI driver: exit codes, text and JSON reports, DOT export."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from conftest import ROOT, corpus_path, corpus_text
from spacheck import liveness
from spacheck.cli import main
from spacheck.explorer import Deadline

CLOCK = str(corpus_path("clock.spa"))
MATH = str(corpus_path("math.spa"))
BUGGY = str(corpus_path("math_buggy.spa"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# --- exit codes ------------------------------------------------------------------


def test_math_all_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "check", MATH, "--const", "max_num_q=5")
    assert code == 0
    assert "deadlock: pass" in out
    assert "Reachability: pass" in out
    assert "Liveness: pass" in out
    assert "Invariant: pass" in out


def test_module_entry_point_runs_cleanly():
    # `python -m spacheck` with warnings as errors: stderr stays empty
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    r = subprocess.run(
        [sys.executable, "-W", "error", "-m", "spacheck", "check",
         "examples/math.spa", "--const", "max_num_q=3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    assert "Reachability: pass" in r.stdout


def test_closed_pipe_ends_quietly():
    # the reader goes away before the report is written (`| head`): no
    # BrokenPipeError traceback, and the check's own exit code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "spacheck", "check", "examples/math.spa",
         "--const", "max_num_q=5"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_buggy_deadlock_exit_one(capsys):
    code, out, _ = run(capsys, "check", BUGGY, "--const", "max_num_q=3")
    assert code == 1
    assert "deadlock: fail" in out
    assert "num=4" in out.splitlines()[-2] or "num=4" in out  # trace reaches num=4


def test_missing_constant_exit_three(capsys):
    code, _, err = run(capsys, "check", MATH)
    assert code == 3
    assert "max_num_q unbound" in err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("check", MATH, "--const", "max_num_q=3", "--const", "max_num_q=4"), "duplicate"),
        (("check", MATH, "--const", "max_num_q=x"), "bad constant value"),
        (("check", MATH, "--const", "nope=3"), "unknown constant"),
        (("check", MATH, "--const", "max_num_q"), "expected name=value"),
        (("check", "/does/not/exist.spa", "--const", "max_num_q=3"), "cannot read"),
        (("check", MATH, "--const", "max_num_q=3", "--max-states", "0"), "positive"),
        (("check", MATH, "--const", 'max_num_q="a"b"'), "bad --const max_num_q"),
        (("check", MATH, "--const", 'max_num_q="a\nb"'), "bad --const max_num_q"),
        (("check", CLOCK, "--dot", "/no/such/dir/x.dot"), "cannot write /no/such/dir/x.dot"),
        (("graph", CLOCK, "--dot", "/no/such/dir/x.dot"), "cannot write /no/such/dir/x.dot"),
        (("check", MATH, "--const", "max_num_q=3", "--max-states", "5",
          "--dot", "/no/such/dir/x.dot"), "cannot write"),
        (("check", CLOCK, "--timeout", "0"), "--timeout must be positive"),
        (("check", CLOCK, "--timeout", "-1"), "--timeout must be positive"),
        (("check", CLOCK, "--timeout", "nan"), "--timeout must be positive"),
        (("check", CLOCK, "--timeout", "soon"), "invalid float value"),
        # past Python's 4,300-digit limit on int()
        (("check", MATH, "--const", "max_num_q=" + "1" * 5000), "out of 64-bit range"),
        (("check", CLOCK, "--max-depth", "0"), "error: --max-depth must be positive\n"),
    ],
)
def test_usage_errors_exit_three(capsys, argv, needle):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert needle in err


def test_leading_zeros_of_a_constant_are_dropped(capsys):
    # 4,400 zeros put the text past Python's digit limit, not its value
    _, want, _ = run_json(capsys, "check", MATH, "--const", "max_num_q=3", "--json")
    code, got, _ = run_json(capsys, "check", MATH, "--const", "max_num_q=" + "0" * 4400 + "3",
                            "--json")
    assert code == 0
    assert got["states"] == 24
    del want["elapsed_ms"], got["elapsed_ms"]
    assert got == want


def test_parse_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.spa"
    bad.write_text("spec t\nvar x : int init\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "bad.spa:" in err


def test_expression_if_without_then_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.spa"
    bad.write_text("spec t\nvar x : int init 0\n\naction A {\n    x' = if x = 0 x else 1\n}\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}:5:19: expected 'then' but found 'x'\n"


def test_bool_and_string_constants_bind_and_are_echoed(capsys, tmp_path):
    spec = tmp_path / "consts.spa"
    spec.write_text('spec consts\nconst flag : bool\nconst label : string\n'
                    'var on : bool init flag\nvar name : string init label\n'
                    'action Stay {\nwhen on = flag\n}\n')
    for flag in ("true", "false"):
        code, out, err = run(capsys, "check", str(spec), "--const", f"flag={flag}",
                             "--const", 'label="a b"')
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f'constants: flag={flag}, label="a b"'
        assert out.splitlines()[3] == "deadlock: pass - no deadlock in 1 states"
        _, doc, _ = run_json(capsys, "check", str(spec), "--const", f"flag={flag}",
                                "--const", 'label="a b"', "--json")
        assert doc["constants"] == {"flag": flag == "true", "label": "a b"}


def test_integer_literal_past_python_digit_limit_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.spa"
    bad.write_text("spec t\nvar x : int init " + "1" * 5000 + "\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}:2:18: integer literal {'1' * 5000} out of 64-bit range\n"


def test_non_utf8_spec_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.spa"
    bad.write_bytes(b"spec t\n\xff\xfe")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text (byte 7)\n"


@pytest.mark.parametrize("name, consts", [("clock.spa", []),
                                           ("math_buggy.spa", ["--const", "max_num_q=3"])])
def test_byte_order_mark_is_dropped(capsys, tmp_path, name, consts):
    """A spec saved with a UTF-8 byte-order mark, as some editors do, checks
    as it does without one."""
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + corpus_path(name).read_bytes())
    want = run_json(capsys, "check", str(corpus_path(name)), *consts, "--json")
    got = run_json(capsys, "check", str(marked), *consts, "--json")
    del want[1]["elapsed_ms"], got[1]["elapsed_ms"]
    assert got == want
    assert got[0] == (0 if name == "clock.spa" else 1)


def test_bad_byte_after_byte_order_mark_has_its_file_offset(capsys, tmp_path):
    bad = tmp_path / "bad.spa"
    bad.write_bytes(b"\xef\xbb\xbfspec t\n\xff")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text (byte 10)\n"


def test_validate_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.spa"
    bad.write_text('spec t\nvar x : int init 1\naction A { x\' = "s" }\n')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "x' is int" in err


def _nested_ifs(depth):
    body = "x' = 1\n"
    for _ in range(depth):
        body = "if x < 5 {\n" + body + "}\n"
    return "spec deep\nvar x : int init 0\naction A {\n" + body + "}\n"


def _long_sum(terms):
    return " + ".join(["1"] * terms)


# Each nests deeper than Python's default recursion limit allows: in the
# parser, in validate, in the action's compiled expression, and in a
# property's compiled expression.  The parser says where it stopped,
# validating and exploring name the action, and a property that cannot be
# compiled is an error verdict at its expression, in the report.
_TOO_DEEP = "the spec nests too deeply to check"


@pytest.mark.parametrize("source,stream,message", [
    (_nested_ifs(600), "err", r":\d+:\d+: the spec nests too deeply to parse\n"),
    ("spec deep\nvar x : int init 0\naction A {\nx' = " + _long_sum(1500) + "\n}\n",
     "err", f": action A at 3:1: {_TOO_DEEP}\n"),
    ("spec deep\nvar x : int init 0\naction A {\nx' = " + _long_sum(600) + "\n}\n",
     "err", f": action A at 3:1: {_TOO_DEEP}\n"),
    ("spec deep\nvar x : int init 0\naction A {\nx' = 1\n}\n"
     "property P: eventually (x = " + _long_sum(600) + ")\n",
     "out", f"P: error - property P at 6:27: {_TOO_DEEP}"),
], ids=["nested_ifs", "sum_1500", "sum_600_action", "sum_600_property"])
def test_deep_spec_exit_two(capsys, tmp_path, source, stream, message):
    deep = tmp_path / "deep.spa"
    deep.write_text(source)
    code, out, err = run(capsys, "check", str(deep))
    assert code == 2
    if stream == "err":
        assert out == ""
        assert re.fullmatch(f"error: {re.escape(str(deep))}{message}", err), err
    else:
        assert err == ""
        assert message in out.splitlines(), out


def test_helper_calls_past_the_limit_exit_two(capsys, tmp_path):
    # 1,001 `if`s in a row, each with an `any` inside: the action's code
    # would run 1,000 helper calls deep
    n = 1001
    decls = "".join(f"var v{k} : int init 0\n" for k in range(n))
    body = "".join(f"if v{k} = 0 {{\nany c{k} in {{1}} {{\nv{k}' = c{k}\n}}\n}}\n"
                   for k in range(n))
    deep = tmp_path / "deep.spa"
    deep.write_text(f"spec t\n{decls}action A {{\n{body}}}\n")
    code, out, err = run(capsys, "check", str(deep))
    assert (code, out) == (2, "")
    assert err == f"error: {deep}: action A at {n + 2}:1: {_TOO_DEEP}\n"


def test_initial_value_outside_its_domain_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.spa"
    bad.write_text("spec t\nvar y : bool init false\nvar z : bool init true\n"
                   "var x : int domain 0..3 init 5\naction A {\nwhen y\n}\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: var x at 4:1: initial value 5 of x is outside its domain\n"


def test_empty_initial_set_is_located_at_its_variable(capsys, tmp_path):
    spec = tmp_path / "empty.spa"
    spec.write_text("spec t\nvar y : bool init true\nvar x : int init in 1..0\n"
                    "var z : int init in 2..1\naction A {\nwhen y\n}\n")
    code, out, err = run(capsys, "check", str(spec))
    assert (code, out) == (2, "")
    assert err == f"error: {spec}: var x at 3:1: spec has no initial states\n"


def test_forall_binder_set_past_the_set_limit_exit_two(capsys, tmp_path):
    spec = tmp_path / "big.spa"
    spec.write_text("spec t\nvar x : int init 0\naction A {\nx' = 1 - x\n}\n\n"
                    "property P: forall k in 1..2000000 : eventually (x = k)\n")
    code, out, err = run(capsys, "check", str(spec))
    assert (code, err) == (2, "")
    assert out.splitlines()[2:] == [
        "deadlock: pass - no deadlock in 2 states",
        "P: error - property P at 7:25: range 1..2000000 exceeds the 1048576-element set limit"]


def test_limit_error_exit_two(capsys):
    code, _, err = run(
        capsys, "check", MATH, "--const", "max_num_q=5", "--max-states", "7",
    )
    assert code == 2
    assert "state limit" in err


def test_exit_codes_mutually_exclusive(capsys, tmp_path):
    # one representative run per class; codes must differ pairwise
    seen = {}
    seen[0] = run(capsys, "check", CLOCK)[0]
    seen[1] = run(capsys, "check", BUGGY, "--const", "max_num_q=3")[0]
    seen[2] = run(capsys, "check", MATH, "--const", "max_num_q=5", "--max-states", "7")[0]
    seen[3] = run(capsys, "check", MATH)[0]
    assert seen == {0: 0, 1: 1, 2: 2, 3: 3}


# --- JSON reports -------------------------------------------------------------------


def test_math_json_schema(capsys):
    code, doc, _ = run_json(capsys, "check", MATH, "--const", "max_num_q=5", "--json")
    assert code == 0
    assert list(doc) == ["spec", "constants", "states", "transitions", "elapsed_ms", "results"]
    assert doc["spec"] == "math"
    assert doc["constants"] == {"max_num_q": 5}
    assert len(doc["results"]) == 4
    for r in doc["results"]:
        assert list(r) == ["name", "kind", "status", "binder", "trace", "detail"]
        assert r["status"] == "pass"
        assert r["trace"] is None


def test_clock_json_counts(capsys):
    code, doc, _ = run_json(capsys, "check", CLOCK, "--json")
    assert code == 0
    assert doc["states"] == 24
    assert doc["transitions"] == 24


def test_failing_invariant_json_trace(capsys, tmp_path):
    spec = tmp_path / "mathbad.spa"
    spec.write_text(
        corpus_text("math.spa") + "invariant Bad: num = count_right + count_wrong\n"
    )
    code, doc, _ = run_json(capsys, "check", str(spec), "--const", "max_num_q=5", "--json")
    assert code == 1
    bad = [r for r in doc["results"] if r["name"] == "Bad"][0]
    assert bad["status"] == "fail"
    trace = bad["trace"]
    assert list(trace) == ["states", "actions", "loop_start", "loop_action"]
    assert len(trace["states"]) == 1
    assert trace["actions"] == []
    assert trace["loop_start"] is None and trace["loop_action"] is None


def test_json_round_trips_value_kinds(capsys, tmp_path):
    spec = tmp_path / "kinds.spa"
    spec.write_text(
        "spec kinds\n"
        'var s : string init "am"\nvar n : int init 3\nvar b : bool init true\n'
        "action Stay { when n = 3 }\n"
        "invariant Bad: n = 4\n"
    )
    code, doc, _ = run_json(capsys, "check", str(spec), "--json")
    assert code == 1
    state = [r for r in doc["results"] if r["name"] == "Bad"][0]["trace"]["states"][0]
    assert state == {"s": "am", "n": 3, "b": True}
    assert isinstance(state["b"], bool) and isinstance(state["n"], int)


def test_text_and_json_statuses_agree(capsys):
    _, doc, _ = run_json(capsys, "check", BUGGY, "--const", "max_num_q=3", "--json")
    _, text, _ = run(capsys, "check", BUGGY, "--const", "max_num_q=3")
    for r in doc["results"]:
        assert f"{r['name']}: {r['status']}" in text


def test_no_deadlock_flag(capsys):
    code, doc, _ = run_json(
        capsys, "check", MATH, "--const", "max_num_q=3", "--json", "--no-deadlock"
    )
    assert code == 0
    assert [r["name"] for r in doc["results"]] == ["Reachability", "Liveness", "Invariant"]


def test_lasso_trace_rendering(capsys, tmp_path):
    spec = tmp_path / "live.spa"
    spec.write_text(
        corpus_text("math.spa") + "property Q6: eventually (num = 6)\n"
    )
    code, out, _ = run(capsys, "check", str(spec), "--const", "max_num_q=5")
    assert code == 1
    assert "loop to state" in out
    code, doc, _ = run_json(capsys, "check", str(spec), "--const", "max_num_q=5", "--json")
    q6 = [r for r in doc["results"] if r["name"] == "Q6"][0]
    assert q6["status"] == "fail"
    assert q6["trace"]["loop_start"] == len(q6["trace"]["states"]) - 1
    assert q6["trace"]["states"][-1]["num"] == 5


def test_property_error_exit_two(capsys, tmp_path):
    spec = tmp_path / "boom.spa"
    spec.write_text(
        corpus_text("math.spa")
        + "property Boom: eventually (num * 8000000000000000000 > 0)\n"
    )
    code, doc, _ = run_json(capsys, "check", str(spec), "--const", "max_num_q=3", "--json")
    assert code == 2
    boom = [r for r in doc["results"] if r["name"] == "Boom"][0]
    assert boom["status"] == "error"


def test_max_depth_flag_exit_two(capsys):
    code, _, err = run(
        capsys, "check", MATH, "--const", "max_num_q=3", "--max-depth", "2",
    )
    assert code == 2
    assert "depth limit" in err


# A billion reachable states: three counters, each stepping 0..999.
_HUGE = """spec huge
var a : int init 0
var b : int init 0
var c : int init 0
action A { when a < 999 a' = a + 1 }
action B { when b < 999 b' = b + 1 }
action C { when c < 999 c' = c + 1 }
"""


def test_timeout_while_exploring_exit_two(capsys, tmp_path):
    spec = tmp_path / "huge.spa"
    spec.write_text(_HUGE)
    t0 = time.monotonic()
    code, out, err = run(capsys, "check", str(spec), "--timeout", "0.3")
    assert time.monotonic() - t0 < 10
    assert code == 2
    assert out == ""
    assert re.fullmatch(
        rf"error: {re.escape(str(spec))}: time limit of 0\.3 s exceeded while exploring"
        r" \(\d+ states, depth \d+\)\n", err), err


def test_timeout_while_checking_a_property_exit_two(capsys):
    # 24 states: exploring never reaches its first deadline check, at 1,024
    # expanded states, so the first property meets the deadline.
    code, out, err = run(capsys, "check", MATH, "--const", "max_num_q=3", "--timeout", "1e-9")
    assert code == 2
    assert out == ""
    assert err == (f"error: {MATH}: time limit of 1e-09 s exceeded while checking"
                   " property Reachability\n")


def test_timeout_after_the_first_forall_block_exit_two(capsys, monkeypatch):
    # Reachability's 70 instances: one searched, then blocks of 64 and 5; the
    # clock runs out once the first block is swept
    real, sweeps = liveness._sweep, []

    def sweep(*args):
        sweeps.append(args)
        return real(*args)

    monkeypatch.setattr(liveness, "_sweep", sweep)
    monkeypatch.setattr(Deadline, "expired", lambda self: len(sweeps) > 0)
    code, out, err = run(capsys, "check", MATH, "--const", "max_num_q=70", "--timeout", "3600")
    assert code == 2
    assert out == ""
    assert err == (f"error: {MATH}: time limit of 3600 s exceeded while checking"
                   " property Reachability\n")
    assert len(sweeps) == 1


# --- DOT export ---------------------------------------------------------------------


def test_clock_dot(capsys, tmp_path):
    dot = tmp_path / "clock.dot"
    code, _, _ = run(capsys, "graph", CLOCK, "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert len(re.findall(r"^\s+\d+ \[label=", text, re.M)) == 24
    edges = re.findall(r"(\d+) -> (\d+) \[label=\"(\w+)\"\]", text)
    assert len(edges) == 24
    assert {label for _, _, label in edges} == {"Next"}
    # all 24 states are initial and drawn with the distinct shape
    assert text.count("doubleoctagon") == 24


def test_math1_dot_fan_out(capsys, tmp_path):
    dot = tmp_path / "math1.dot"
    code, _, _ = run(capsys, "check", MATH, "--const", "max_num_q=1", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert len(re.findall(r"^\s+\d+ \[label=", text, re.M)) == 4
    check_edges = re.findall(r"(\d+) -> (\d+) \[label=\"Check\"\]", text)
    assert len(check_edges) == 2
    assert len({src for src, _, in check_edges}) == 1  # both leave the phase-B node


def test_failed_run_leaves_dot_path_alone(capsys, tmp_path):
    # the --dot path is checked before exploring; a run that then fails
    # neither creates the file nor touches one that is there
    fresh, existing = tmp_path / "fresh.dot", tmp_path / "existing.dot"
    existing.write_text("keep")
    for dot in (fresh, existing):
        code, _, err = run(capsys, "check", MATH, "--const", "max_num_q=3",
                           "--max-states", "5", "--dot", str(dot))
        assert code == 2
        assert "state limit" in err
    assert not fresh.exists()
    assert existing.read_text() == "keep"


def test_dot_without_properties(capsys, tmp_path):
    spec = tmp_path / "noprop.spa"
    spec.write_text("spec bare\nvar x : bool init true\naction Stay { when x }\n")
    dot = tmp_path / "bare.dot"
    code, _, _ = run(capsys, "graph", str(spec), "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph bare {")


def test_dot_label_keeps_a_string_value_whole(capsys, tmp_path):
    spec = tmp_path / "label.spa"
    spec.write_text('spec label\nvar label : string init "a, b"\nvar n : int init 1\n'
                    "action Stay { when n = 1 }\n")
    dot = tmp_path / "label.dot"
    code, _, _ = run(capsys, "graph", str(spec), "--dot", str(dot))
    assert code == 0
    assert '  0 [label="0\\nlabel=\\"a, b\\",n=1", shape=doubleoctagon];' \
        in dot.read_text().splitlines()


@pytest.mark.parametrize("name", ["node", "Edge", "GRAPH", "digraph", "subgraph", "strict"])
def test_dot_quotes_a_spec_named_by_a_keyword(capsys, tmp_path, name):
    spec = tmp_path / "kw.spa"
    spec.write_text(f"spec {name}\nvar x : bool init true\naction Stay {{ when x }}\n")
    dot = tmp_path / "kw.dot"
    code, _, _ = run(capsys, "graph", str(spec), "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith(f'digraph "{name}" {{\n')
