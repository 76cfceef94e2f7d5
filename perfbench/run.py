"""spacheck benchmark: complete `spacheck check` runs on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload math-dag --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: one check at a time, each in a
fresh child interpreter (`perfbench/child.py`, started with `PYTHONPATH=src`),
repeated until `--seconds` have passed and at least `MIN_REPS` checks are
done.  Every check's output is compared with an expectation that
`workloads.py` derives independently of the checker; a wrong verdict or
count, a trace that does not replay, a report that differs from the run's
first one (once `elapsed_ms` is stripped), a crash or a timeout counts the
check as failed.

`--trace 0` reports the end-to-end metrics, each the median over the run's
checks.  Times are reported in units of a fixed reference workload timed
just before and just after each check (see `END_TO_END`);
`failed / attempted` takes the place of a failure-rate metric.  `--trace 1`
alternates untraced and traced checks; the traced ones time each module's
public functions from outside and give the per-layer metrics (medians over
traced checks), plus the tracing overhead and the share of the check that no
layer span covers.  The metric names, units and directions are those of
BENCHMARK.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Generated specs, per-run
results (with nproc, Python/numpy/scipy versions and the commit) and spans
go under `.perfbench/` at the repository root.  Exit status: 0 when every
check was correct, 1 when one was not, 2 when the checker's sources are
missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_REPS = 3
CHILD_TIMEOUT_S = 60.0
REFERENCE_TIMEOUT_S = 10.0
RUN_LIMIT_S = 170.0  # no check starts unless it and the next reference can time out before this
ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')

# name -> (unit, which direction is better); BENCHMARK.json lists the same.
# A `_ref` metric is a time divided by the mean time of the reference
# workload (`reference.py`) run just before and just after the check, so that
# it does not move with the speed the shared machine gives the benchmark from
# one minute to the next; the raw seconds are printed and kept with the
# results, unbounded.
END_TO_END = {
    "check_ref": ("ref", "lower"),
    "check_cpu_ref": ("ref", "lower"),
    "cli_ref": ("ref", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
RAW_SECONDS = ("check_s", "check_cpu_s", "cli_s", "reference_s")
PER_LAYER = {
    "parser.parse_s": ("s", "lower"),
    "semantics.bind_validate_s": ("s", "lower"),
    "semantics.successors_s": ("s", "lower"),
    "explorer.explore_s": ("s", "lower"),
    "explorer.states": ("count", "lower"),
    "explorer.transitions": ("count", "lower"),
    "explorer.states_per_s": ("1/s", "higher"),
    "explorer.intern_s": ("s", "lower"),
    "explorer.rss_per_state_b": ("B", "lower"),
    "explorer.deadlock_s": ("s", "lower"),
    "explorer.invariant_s": ("s", "lower"),
    "explorer.replay_s": ("s", "lower"),
    "liveness.analysis_s": ("s", "lower"),
    "liveness.eventually_s": ("s", "lower"),
    "liveness.leadsto_s": ("s", "lower"),
    "liveness.always_eventually_s": ("s", "lower"),
    "liveness.pass_s": ("s", "lower"),
    "liveness.fail_s": ("s", "lower"),
    "liveness.forall_instances": ("count", "lower"),
    "liveness.forall_instance_ms": ("ms", "lower"),
    "cli.report_s": ("s", "lower"),
    "cli.json_bytes": ("B", "lower"),
    "trace.uncovered_frac": ("fraction", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


# --- one child --------------------------------------------------------------------


def run_reference() -> float:
    """Time of the reference workload, in a process of its own."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reference workload failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_child(spec_path: Path, wl: workloads.Workload, traced: bool) -> dict:
    """Start one check and wait for it.  Returns the child's record plus the
    parent-side timings; on a crash or timeout, `{"error": ...}`."""
    # One hash seed for every child, so that string hashing, and with it dict
    # probing, costs the same in each repetition.
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path),
           json.dumps(wl.constants), "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    exited = time.monotonic()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {err.strip()[-500:]}"}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["imported_at"] - spawned
    rec["cli_s"] = exited - spawned - rec["bench_only_s"]
    rec["peak_rss_mb"] = rec["maxrss_kb"] / 1024.0
    return rec


def normalise(rec: dict, ref_before: float, ref_after: float) -> None:
    rec["reference_s"] = (ref_before + ref_after) / 2
    for name in ("check", "check_cpu", "cli"):
        rec[f"{name}_ref"] = rec[f"{name}_s"] / rec["reference_s"]


def verify(rec: dict, wl: workloads.Workload, first_report: str | None) -> list:
    """Differences between one check's output and the expectation."""
    if "error" in rec:
        return [rec["error"]]
    problems = []
    if rec["exit_code"] != wl.exit_code:
        problems.append(f"exit code {rec['exit_code']}, expected {wl.exit_code}")
    try:
        doc = json.loads(rec["report"])
    except ValueError:
        return problems + ["report is not JSON"]
    if (doc["states"], doc["transitions"]) != (wl.states, wl.transitions):
        problems.append(f"{doc['states']} states and {doc['transitions']} transitions, "
                        f"expected {wl.states} and {wl.transitions}")
    got = tuple((r["name"], r["status"]) for r in doc["results"])
    if got != wl.verdicts:
        problems.append(f"verdicts {got}, expected {wl.verdicts}")
    for r in doc["results"]:
        if (r["status"] == "fail") != (r["trace"] is not None):
            problems.append(f"{r['name']}: status {r['status']} with trace {r['trace'] is not None}")
    bad = [i for i in rec.get("replay", []) if i is not None]
    if bad or len(rec.get("replay", [])) != sum(r["status"] == "fail" for r in doc["results"]):
        problems.append(f"failure traces do not replay: {rec.get('replay')}")
    if first_report is not None and ELAPSED.sub("", rec["report"]) != first_report:
        problems.append("report differs from the run's first one beyond elapsed_ms")
    return problems


# --- per-layer metrics from one traced check ------------------------------------------


def layer_metrics(rec: dict) -> dict:
    spans = rec["spans"]
    outside = rec["outside"]

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in spans if s["name"] == name)

    check = next(s for s in spans if s["name"] == "cli.check")
    explore = next(s for s in spans if s["name"] == "explorer.explore")
    kinds = ("liveness.eventually", "liveness.leadsto", "liveness.always_eventually")
    live = [s for s in spans if s["name"] in kinds]
    forall = {s["id"] for s in spans
              if s["name"] == "liveness.check_property" and s["attrs"]["forall"]}
    instances = [dur(s) for s in live if s["parent"] in forall]
    states = explore["attrs"]["states"]
    explore_s = dur(explore)
    covered = sum(dur(s) for s in spans if s["parent"] == check["id"])
    return {
        "parser.parse_s": total("parser.parse_spec"),
        "semantics.bind_validate_s": total("semantics.bind_constants") + total("semantics.validate"),
        "semantics.successors_s": outside["successors_s"],
        "explorer.explore_s": explore_s,
        "explorer.states": states,
        "explorer.transitions": explore["attrs"]["transitions"],
        "explorer.states_per_s": states / explore_s,
        # derived: explore time not spent generating successors
        "explorer.intern_s": explore_s - outside["successors_s"],
        "explorer.rss_per_state_b":
            (explore["attrs"]["rss_after"] - explore["attrs"]["rss_before"]) / states,
        "explorer.deadlock_s": total("explorer.check_deadlock"),
        "explorer.invariant_s": total("explorer.check_invariant"),
        "explorer.replay_s": outside["replay_s"],
        "liveness.analysis_s": outside["analysis_s"],
        "liveness.eventually_s": total("liveness.eventually"),
        "liveness.leadsto_s": total("liveness.leadsto"),
        "liveness.always_eventually_s": total("liveness.always_eventually"),
        "liveness.pass_s": sum(dur(s) for s in live if s["attrs"]["status"] == "pass"),
        "liveness.fail_s": sum(dur(s) for s in live if s["attrs"]["status"] == "fail"),
        "liveness.forall_instances": len(instances),
        "liveness.forall_instance_ms": 1000.0 * sum(instances) / max(len(instances), 1),
        "cli.report_s": total("cli.emit_json") + outside["render_s"],
        "cli.json_bytes": len(rec["report"].encode("utf-8")),
        "trace.uncovered_frac": (dur(check) - covered) / dur(check),
    }


# --- the run ------------------------------------------------------------------------


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit(),
    }


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def medians(table: dict, samples: list) -> dict:
    return {name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
            for name, (unit, _) in table.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "spacheck" / "__init__.py").is_file():
        print(f"error: no checker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    # Compile once, so no repetition pays for writing bytecode.
    compileall.compile_dir(ROOT / "src", quiet=1)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = ROOT / ".perfbench"
    (out_dir / "work").mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "work" / f"{wl.name}-seed{args.seed}.spa"
    spec_path.write_text(wl.source, encoding="utf-8")

    ref_before = run_reference()
    deadline = started + args.seconds
    plain, traced, problems = [], [], []
    first_report = None
    attempted = 0
    while True:
        now = time.monotonic()
        if now + CHILD_TIMEOUT_S + REFERENCE_TIMEOUT_S > started + RUN_LIMIT_S:
            break
        enough = len(plain) >= MIN_REPS and (traced or not args.trace)
        if now >= deadline and (enough or problems):
            break
        is_traced = bool(args.trace) and attempted % 2 == 1
        rec = run_child(spec_path, wl, is_traced)
        attempted += 1
        found = verify(rec, wl, first_report)
        if found:
            problems.append({"check": attempted, "traced": is_traced, "problems": found})
            continue
        ref_after = run_reference()
        normalise(rec, ref_before, ref_after)
        ref_before = ref_after
        if first_report is None:
            first_report = ELAPSED.sub("", rec["report"])
        (traced if is_traced else plain).append(rec)

    env = environment()
    print(f"workload {wl.name} seed {args.seed}: {wl.states} states, "
          f"{wl.transitions} transitions; {env}")
    for p in problems:
        print(f"check {p['check']} FAILED: {'; '.join(p['problems'])}")

    metrics: dict = {}
    if plain and (traced or not args.trace):
        if args.trace:
            overhead = (statistics.median(r["check_ref"] for r in traced)
                        / statistics.median(r["check_ref"] for r in plain))
            layers = [dict(layer_metrics(r), **{"trace.overhead_ratio": overhead})
                      for r in traced]
            metrics = medians(PER_LAYER, layers)
        else:
            metrics = medians(END_TO_END, plain)
        counts = f"{len(plain)} untraced" + (f", {len(traced)} traced" if args.trace else "")
        print(f"medians over {counts} checks:")
        raw = {name: {"value": statistics.median(r[name] for r in plain), "unit": "s"}
               for name in RAW_SECONDS}
        for name, m in {**metrics, **raw}.items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")

    failed = len(problems)
    print(f"failed_frac {failed}/{attempted}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (out_dir / "results").mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    samples = [dict({k: r[k] for k in (*END_TO_END, *RAW_SECONDS)}, traced=is_traced)
               for is_traced, recs in ((False, plain), (True, traced)) for r in recs]
    with open(out_dir / "results" / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "problems": problems,
                   "samples": samples}, fh, indent=1)
    if args.trace:
        spans = [dict(s, check=i) for i, r in enumerate(traced) for s in r["spans"]]
        with open(out_dir / "results" / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
