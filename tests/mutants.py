"""Mutation checks of spacheck's verdict code: `PYTHONPATH=src python
tests/mutants.py` breaks the checker one exact-text mutant at a time and
runs a named subset of the tests against each, to show that the tests
catch the break.

For each mutant the script copies `src/`, with `tests/`, `examples/` and
`perfbench/`, whose tests and child processes import the checker from the
copy's `src/`, to a temporary directory, and replaces the mutant's text,
which must occur exactly once, in one file of the copy.  It then runs
`python -m pytest -x` over the mutant's tests in a subprocess, with
`PYTHONPATH` set to the copy's `src/`, under a timeout of `TIMEOUT`
seconds, and prints one line per mutant: killed (a test failed, named at
the end of the line), survived (every test passed), timed out, or error
(pytest could not run the tests), with the time it took.

A mutant marked equivalent changes no verdict, graph or report, so no
test can kill it; its reason says why.  The script exits 1 when a mutant
that is not marked equivalent is not killed, else 0."""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "examples", "perfbench")
TIMEOUT = 120  # seconds for one mutant's tests


@dataclass
class Mutant:
    file: str  # under src/spacheck/
    text: str  # exact text, found once in the file
    replacement: str
    tests: list  # pytest arguments: files or node ids under the copy
    why: str  # what the mutant breaks
    equivalent: Optional[str] = None  # why no test can kill it


MUTANTS = [
    Mutant("semantics.py", 'f"{pad}for t in dict.fromkeys(out):"', 'f"{pad}for t in out:"',
           ["tests/test_successors.py"],
           "an action whose `any` choices collide emits one successor twice"),
    Mutant("explorer.py", "if lend - i >= wide:", "if lend - i > wide:",
           ["tests/test_explorer.py"],
           "a level exactly `wide` states wide runs through the loop"),
    Mutant("explorer.py", "cap = lend if deep else max_states", "cap = max_states",
           ["tests/test_explorer.py"],
           "the loop never meets the depth limit"),
    Mutant("explorer.py", "fresh = fresh[:np.searchsorted(first, edges)]",
           "fresh = fresh[:fresh.size]",
           ["tests/test_explorer.py"],
           "a cut column level keeps the new states past the cut rows"),
    Mutant("explorer.py", "fresh = unique[new]\n        self.add(fresh, n)\n",
           "fresh = unique[new]\n",
           ["tests/test_explorer.py"],
           "the sorted runs never learn a new key, so every level finds its states new"),
    Mutant("explorer.py", "closes = target == last and _is_quiescent(last, bound)",
           "closes = target == last",
           ["tests/test_explorer.py"],
           "replay accepts a perpetual stutter at a state that can move"),
    Mutant("liveness.py", "keep[hit + k] = False", "pass",
           ["tests/test_liveness.py"],
           "a short row keeps a repeated edge, on which scipy's strong components loop"
           " forever: the conftest fixture must fail it fast"),
    Mutant("liveness.py", "for _ in range(_SWEEP_ROUNDS + 1):", "for _ in range(1):",
           ["tests/test_liveness.py"],
           "the `forall` sweep stops after one round"),
    Mutant("liveness.py", "return [k for k in range(len(instances)) if flags >> k & 1]",
           "return []",
           ["tests/test_liveness.py"],
           "the `forall` sweep passes every instance after the first"),
    Mutant("explorer.py", "np.diff(np.frombuffer(graph.edge_start, dtype=np.int64)) == 0)",
           "np.diff(np.frombuffer(graph.edge_start, dtype=np.int64)) == 1)",
           ["tests/test_golden.py", "tests/test_acceptance.py"],
           "the deadlock check flags a state with one edge instead of none"),
    Mutant("cli.py", 'EXIT_FAIL if "fail" in statuses else EXIT_OK',
           'EXIT_OK if "fail" in statuses else EXIT_OK',
           ["tests/test_cli.py"],
           "a failed property exits 0"),
]


def run_mutant(mutant: Mutant) -> tuple:
    """(outcome, seconds, the failed test or "") of `mutant`'s tests on a
    mutated copy."""
    with tempfile.TemporaryDirectory(prefix="spacheck-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        path = copy / "src" / "spacheck" / mutant.file
        source = path.read_text(encoding="utf-8")
        if source.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.file}: {mutant.text!r} does not occur exactly once")
        path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
                 *mutant.tests],
                cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out", time.monotonic() - t0, ""
        seconds = time.monotonic() - t0
    # pytest exits 0 when every test passed and 1 when one failed
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return outcome, seconds, failed[0] if failed else ""


def main() -> int:
    missed = 0
    t0 = time.monotonic()
    for mutant in MUTANTS:
        outcome, seconds, failed = run_mutant(mutant)
        note = f" by {failed}" if failed else ""
        if mutant.equivalent is not None:
            note += f" (equivalent: {mutant.equivalent})"
        elif outcome != "killed":
            missed += 1
        print(f"{outcome:9} {seconds:6.1f} s  {mutant.file}: {mutant.why}{note}", flush=True)
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} as expected in "
          f"{time.monotonic() - t0:.1f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
