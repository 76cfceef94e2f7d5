"""`import spacheck` starts no BLAS thread pool and leaves `os.environ` as
it found it; each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc/self/task")

# Prints the process's thread count after each import in `imports`, and its
# environment before the first and after the last.
_CHILD = """\
import json, os, sys
before = dict(os.environ)
threads = []
for line in sys.argv[1:]:
    exec(line)
    threads.append(len(os.listdir("/proc/self/task")))
print(json.dumps({"threads": threads, "before": before, "after": dict(os.environ)}))
"""


def child(*imports: str, blas_threads=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    r = subprocess.run([sys.executable, "-c", _CHILD, *imports], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


@pytest.mark.parametrize("entry", [
    "import spacheck", "import spacheck.liveness", "from spacheck.cli import main"])
def test_import_starts_one_thread_and_leaves_the_environment(entry):
    out = child(entry)
    assert out["threads"] == [1]
    assert "OPENBLAS_NUM_THREADS" not in out["before"]
    assert out["after"] == out["before"]


def test_a_preset_thread_count_is_kept():
    out = child("import spacheck", blas_threads="2")
    assert out["before"]["OPENBLAS_NUM_THREADS"] == "2"
    assert out["after"] == out["before"]


def test_numpy_imported_first_gains_no_thread():
    # numpy's pool is already running; scipy's, loaded by spacheck, is not
    # started
    alone, with_spacheck = child("import numpy", "import spacheck")["threads"]
    assert with_spacheck <= alone
