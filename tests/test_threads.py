"""`import spacheck` starts no BLAS thread pool, leaves `os.environ` and
whether the cyclic GC is enabled as it found them, also when an import
raises, and leaves every object alive once it is done, its own functions
among them, frozen out of the GC (`gc.freeze`); each case runs in a fresh
interpreter."""

import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc/self/task")

# Prints the process's thread count, whether the GC is enabled and the
# ImportError raised, if any, after each line in `imports`, and its
# environment before the first and after the last.
_CHILD = """\
import gc, json, os, sys
before = dict(os.environ)
threads, enabled, raised = [], [], []
for line in sys.argv[1:]:
    try:
        exec(line)
        raised.append(None)
    except ImportError as e:
        raised.append(repr(e))
    threads.append(len(os.listdir("/proc/self/task")))
    enabled.append(gc.isenabled())
print(json.dumps({"threads": threads, "gc_enabled": enabled, "raised": raised,
                  "before": before, "after": dict(os.environ)}))
"""


def child(*imports: str, blas_threads=None, last_raises=False) -> dict:
    """The child's record; every line in `imports` but the last must run
    without an ImportError, and the last must raise one iff `last_raises`."""
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
    out = json.loads(r.stdout)
    assert [e is not None for e in out["raised"]] == [False] * (len(imports) - 1) + [last_raises], \
        out["raised"]
    return out


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


def test_import_freezes_the_package():
    # gc.get_objects() lists the objects of the three generations, not the
    # frozen ones; the child fails if the assertion does
    child("import spacheck",
          "assert not any(f is spacheck.explorer.explore for f in gc.get_objects())")


@pytest.mark.parametrize("disabled", [False, True], ids=["gc-on", "gc-off"])
def test_import_leaves_the_gc_enabled_or_disabled(disabled):
    lines = ["gc.disable()", "import spacheck"] if disabled else ["import spacheck"]
    assert child(*lines)["gc_enabled"] == [not disabled] * len(lines)


def test_a_failed_import_restores_the_gc_and_the_environment():
    out = child("sys.modules['scipy.sparse'] = None", "import spacheck", last_raises=True)
    assert "scipy.sparse" in out["raised"][-1]
    assert out["gc_enabled"] == [True, True]
    assert "OPENBLAS_NUM_THREADS" not in out["before"]
    assert out["after"] == out["before"]
