"""The four process-wide policies of `import spacheck`, each case in a
fresh interpreter:

- it starts no BLAS thread pool, and leaves `os.environ` as it found it;
- it pauses the cyclic GC while the modules load, leaves whether the GC is
  enabled as it found it, also when an import raises, and leaves every
  object alive once it is done, its own functions among them, frozen out of
  the GC (`gc.freeze`);
- the numpy submodules that scipy's `from numpy import *` would run and no
  check reads are numpy's own lazy modules: none of their code runs during
  the import or a check, and the first read of one runs it;
- of scipy's graph code only the compiled traversal module loads, under a
  stand-in for `scipy.sparse.csgraph` that never runs and is gone from
  `sys.modules` once the import ends, also when it raises: neither the
  package nor the `scipy.sparse.linalg` and `scipy.linalg` that it imports
  are loaded, and a later import of it runs the real package."""

import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT, corpus_path, perfbench_workloads

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


def child_env() -> dict:
    """This process's environment, with the checkout's `src` first on the
    path and no `OPENBLAS_NUM_THREADS`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def child(*imports: str, blas_threads=None, raises=None) -> dict:
    """The child's record; the line of `imports` at index `raises`, if any,
    must raise an ImportError, and every other line must run without one."""
    env = child_env()
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    r = subprocess.run([sys.executable, "-c", _CHILD, *imports], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert [e is not None for e in out["raised"]] == [i == raises for i in range(len(imports))], \
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
    # numpy's pool is already running, and spacheck loads no other OpenBLAS:
    # scipy's comes with scipy.linalg, which the import leaves out
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
    out = child("sys.modules['scipy.sparse'] = None", "import spacheck",
                "import numpy; numpy.testing.assert_equal(1, 1)", raises=1)
    assert "scipy.sparse" in out["raised"][1]
    assert out["gc_enabled"] == [True, True, True]
    assert "OPENBLAS_NUM_THREADS" not in out["before"]
    assert out["after"] == out["before"]


def test_a_failed_graph_import_leaves_no_package_that_never_ran():
    out = child("sys.modules['scipy.sparse.csgraph._validation'] = None", "import spacheck",
                "assert 'scipy.sparse.csgraph' not in sys.modules", raises=1)
    assert "scipy.sparse.csgraph._validation" in out["raised"][1]
    assert out["gc_enabled"] == [True, True, True]
    assert "OPENBLAS_NUM_THREADS" not in out["before"]
    assert out["after"] == out["before"]


# A module of each deferred package that only running the package loads.
_DEFERRED_CODE = ("numpy.f2py.crackfortran", "numpy.testing._private.utils", "numpy.ma.core")


def test_import_defers_the_numpy_submodules_scipy_star_imports():
    child("import spacheck",
          f"assert not set({_DEFERRED_CODE!r}) & set(sys.modules)",
          # scipy's `from numpy import *` bound numpy's own lazy module
          "import numpy; compat = sys.modules.get('scipy._lib.array_api_compat.numpy')",
          "assert compat is None or compat.testing is numpy.testing",
          "numpy.testing.assert_equal(1, 1)",
          "assert numpy.ma.masked_array([1, 2], mask=[0, 1]).sum() == 1",
          "import numpy.f2py.crackfortran",
          f"assert set({_DEFERRED_CODE!r}) <= set(sys.modules)")


def test_a_numpy_submodule_imported_first_is_kept():
    child("import numpy.ma; first = numpy.ma; assert 'numpy.ma.core' in sys.modules",
          "import spacheck",
          "assert numpy.ma is first and sys.modules['numpy.ma'] is first")


def test_import_loads_the_graph_traversal_alone():
    child("import spacheck",
          "assert not {'scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg'}"
          " & set(sys.modules)",
          "assert 'scipy.sparse.csgraph._traversal' in sys.modules")


def test_a_later_csgraph_import_runs_the_package():
    child("import spacheck", "from scipy.sparse import csgraph",
          "assert callable(csgraph.laplacian)",
          "assert csgraph.connected_components is spacheck.liveness.connected_components",
          "assert csgraph.breadth_first_order is spacheck.liveness.breadth_first_order")


def test_a_csgraph_imported_first_is_kept():
    child("import scipy.sparse.csgraph; first = sys.modules['scipy.sparse.csgraph']",
          "import spacheck",
          "assert sys.modules['scipy.sparse.csgraph'] is first and callable(first.laplacian)")


# Runs `cli.run_check`, with every report rendered, on each (spec path,
# constants, DOT path) in argv[1] after `import spacheck`, and prints the
# exit codes and the modules that were not loaded before the first check.
_CHECK_CHILD = """\
import json, sys
import spacheck
from spacheck.cli import RunConfig, emit_json, render_text, run_check
before = set(sys.modules)
codes = []
for path, constants, dot in json.loads(sys.argv[1]):
    report, code = run_check(RunConfig(path, constants, dot_path=dot))
    render_text(report)
    emit_json(report)
    codes.append(code)
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_a_check_imports_nothing(tmp_path):
    # A check that read a deferred numpy submodule (a plain `np.unique` reads
    # `np.ma`) would run its code inside the check.
    runs = [(corpus_path("clock.spa"), {}, 0)]
    runs += [(corpus_path(name), {"max_num_q": 5}, code)
             for name, code in (("math.spa", 0), ("math_domains.spa", 0), ("math_buggy.spa", 1))]
    runs.append((ROOT / "tests" / "golden" / "panels.spa", {"levels": 3}, 1))
    workloads = perfbench_workloads()
    for w in (workloads.math_workload(1, cyclic=False, n=40),
              workloads.math_workload(1, cyclic=True, n=40),
              workloads.panels_workload(1, k=4)):
        path = tmp_path / f"{w.name}.spa"
        path.write_text(w.source, encoding="utf-8")
        runs.append((path, w.constants, w.exit_code))
    args = [[str(path), constants, str(tmp_path / f"{i}.dot")]
            for i, (path, constants, _) in enumerate(runs)]
    r = subprocess.run([sys.executable, "-c", _CHECK_CHILD, json.dumps(args)],
                       env=child_env(), capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["codes"] == [code for _, _, code in runs]
    assert out["loaded"] == []
