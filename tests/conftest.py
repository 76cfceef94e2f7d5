import importlib.util
import os
import pathlib
import sys

import pytest
from hypothesis import settings

from spacheck import bind_constants, explore, parse_spec, validate

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


@pytest.fixture(scope="session")
def clock_src() -> str:
    return corpus_text("clock.spa")


@pytest.fixture(scope="session")
def math_src() -> str:
    return corpus_text("math.spa")


@pytest.fixture(scope="session")
def buggy_src() -> str:
    return corpus_text("math_buggy.spa")
