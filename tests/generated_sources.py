"""The code that spacheck generates, as hashes: `PYTHONPATH=src python
tests/generated_sources.py` prints one sorted line per module that
`semantics._Module.run` compiles, `<filename> <sha256 of its source>`.

Each spec below is explored, every one of its properties is checked, and
every action's successors of its first state are made, so the lines cover
the explore modules, the successor functions, the column plans, and the
predicate and set functions.  Two checkouts whose outputs `diff` empty
generate byte-identical code for these specs: a refactor of the
generators that should not change their output can be checked this way."""

import hashlib
import sys

from conftest import EXAMPLES, ROOT, perfbench_workloads
from spacheck import bind_constants, check_property, explore, parse_spec, validate
from spacheck.semantics import _Module, action_successors

workloads = perfbench_workloads()


def specs() -> list:
    """(source, constants) of each spec: the benchmark's workloads at small
    sizes, each at seeds 1-3, the examples and the golden panels spec."""
    out = []
    for seed in (1, 2, 3):
        for w in (workloads.math_workload(seed, cyclic=False, n=20),
                  workloads.math_workload(seed, cyclic=True, n=20),
                  workloads.panels_workload(seed, k=5)):
            out.append((w.source, w.constants))
    for path in sorted(EXAMPLES.glob("*.spa")):
        out.append((path.read_text(encoding="utf-8"), {"max_num_q": 5}))
    out.append(((ROOT / "tests" / "golden" / "panels.spa").read_text(encoding="utf-8"),
                {"levels": 3}))
    return out


def generated_lines() -> list:
    lines = []
    run = _Module.run

    def recording(self, main: str, filename: str) -> dict:
        digest = hashlib.sha256(self.source(main).encode("utf-8")).hexdigest()
        lines.append(f"{filename} {digest}")
        return run(self, main, filename)

    _Module.run = recording
    try:
        for source, constants in specs():
            spec = parse_spec(source)
            declared = {c.name for c in spec.constants}
            bound = bind_constants(spec, {k: v for k, v in constants.items() if k in declared})
            assert validate(bound) == [], spec.name
            graph = explore(bound)
            for prop in spec.properties:
                check_property(graph, prop)
            for action in spec.actions:
                action_successors(graph.states[0], action, bound)
    finally:
        _Module.run = run
    return sorted(lines)


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in generated_lines()))
