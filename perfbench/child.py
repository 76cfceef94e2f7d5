"""One benchmark repetition: a fresh interpreter runs one `spacheck check`.

Usage (from the repository root, with the checker's sources importable):

    PYTHONPATH=src python3 perfbench/child.py SPEC CONSTANTS_JSON TRACE

The parent (`run.py`) starts this script, times it from spawn to exit, and
reads one JSON record from the last line of its standard output.  The check
itself is what `spacheck check --json` does: `run_check` then `emit_json`.
After it the child replays the failure traces and, in traced mode, takes the
per-layer measurements that need no span; the record says how long that
benchmark-only work took, so the parent can leave it out of `cli_s`.

With TRACE=1 the public functions of each module are wrapped in timing spans
for the duration of the check; the spans travel back to the parent in the
record.
"""

import json
import sys
import time

import spacheck  # the import whose cost is the set-up time

IMPORTED_AT = time.monotonic()

import dataclasses  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from spacheck import bind_constants, cli, liveness, parse_spec, replay_trace, successors  # noqa: E402
from spacheck.model import Lit  # noqa: E402


def _rss_bytes() -> int:
    """Current resident set size; falls back to the peak where /proc is
    missing."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """In-memory spans: (id, name, start, end, parent, attrs), all of one
    check.  `wrap` replaces a module attribute by a timing wrapper until
    `unwrap_all`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def span(self, name: str):
        return _Span(self, name, {})

    def wrap(self, module, attr: str, name: str, before=None, after=None):
        """`before(attrs)` runs as the span opens, `after(attrs, args,
        result)` as it closes; both inside the span."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                if before is not None:
                    before(attrs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(attrs, args, result)
                return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unwrap_all(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "start": 0.0,
                       "end": 0.0, "parent": None, "attrs": attrs}
        tracer.spans.append(self.record)

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1] if stack else None
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record["attrs"]

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def _install(tracer: Tracer, captured: dict):
    def rss_before(attrs):
        attrs["rss_before"] = _rss_bytes()

    def on_explore(attrs, args, graph):
        captured["graph"] = graph
        attrs["states"] = graph.n_states
        attrs["transitions"] = graph.n_transitions
        attrs["rss_after"] = _rss_bytes()

    def on_property(attrs, args, verdict):
        attrs["forall"] = args[1].binder is not None

    def on_verdict(attrs, args, verdict):
        attrs["status"] = verdict.status

    tracer.wrap(cli, "parse_spec", "parser.parse_spec")
    tracer.wrap(cli, "bind_constants", "semantics.bind_constants")
    tracer.wrap(cli, "validate", "semantics.validate")
    tracer.wrap(cli, "explore", "explorer.explore", rss_before, on_explore)
    tracer.wrap(cli, "check_deadlock", "explorer.check_deadlock", after=on_verdict)
    tracer.wrap(cli, "check_property", "liveness.check_property", after=on_property)
    tracer.wrap(liveness, "check_invariant", "explorer.check_invariant", after=on_verdict)
    for kind in ("eventually", "leadsto", "always_eventually"):
        tracer.wrap(liveness, f"check_{kind}", f"liveness.{kind}", after=on_verdict)


def main(argv: list) -> int:
    spec_path, constants_json, trace = argv[1], argv[2], argv[3] == "1"
    constants = json.loads(constants_json)
    config = cli.RunConfig(spec_path=spec_path, constants=constants, json_mode=True)
    tracer = Tracer()
    captured: dict = {}
    if trace:
        _install(tracer, captured)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span("cli.check"):
        report, code = cli.run_check(config)
        with tracer.span("cli.emit_json"):
            text = cli.emit_json(report) if report is not None else ""
    check_s = time.perf_counter() - t0
    check_cpu_s = time.process_time() - cpu0
    tracer.unwrap_all()

    after_check = time.perf_counter()
    record = {
        "imported_at": IMPORTED_AT,
        "check_s": check_s,
        "check_cpu_s": check_cpu_s,
        "exit_code": code,
        "report": text,
    }
    if report is not None:
        with open(spec_path, encoding="utf-8") as fh:
            bound = bind_constants(parse_spec(fh.read()), constants)
        t0 = time.perf_counter()
        record["replay"] = [replay_trace(bound, v.trace)
                            for v in report.results if v.trace is not None]
        replay_s = time.perf_counter() - t0
        if trace:
            record["spans"] = tracer.spans
            record["outside"] = _outside(bound, report, captured, replay_s)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Benchmark-only work, which the parent takes out of the child's lifetime.
    record["bench_only_s"] = time.perf_counter() - after_check
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def _outside(bound, report, captured: dict, replay_s: float) -> dict:
    """Per-layer costs that have no span of their own inside the check."""
    graph = captured["graph"]
    t0 = time.perf_counter()
    for s in graph.states:
        successors(s, bound)
    successors_s = time.perf_counter() - t0

    # A copy that shares the explored lists but not the numeric view, so the
    # first liveness call pays for building it, as inside the check.
    fresh = dataclasses.replace(graph, _analysis=None)
    t0 = time.perf_counter()
    liveness.check_eventually(fresh, Lit(value=True))
    analysis_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cli.render_text(report)
    render_s = time.perf_counter() - t0
    return {
        "successors_s": successors_s,
        "analysis_s": analysis_s,
        "render_s": render_s,
        "replay_s": replay_s,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
