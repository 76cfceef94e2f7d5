"""Command-line driver: load a `.spa` file, bind constants, explore, check,
and report.

Exit codes: 0 all checks pass, 1 some check fails, 2 parse/validate/eval/
limit error, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .explorer import (
    Deadline,
    ExploreLimits,
    LimitError,
    StateGraph,
    Trace,
    check_deadlock,
    explore,
)
from .liveness import check_property
from .model import INT_MAX, INT_MIN, SpecModel, Value, format_state, format_value, state_to_record
from .parser import ParseError, parse_spec
from .semantics import BindError, EvalError, bind_constants, validate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


# Parsing, validation, compilation and evaluation recurse once per level of
# nested blocks or operators, so a deep enough spec exhausts Python's stack.
_TOO_DEEP = "the spec nests too deeply to check (Python's recursion limit was reached)"


@dataclass
class RunConfig:
    """One checker invocation: which spec, which constants, which checks."""

    spec_path: str
    constants: dict = field(default_factory=dict)
    no_deadlock: bool = False
    json_mode: bool = False
    dot_path: Optional[str] = None
    limits: ExploreLimits = field(default_factory=ExploreLimits)


@dataclass
class Report:
    """Everything one run produced, in request order."""

    spec: str
    constants: dict
    states: int
    transitions: int
    elapsed_ms: float
    results: list  # list[Verdict]
    # parsed model, kept for rendering variable names; not part of the wire format
    model: Optional[SpecModel] = field(default=None, repr=False, compare=False)


def _parse_const_value(name: str, text: str) -> Value:
    if text == "true":
        return True
    if text == "false":
        return False
    number = re.fullmatch(r"(-?)0*(\d+)", text)
    if number:
        # The lexer's rule: int() takes at most 4,300 digits; INT_MAX has 19.
        sign, digits = number.groups()
        if len(digits) > 19 or not INT_MIN <= (v := int(sign + digits)) <= INT_MAX:
            raise UsageError(f"constant value {text} out of 64-bit range")
        return v
    if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
        inner = text[1:-1]
        # The same rule as the lexer's string literals, so the report's
        # echo of the value reads back.
        if '"' in inner or "\n" in inner:
            raise UsageError(
                f"bad --const {name}: a string value cannot contain '\"' or a newline"
            )
        return inner
    raise UsageError(
        f"bad constant value {text!r}: expected an integer, true/false, or a quoted string"
    )


def parse_const_args(pairs: list) -> dict:
    """Parse repeated `name=value` flags; a duplicated name is a usage error."""
    out: dict = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"bad --const {pair!r}: expected name=value")
        if name in out:
            raise UsageError(f"duplicate --const for {name}")
        out[name] = _parse_const_value(name, value)
    return out


def _load(config: RunConfig):
    """Parse, bind, and validate; returns (bound, graph)."""
    try:
        with open(config.spec_path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {config.spec_path}: {e.strerror}") from None
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _Located(f"{config.spec_path}: not UTF-8 text (byte {e.start})") from None
    # The newline translation of a text-mode open().
    source = source.replace("\r\n", "\n").replace("\r", "\n")
    try:
        spec = parse_spec(source)
    except ParseError as e:
        raise _Located(f"{config.spec_path}:{e}") from None
    try:
        bound = bind_constants(spec, config.constants)
    except BindError as e:
        raise UsageError(str(e)) from None
    errors = validate(bound)
    if errors:
        raise _Located("\n".join(f"{config.spec_path}: {err}" for err in errors))
    if config.dot_path:
        _check_writable(config.dot_path)
    try:
        graph = explore(bound, config.limits)
    except EvalError as e:
        lines = [f"{config.spec_path}: {e}"]
        if e.trace is not None:
            lines.append(render_trace(e.trace, bound.spec))
        raise _Located("\n".join(lines)) from None
    except LimitError as e:
        raise _Located(f"{config.spec_path}: {e}") from None
    return bound, graph


def _check_writable(path: str) -> None:
    """Raise UsageError when `path` cannot be opened for writing, before
    any exploring; an existing file is left as it is, and none is created."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from None
    if not existed:
        os.remove(path)


class _Located(Exception):
    """A spec error, reported with its location and EXIT_ERROR."""


def _load_or_report(config: RunConfig):
    """`_load`, printing a usage or spec error to stderr; returns (bound,
    graph, EXIT_OK), or (None, None, exit code) after an error."""
    try:
        bound, graph = _load(config)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return None, None, EXIT_USAGE
    except _Located as e:
        print(f"error: {e}", file=sys.stderr)
        return None, None, EXIT_ERROR
    except RecursionError:
        print(f"error: {config.spec_path}: {_TOO_DEEP}", file=sys.stderr)
        return None, None, EXIT_ERROR
    return bound, graph, EXIT_OK


def run_check(config: RunConfig):
    """Run the default battery: deadlock (unless disabled) then every
    declared property in declaration order.  Returns (Report | None, exit
    code); error messages go to stderr."""
    t0 = time.perf_counter()
    bound, graph, code = _load_or_report(config)
    if graph is None:
        return None, code

    results = []
    if not config.no_deadlock:
        results.append(check_deadlock(graph))
    try:
        for prop in bound.spec.properties:
            results.append(check_property(graph, prop, config.limits.deadline))
    except RecursionError:
        print(f"error: {config.spec_path}: {_TOO_DEEP}", file=sys.stderr)
        return None, EXIT_ERROR
    except LimitError as e:
        print(f"error: {config.spec_path}: {e}", file=sys.stderr)
        return None, EXIT_ERROR

    if config.dot_path and _write_dot(config.dot_path, graph) != EXIT_OK:
        return None, EXIT_USAGE

    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    report = Report(
        spec=bound.spec.name,
        constants=dict(config.constants),
        states=graph.n_states,
        transitions=graph.n_transitions,
        elapsed_ms=elapsed_ms,
        results=results,
        model=bound.spec,
    )
    if any(v.status == "error" for v in results):
        return report, EXIT_ERROR
    if any(v.status == "fail" for v in results):
        return report, EXIT_FAIL
    return report, EXIT_OK


def run_graph(config: RunConfig) -> int:
    """Explore and export DOT only; checks are not run."""
    _, graph, code = _load_or_report(config)
    if graph is not None:
        code = _write_dot(config.dot_path, graph)
    return code


def _write_dot(path: str, graph: StateGraph) -> int:
    """Write the DOT export; returns EXIT_OK, or EXIT_USAGE after printing
    why the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_dot(graph))
    except OSError as e:
        print(f"error: cannot write {path}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# --- rendering -----------------------------------------------------------------


def render_trace(trace: Trace, spec: SpecModel) -> str:
    """Numbered states with action names between them, indented four
    spaces; lassos end with a `loop to state i` line."""
    lines = []
    for i, state in enumerate(trace.states):
        lines.append(f"    state {i}: {format_state(state, spec)}")
        if i < len(trace.actions):
            lines.append(f"      --[{trace.actions[i]}]-->")
    if trace.loop_start is not None:
        closing = f" via {trace.loop_action}" if trace.loop_action else " (stutter)"
        lines.append(f"    loop to state {trace.loop_start}{closing}")
    return "\n".join(lines)


def render_text(report: Report) -> str:
    spec = report.model
    lines = [f"spec {report.spec}"]
    if report.constants:
        consts = ", ".join(
            f"{name}={format_value(v)}" for name, v in report.constants.items()
        )
        lines.append(f"constants: {consts}")
    lines.append(
        f"states: {report.states}  transitions: {report.transitions}"
        f"  elapsed: {report.elapsed_ms:.1f} ms"
    )
    for v in report.results:
        head = f"{v.name}: {v.status}"
        if v.detail:
            head += f" - {v.detail}"
        lines.append(head)
        if v.trace is not None:
            lines.append(render_trace(v.trace, spec))
    return "\n".join(lines)


def _json_trace(trace: Optional[Trace], spec: SpecModel):
    if trace is None:
        return None
    return {
        "states": [state_to_record(s, spec) for s in trace.states],
        "actions": list(trace.actions),
        "loop_start": trace.loop_start,
    }


def emit_json(report: Report) -> str:
    """Machine-readable report; key order is fixed and the output is
    deterministic for a fixed run (elapsed_ms aside)."""
    spec = report.model
    doc = {
        "spec": report.spec,
        "constants": report.constants,
        "states": report.states,
        "transitions": report.transitions,
        "elapsed_ms": report.elapsed_ms,
        "results": [
            {
                "name": v.name,
                "kind": v.kind,
                "status": v.status,
                "binder": v.binder,
                "trace": _json_trace(v.trace, spec),
                "detail": v.detail,
            }
            for v in report.results
        ],
    }
    return json.dumps(doc, indent=2)


def emit_dot(graph: StateGraph) -> str:
    """Graphviz export: one node per state (index order), one labeled edge
    per transition; initial states use a distinct shape."""
    spec, initial = graph.spec, graph.initial

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = [f"digraph {spec.name} {{", "  node [shape=box];"]
    for i, state in enumerate(graph.states):
        label = esc(format_state(state, spec).replace(", ", ","))
        shape = ", shape=doubleoctagon" if i in initial else ""
        lines.append(f'  {i} [label="{i}\\n{label}"{shape}];')
    for i in range(graph.n_states):
        for action, j in graph.out_edges(i):
            lines.append(f'  {i} -> {j} [label="{esc(action)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- argument parsing ------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for
    spec errors, so remap to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="spacheck",
        description="Model-check single-page-application workflow specs (.spa files).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="path to the .spa spec")
        p.add_argument(
            "--const", action="append", default=[], metavar="NAME=VALUE",
            help="bind a declared constant (repeatable)",
        )
        p.add_argument(
            "--max-states", type=int, default=1_000_000, metavar="N",
            help="stop with an error past N states (default 1,000,000); exploring"
                 " takes about 280 bytes per state (math.spa, max_num_q=300)",
        )
        p.add_argument(
            "--max-depth", type=int, default=None, metavar="N",
            help="stop with an error once a state deeper than N steps from the"
                 " initial states is reached (default: no limit)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="stop with an error once the check has run this long",
        )

    check = sub.add_parser("check", help="run deadlock and property checks")
    common(check)
    check.add_argument("--no-deadlock", action="store_true", help="skip the deadlock check")
    check.add_argument("--json", action="store_true", help="emit a JSON report")
    check.add_argument("--dot", metavar="PATH", help="also export the state graph as DOT")

    graph = sub.add_parser("graph", help="explore and export the state graph as DOT")
    common(graph)
    graph.add_argument("--dot", metavar="PATH", required=True,
                       help="write the state graph as DOT to PATH")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE

    try:
        constants = parse_const_args(args.const)
        if args.max_states <= 0:
            raise UsageError("--max-states must be positive")
        if args.max_depth is not None and args.max_depth <= 0:
            raise UsageError("--max-depth must be positive")
        if args.timeout is not None and not args.timeout > 0:  # nan too
            raise UsageError("--timeout must be positive (seconds)")
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    config = RunConfig(
        spec_path=args.file,
        constants=constants,
        no_deadlock=getattr(args, "no_deadlock", False),
        json_mode=getattr(args, "json", False),
        dot_path=args.dot,
        limits=ExploreLimits(
            max_states=args.max_states, max_depth=args.max_depth,
            deadline=None if args.timeout is None else Deadline.after(args.timeout),
        ),
    )
    if args.command == "graph":
        return run_graph(config)

    report, code = run_check(config)
    if report is not None:
        try:
            print(emit_json(report) if config.json_mode else render_text(report))
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe early (`| head`).  Point stdout at
            # devnull so the interpreter's exit flush cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    return code
