"""Seeded `.spa` inputs for the benchmark, each with an independent
expectation of what a correct check must report.

The seed permutes action declaration order and, for `panels-wide`, which
panels the properties name.  Neither changes the reachable graph up to
renaming, so state and transition counts and every verdict status are the
same for every seed; for `panels-wide` BFS numbering and trace contents
move.

The expected counts are closed forms derived from the workflow descriptions
below, not from the checker:

* math quiz at n questions: each question passes through 4 phases (input,
  check, and two new-question states for a right or wrong answer), and the
  right/wrong counters split the answered questions, giving 2n(n+1) states
  and n(5n+9)/2 transitions.  Replacing `Terminating` (a self-loop once
  num = n) by `Restart` (back to the initial state) keeps both counts.
* panels at K panels and L levels: each panel is open or closed at one of L
  levels, so (2L)^K states; each panel offers exactly two moves in every
  state (toggle open/closed, turn the knob one step), so 2K(2L)^K
  transitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MATH_N = 200
PANELS_K = 5
PANELS_L = 4


@dataclass(frozen=True)
class Workload:
    """One generated input and the verdicts a correct checker reports."""

    name: str
    source: str
    constants: dict  # constant name -> int, passed as `--const`
    states: int
    transitions: int
    verdicts: tuple  # (result name, expected status), in report order

    @property
    def exit_code(self) -> int:
        return 1 if any(status == "fail" for _, status in self.verdicts) else 0


# --- math quiz ------------------------------------------------------------------

_MATH_HEAD = """\
spec math

const max_num_q : int

var num : int init 1
var count_right : int init 0
var count_wrong : int init 0
var result : string init ""
var input_enabled : bool init true
var check_enabled : bool init false
var new_question_enabled : bool init false
"""

_MATH_ACTIONS = {
    "Input_Answer": """\
action Input_Answer {
    when input_enabled = true
    input_enabled' = false
    check_enabled' = true
}
""",
    "Check": """\
action Check {
    when check_enabled = true
    check_enabled' = false
    new_question_enabled' = true
    any r in {"Right", "Wrong"} {
        result' = r
        if r = "Right" {
            count_right' = count_right + 1
        } else {
            count_wrong' = count_wrong + 1
        }
    }
}
""",
    "New_Question": """\
action New_Question {
    when num < max_num_q
    when new_question_enabled = true
    new_question_enabled' = false
    num' = num + 1
    input_enabled' = true
    result' = ""
}
""",
    "Terminating": """\
action Terminating {
    when num = max_num_q
}
""",
    "Restart": """\
action Restart {
    when num = max_num_q
    num' = 1
    count_right' = 0
    count_wrong' = 0
    result' = ""
    input_enabled' = true
    check_enabled' = false
    new_question_enabled' = false
}
""",
}

# Both variants: every question is reached, every answer is checked, the
# answer log is consistent, and some answer is checked infinitely often.  A
# student who always answers wrong is admitted, so `Learns` fails: by a
# stutter at a final state in the quiz that ends, by a cycle through
# `Restart` in the quiz that repeats.
_MATH_PROPS = """\
property Reachability: forall x in 1..max_num_q : eventually (num = x)
property Liveness: input_enabled leadsto new_question_enabled
invariant Invariant: result = "" or num = count_right + count_wrong
property Answered: always eventually (new_question_enabled)
property Learns: always eventually (result = "Right")
"""

_MATH_VERDICTS = (
    ("deadlock", "pass"),
    ("Reachability", "pass"),
    ("Liveness", "pass"),
    ("Invariant", "pass"),
    ("Answered", "pass"),
    ("Learns", "fail"),
)


def math_states(n: int) -> int:
    return 2 * n * (n + 1)


def math_transitions(n: int) -> int:
    return n * (5 * n + 9) // 2


def math_source(seed: int, cyclic: bool) -> str:
    # The seed orders the three actions that are never enabled together.  The
    # last one, enabled beside Input_Answer or Check once num = max_num_q,
    # stays last as in the paper's spec: moving it reorders the edges out of
    # those states, which changes the liveness cost by up to a third and
    # would make the workload's cost depend on the seed.
    names = ["Input_Answer", "Check", "New_Question"]
    random.Random(seed).shuffle(names)
    names.append("Restart" if cyclic else "Terminating")
    return "\n".join([_MATH_HEAD] + [_MATH_ACTIONS[a] for a in names] + [_MATH_PROPS])


def math_workload(seed: int, cyclic: bool, n: int = MATH_N) -> Workload:
    """The verdicts hold for n >= 2; at n = 1 the cyclic quiz can restart
    before any answer is checked."""
    return Workload(
        name="math-cyclic" if cyclic else "math-dag",
        source=math_source(seed, cyclic),
        constants={"max_num_q": n},
        states=math_states(n),
        transitions=math_transitions(n),
        verdicts=_MATH_VERDICTS,
    )


# --- dashboard panels -------------------------------------------------------------


def panels_states(k: int, levels: int) -> int:
    return (2 * levels) ** k


def panels_transitions(k: int, levels: int) -> int:
    return 2 * k * panels_states(k, levels)


def _panel_actions(i: int) -> dict:
    # An open panel's knob turns up, a closed panel's turns down; either way
    # the level moves one step around 0..levels-1.  (`any` sets may name
    # constants only, so the direction is an `if` on the panel state.)
    return {
        f"Open_{i}": f"""\
action Open_{i} {{
    when not open_{i}
    open_{i}' = true
}}
""",
        f"Close_{i}": f"""\
action Close_{i} {{
    when open_{i}
    open_{i}' = false
}}
""",
        f"Adjust_{i}": f"""\
action Adjust_{i} {{
    if open_{i} {{
        if level_{i} = levels - 1 {{
            level_{i}' = 0
        }} else {{
            level_{i}' = level_{i} + 1
        }}
    }} else {{
        if level_{i} = 0 {{
            level_{i}' = levels - 1
        }} else {{
            level_{i}' = level_{i} - 1
        }}
    }}
}}
""",
    }


def panels_source(seed: int, k: int, levels: int) -> str:
    rng = random.Random(seed)
    actions: dict = {}
    for i in range(1, k + 1):
        actions.update(_panel_actions(i))
    order = list(actions)
    rng.shuffle(order)
    p, q = rng.sample(range(1, k + 1), 2)

    lines = ["spec panels", "", "const levels : int", ""]
    for i in range(1, k + 1):
        lines.append(f"var open_{i} : bool init false")
        lines.append(f"var level_{i} : int domain 0..levels - 1 init 0")
    lines.append("")
    lines.extend(actions[a] for a in order)
    bounded = " and ".join(f"level_{i} < levels" for i in range(1, k + 1))
    # Every panel can keep moving forever, so only the tautology `Sane`
    # holds; each other property has a fair run that dodges it.
    lines.append(f"""\
invariant Bounded: {bounded}
property Opens: eventually (open_{p})
property Responds: (open_{p}) leadsto (level_{p} = levels - 1)
property Revisits: always eventually (open_{q})
property Tracks: forall x in 0..levels - 1 : (level_{p} = x) leadsto (level_{q} = x)
property Sane: always eventually (level_{q} < levels)
""")
    return "\n".join(lines)


_PANELS_VERDICTS = (
    ("deadlock", "pass"),
    ("Bounded", "pass"),
    ("Opens", "fail"),
    ("Responds", "fail"),
    ("Revisits", "fail"),
    ("Tracks", "fail"),
    ("Sane", "pass"),
)


def panels_workload(seed: int, k: int = PANELS_K, levels: int = PANELS_L) -> Workload:
    """The verdicts hold for k >= 2 and levels >= 2."""
    return Workload(
        name="panels-wide",
        source=panels_source(seed, k, levels),
        constants={"levels": levels},
        states=panels_states(k, levels),
        transitions=panels_transitions(k, levels),
        verdicts=_PANELS_VERDICTS,
    )


WORKLOADS = {
    "math-dag": lambda seed: math_workload(seed, cyclic=False),
    "math-cyclic": lambda seed: math_workload(seed, cyclic=True),
    "panels-wide": panels_workload,
}
