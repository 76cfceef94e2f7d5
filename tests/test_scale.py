"""Every check of `scale.py` at small sizes, so that the script keeps
working between its full-size runs."""

import pytest

import scale

SMALL = [
    (scale.reference_successors, {"math_n": 20, "panels_k": 3, "domains_n": 20}),
    (scale.repeated_edges, {"n": 300}),  # rows of 42 edges, past _SHIFT_ROWS
    (scale.panels, {"k": 3}),
    (scale.math_quizzes, {"n": 100}),
    (scale.forall_one_pass, {"n": 40}),
    (scale.math_buggy, {"n": 40}),
    # math_domains.spa at n = 100 expands its first column level once 2,112
    # states are found, and has 20,200 in all
    *[(scale.key_store_limits, {"n": 100, "cap": cap}) for cap in (2200, 10000, 20000)],
    # level 1,024 still raises
    (scale.column_restart, {"x_max": 1100, "z_max": 63}),
]


@pytest.mark.parametrize("check, sizes", SMALL,
                         ids=[f"{check.__name__}-{sizes}" for check, sizes in SMALL])
def test_check_at_small_sizes(check, sizes):
    check(**sizes)


def test_every_check_runs_at_small_sizes():
    assert {check for check, _ in SMALL} == set(scale.CHECKS)


def test_a_failed_check_fails_the_run_and_the_rest_still_run(monkeypatch, capsys):
    def broken():
        assert 1 == 2, "broken"

    monkeypatch.setattr(scale, "CHECKS", (broken, lambda: "done"))
    assert scale.main() == 1
    out = capsys.readouterr().out
    assert out.startswith("broken (") and "AssertionError: broken" in out
    assert out.splitlines()[-1].startswith("<lambda> (") and out.endswith(": done\n")
