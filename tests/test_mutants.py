"""`tests/mutants.py` stays runnable: a refactor that rewrites a mutant's
target, or moves a test file it names, fails here rather than only when the
mutation checks reach that mutant."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[f"{i}-{m.file}" for i, m in enumerate(MUTANTS)])
def test_mutant_text_occurs_once_and_its_tests_exist(mutant):
    source = (ROOT / "src" / "spacheck" / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1, mutant.text
    assert mutant.replacement != mutant.text
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
