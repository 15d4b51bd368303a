"""The suite's conftest under the warnings-as-errors command that runs it."""

from pathlib import Path

FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 3
"""


def test_failing_hypothesis_test_reports_its_example_under_w_error(pytester):
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makepyfile(test_small=FAILING_GIVEN_TEST)
    result = pytester.runpytest_subprocess("-W", "error", "-p", "no:cacheprovider")
    result.stdout.fnmatch_lines(["*Falsifying example: test_small(*"])
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
