"""The suite's own configuration: a failing property test reports its
falsifying example instead of crashing the session."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_reports_its_example(pytester, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    pytester.makeconftest("from tests.conftest import pytest_configure  # noqa: F401\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(value):
            assert value < 10
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.stdout.fnmatch_lines(["*Falsifying example*", "*1 failed*"])
    result.assert_outcomes(failed=1)
