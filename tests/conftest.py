import contextlib
import io
import json

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True
)
# For a deeper run of chosen files, e.g. the codec's:
# pytest --hypothesis-profile=deep tests/test_gf.py tests/test_rs.py
# A test's own @settings(max_examples=...) still wins over either profile.
hypothesis.settings.register_profile(
    "deep", max_examples=2000, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def coding_check_run():
    """One run of `bbext check coding` through the CLI: (exit code, JSON report).

    Criterion 5 and the CLI's time-budget test both read it, so the default
    coding suite runs once per test session.
    """
    from bbext import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "coding"])
    return code, json.loads(out.getvalue().strip())
