"""The project's pytest settings keep a failing property test reportable."""
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # Under the "error" warning filter, hypothesis's failure report used to
    # raise a DeprecationWarning inside pytest's report hook: INTERNALERROR,
    # exit code 3, no falsifying example and no later test run.
    (tmp_path / "test_generated.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 10


        def test_passes():
            assert True
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_generated.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
