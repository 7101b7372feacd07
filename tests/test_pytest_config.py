"""The suite's own pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5
"""


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # hypothesis's plugin may warn while it reports a failure; under
    # ``filterwarnings = error`` that warning became an INTERNALERROR that
    # printed no example
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
    assert proc.returncode == 1, output
