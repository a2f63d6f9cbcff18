"""The test session itself: a failing test must not hide the ones after it."""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# A falsified property, then a plain test that must still run and pass.
TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 10


def test_passes():
    pass
"""


def test_falsified_property_does_not_end_the_session(tmp_path):
    # Under the project's own settings (filterwarnings = error) and conftest.
    (tmp_path / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert "1 failed, 1 passed" in done.stdout, done.stdout
