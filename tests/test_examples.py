"""Smoke tests: every example script must run cleanly."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_examples_exist():
    assert len(EXAMPLES) >= 4
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
