"""Smoke tests: every example script must run cleanly."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)
# Scripts that take a scale run the smoke test below their default.
ARGS = {"memory_robustness.py": ["0.1"]}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
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
