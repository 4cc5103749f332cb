"""The shipped examples run to completion (each asserts its own identities)."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Long-running demos left to manual runs.
SLOW = {"approximation_demo.py"}


@pytest.mark.parametrize(
    "example",
    [path for path in EXAMPLES if path.name not in SLOW],
    ids=lambda path: path.name,
)
def test_example_runs(example):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(example)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
