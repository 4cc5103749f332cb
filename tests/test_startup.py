"""Start-up cost: numpy loads on the first kernel call, never at import.

Only the batched circuit passes and the dpdb table kernel use numpy, so
importing the package, planning, and answering a polynomial cell with
its closed form must leave it unloaded.  Each check runs in a fresh
interpreter so ``sys.modules`` starts clean; the CLI checks go through
the real ``python -m repro`` front door under ``-X importtime``, whose
stderr lists every module the process imported.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.io.databases import format_database
from repro.obs import capture
from repro.util.optional import numpy_or_none
from repro.workloads.generators import (
    scaling_codd_instance,
    scaling_hard_val_instance,
    scaling_single_occurrence_instance,
    scaling_uniform_val_instance,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

try:
    import numpy
except ImportError:  # pragma: no cover - no-numpy machines
    numpy = None


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed


def _imported(stderr):
    """Module names an ``-X importtime`` run reports."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "self [us]" not in line
    }


def _db_file(tmp_path, name, db):
    path = tmp_path / (name + ".idb")
    path.write_text(format_database(db))
    return str(path)


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_numpy_unloaded(module):
    completed = _python("-X", "importtime", "-c", "import " + module)
    imported = _imported(completed.stderr)
    assert module in imported
    assert "numpy" not in imported


@pytest.mark.parametrize(
    "method, instance, query",
    [
        ("codd", scaling_codd_instance(6, 1), "R(x,x), S(y,z)"),
        ("uniform", scaling_uniform_val_instance(4, 4, 1), "R(x), S(x)"),
        (
            "single-occurrence",
            scaling_single_occurrence_instance(6, 1),
            "R(x,y), S(z)",
        ),
    ],
    ids=["codd", "uniform", "single-occurrence"],
)
def test_closed_form_count_leaves_numpy_unloaded(
    tmp_path, method, instance, query
):
    path = _db_file(tmp_path, method, instance[0])
    completed = _python(
        "-X", "importtime", "-m", "repro",
        "count", "--mode", "val", "--db", path, "--query", query, "--json",
    )
    answer = json.loads(completed.stdout.strip().splitlines()[-1])
    assert answer["method"] == method
    assert "numpy" not in _imported(completed.stderr)


@pytest.mark.parametrize(
    "method, priced_method, detail_key",
    [("auto", "nulldp", "cells"), ("dpdb", "dpdb", "width")],
)
def test_planning_a_hard_cell_leaves_numpy_unloaded(
    tmp_path, method, priced_method, detail_key
):
    path = _db_file(
        tmp_path, "cycle", scaling_hard_val_instance(10, seed=1)[0]
    )
    completed = _python(
        "-X", "importtime", "-m", "repro",
        "plan", "--db", path, "--query", "R(x,x)", "--method", method,
        "--json",
    )
    record = json.loads(completed.stdout)
    # The probe ran (its method was priced) without loading numpy.
    priced = {entry["method"]: entry for entry in record["considered"]}
    assert priced[priced_method]["detail"][detail_key] is not None
    assert "numpy" not in _imported(completed.stderr)


@pytest.mark.skipif(numpy is None, reason="numpy unavailable")
def test_dpdb_solve_loads_numpy_inside_its_own_span():
    completed = _python("-c", """
import json, sys
from repro import solve
from repro.workloads.generators import scaling_hard_val_instance
db, query = scaling_hard_val_instance(8, seed=1)
before = "numpy" in sys.modules
answer = solve("val", db, query, method="dpdb")
print(json.dumps({
    "before": before,
    "after": "numpy" in sys.modules,
    "count": answer.count,
    "phases": sorted(answer.stats["phases"]),
}))
""")
    record = json.loads(completed.stdout)
    assert record["before"] is False
    assert record["after"] is True
    assert record["count"] == 6303
    assert "numpy.import" in record["phases"]


class TestAccessor:
    def test_returns_numpy_when_installed(self):
        # A "not loaded yet" state must never read as "not installed":
        # numpy-only tests gate on this value at collection time.
        assert numpy_or_none() is numpy

    def test_import_error_reads_as_none_and_is_traced(self, monkeypatch):
        numpy_or_none.cache_clear()
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        try:
            with capture() as captured:
                assert numpy_or_none() is None
                assert numpy_or_none() is None
        finally:
            numpy_or_none.cache_clear()
        names = [node.name for root in captured.roots for node, _ in root.walk()]
        assert names == ["numpy.import"]  # once: later calls hit the cache
