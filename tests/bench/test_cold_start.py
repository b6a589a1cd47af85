"""Timing-only processes load neither numpy nor networkx, nor asyncio.

A child interpreter makes those imports fail (``sys.modules[m] = None``),
imports the harness, the CLI and the sweep client, then runs timing-only
cells serially and on the warm pool.  Any import of a blocked module
raises ImportError, so the child fails unless the whole path stays off
them; the times it prints must match the committed ``results/*.csv``.
"""

import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

CHILD = r"""
import json
import sys

BLOCKED = ("numpy", "networkx", "asyncio")
for name in BLOCKED:
    sys.modules[name] = None

import repro.bench.cli  # noqa: F401
import repro.service.client  # noqa: F401
from repro.bench.experiments import MACHINE_RANKS
from repro.bench.harness import run_sweep
from repro.bench.imb import ImbSettings
from repro.mpi.stacks import KNEM_COLL, TUNED_SM

BENCH = ImbSettings(max_iterations=1, warmups=0)
KiB = 1024
sweeps = [
    ("fig5", "ig", "bcast", [KNEM_COLL], [32 * KiB], 1),
    ("fig7", "saturn", "alltoallv", [TUNED_SM], [32 * KiB], 1),
    ("fig5", "zoot", "bcast", [KNEM_COLL, TUNED_SM], [32 * KiB, 128 * KiB], 2),
]
cells = []
for experiment, machine, operation, stacks, sizes, parallel in sweeps:
    result = run_sweep(experiment, machine, operation, MACHINE_RANKS[machine],
                       stacks, sizes, BENCH, parallel=parallel)
    for series in result.series:
        for size, seconds in series.times.items():
            cells.append([experiment, machine, series.name, size,
                          f"{seconds:.9f}"])
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] in BLOCKED and mod is not None)
print(json.dumps({"cells": cells, "loaded": loaded}))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the warm-pool sweep needs the fork start method")
def test_timing_only_sweeps_import_no_payload_or_server_modules():
    out = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=300)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["loaded"] == []
    assert len(report["cells"]) == 6
    for experiment, machine, series, size, seconds in report["cells"]:
        with open(ROOT / "results" / f"{experiment}_{machine}.csv",
                  newline="") as fh:
            committed = {(row["series"], int(row["msg_bytes"])): row["seconds"]
                         for row in csv.DictReader(fh)}
        assert committed[(series, size)] == seconds, (experiment, machine,
                                                      series, size)
