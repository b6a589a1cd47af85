"""The committed ``results/*.csv`` agree with what the model computes now.

Recomputes the 32 KiB, 128 KiB and 512 KiB rows of every stack in the
zoot/dancer/saturn Figure 5-8 and scatter CSVs at bench scale, the 32 KiB
and 512 KiB rows of the ig Broadcast, Gather and Scatter CSVs, and the
512 KiB row of every Figure 4 series (the KNEM-Coll broadcast's flat,
unpipelined and pipelined trees on ig), and compares the ``%.9f`` seconds
string by string.  Most rows of the claims table
(``tests/integration/test_paper_claims.py``) read these sizes, so the
claims are judged on what the model computes now.  IG's 48 ranks make
the densest same-instant traffic of the four machines, so an
event-dispatch order slip shows there first.  A model change that moves a
simulated time must regenerate the CSVs in the same change:

    python -m repro.bench all --scale bench --csv --jobs 2
"""

import csv
from pathlib import Path

import pytest

from repro.bench.experiments import MACHINE_RANKS, figure4_stacks
from repro.bench.imb import ImbSettings, imb_time
from repro.mpi import stacks
from repro.units import KiB

RESULTS = Path(__file__).resolve().parents[2] / "results"
OPERATIONS = {"fig5": "bcast", "fig6": "gather", "scatter": "scatter",
              "fig7": "alltoallv", "fig8": "allgather"}
MACHINES = ("zoot", "dancer", "saturn")
SIZES = {32 * KiB, 128 * KiB, 512 * KiB}
BENCH = ImbSettings(max_iterations=1, warmups=0)
STACKS = {stack.name: stack for stack in stacks.PAPER_STACKS}


def _check_rows(experiment, machine, sizes, series=STACKS,
                operation=None):
    with open(RESULTS / f"{experiment}_{machine}.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh)
                if int(row["msg_bytes"]) in sizes]
    assert {row["series"] for row in rows} == set(series)
    assert len(rows) == len(series) * len(sizes)
    stale = []
    for row in rows:
        size = int(row["msg_bytes"])
        t = imb_time(machine, series[row["series"]], MACHINE_RANKS[machine],
                     operation or OPERATIONS[experiment], size, BENCH)
        if f"{t:.9f}" != row["seconds"]:
            stale.append((row["series"], size, row["seconds"], f"{t:.9f}"))
    assert not stale, f"stale rows (series, bytes, committed, model): {stale}"


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("experiment", sorted(OPERATIONS))
def test_committed_seconds_match_the_model(experiment, machine):
    _check_rows(experiment, machine, SIZES)


@pytest.mark.parametrize("experiment", ["fig5", "fig6", "scatter"])
def test_committed_ig_seconds_match_the_model(experiment):
    _check_rows(experiment, "ig", {32 * KiB, 512 * KiB})


def test_committed_fig4_seconds_match_the_model():
    series = {stack.name: stack for stack in figure4_stacks("bench")}
    _check_rows("fig4", "ig", {512 * KiB}, series, operation="bcast")
