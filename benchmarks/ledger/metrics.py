"""Metric names, which of them are exact, and the statistics helpers.

``BENCHMARK.json`` at the repository root holds each gated metric's unit,
direction and bound.  This module adds what that file cannot say: which
metrics are deterministic (compared for equality, never with a
tolerance) and the direction of the diagnostics that are not gated.
"""

from __future__ import annotations

import json
import os
import re
import statistics

from layers import ROOT

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: the counters read from each cell's machine, summed over a pass's cells
#: (except peak_heap, which takes the maximum)
CELL_COUNTERS = (
    "simtime.events", "simtime.resumes", "simtime.peak_heap",
    "hardware.flows.rebalances", "hardware.flows.completed",
    "hardware.memory.copies", "hardware.memory.bytes_copied",
    "kernel.knem_registrations", "kernel.knem_copies",
    "kernel.knem_failed_ioctls", "kernel.shm_fifo_publishes",
    "mpi.sends", "mpi.recvs",
)

#: per-layer work counters: pure functions of the simulated cells (and of
#: a fault-free run), so they repeat exactly on every host and every run
COUNTS = CELL_COUNTERS + (
    "hardware.flows.rebalances_per_flow", "kernel.copies_per_registration",
    "bench.pool_requeued", "bench.pool_respawns",
    "service.cache_hit_frac", "service.dedup_hits", "service.cells_computed",
)

#: metrics compared for equality by ``run.py compare``
EXACT = frozenset(COUNTS + ("failed_frac", "csv_match_frac"))

#: diagnostics written to ``--out`` but not gated in BENCHMARK.json
EXTRA_BETTER = {"failed_frac": "lower", "op_ms_p50": "lower",
                "op_ms_p90": "lower", "op_ms_p99": "lower",
                "children_rss_mb": "lower"}


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def declared(bench: dict) -> dict[str, dict]:
    """Every metric BENCHMARK.json names, end-to-end and per-layer."""
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile of ``values`` (1 <= q <= 99).

    Refuses (ValueError) when fewer than ten samples lie beyond it: a
    p99 needs 1000 samples, a p90 needs 100.
    """
    if not 1 <= q <= 99:
        raise ValueError(f"percentile {q} out of range")
    beyond = len(values) * (100 - q) / 100
    if beyond < 10:
        raise ValueError(f"p{q} of {len(values)} samples has only "
                         f"{beyond:g} beyond it; at least 10 are needed")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
