"""Simulator-core micro-benchmarks (diagnostics) and the speedup floor.

Three measurements of the engine itself (not of any paper experiment);
the reproduction ledger under ``benchmarks/ledger/`` is what times real
cells end to end:

- **events/sec** — raw event-loop dispatch rate on timeout chains, best
  of 5 runs;
- **cells/sec** — full (stack, size) sweep cells (machine build + IMB
  loop) on the dancer Broadcast grid;
- **sweep wall-clock** — ``run_sweep`` serial vs the warm pool at
  ``parallel=N``.  The payload records the host cpu count and a
  ``measurable`` flag: on a 1-cpu host parallel can never beat serial, so
  the speedup gate (``--check-speedup``) explicitly skips there instead of
  recording a misleading number as a target.

The events/sec and cells/sec measurements pause the garbage collector
around the timed region — the ``timeit`` idiom — and the payload says so
(``"gc_paused_micro": true``).

Standalone (what CI runs)::

    python benchmarks/bench_simcore.py --smoke --jobs 2 \
        --output BENCH_simcore.json
    python benchmarks/bench_simcore.py --smoke --jobs 2 \
        --check-speedup --min-speedup 1.5   # skips on < 2 cpus

Under pytest (``pytest benchmarks/bench_simcore.py --benchmark-only``) each
measurement is one pytest-benchmark target, so it lands in benchmark
history next to the paper-experiment benches.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import pytest

from repro.bench.harness import run_sweep
from repro.bench.imb import ImbSettings, imb_time
from repro.mpi import stacks as stk
from repro.simtime import Simulator
from repro.units import KiB

#: (stack, size) grid for the cell-throughput measurement.
CELL_STACKS = [stk.TUNED_SM, stk.KNEM_COLL]
CELL_SIZES = {"full": [32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB],
              "smoke": [32 * KiB, 128 * KiB]}
CELL_SETTINGS = ImbSettings(max_iterations=1, warmups=0)

#: sweep grid for the serial-vs-warm-pool comparison.  Cells here are
#: deliberately bigger than the cell-throughput grid (8 ranks, warmup +
#: 2 iterations, up to MiB messages): the smoke sweep runs ~0.6 s serial,
#: enough work for a 2-worker pool to amortize its one-time fork.
SWEEP_SIZES = {"full": [128 * KiB, 256 * KiB, 512 * KiB, 1024 * KiB,
                        2048 * KiB],
               "smoke": [128 * KiB, 256 * KiB, 512 * KiB, 1024 * KiB]}
SWEEP_NPROCS = 8
SWEEP_SETTINGS = ImbSettings(max_iterations=2, warmups=1)

#: event-loop workload: chains of zero-ish timeouts.
EVENT_CHAINS = {"full": (10, 20_000), "smoke": (10, 5_000)}
#: wall-clock runs per micro measurement (best-of, not mean: the
#: interesting number is the rate without scheduler noise)
EVENT_REPEATS = 5


# ------------------------------------------------------------ measurements
def _timed(fn) -> float:
    """Wall-time ``fn()`` with the GC paused (the ``timeit`` idiom)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _event_loop(n_chains: int, chain_len: int) -> Simulator:
    sim = Simulator()

    def chain(n):
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1e-9)

    for _ in range(n_chains):
        sim.process(chain(chain_len))
    sim.run()
    return sim


def bench_events(grid: str, repeats: int = EVENT_REPEATS) -> dict:
    """Event-loop dispatch rate (events/sec), best of ``repeats`` runs."""
    n_chains, chain_len = EVENT_CHAINS[grid]
    _event_loop(n_chains, chain_len)  # warm-up
    best = None
    events = 0
    for _ in range(repeats):
        sim = Simulator()

        def chain(n):
            timeout = sim.timeout
            for _ in range(n):
                yield timeout(1e-9)

        for _ in range(n_chains):
            sim.process(chain(chain_len))
        dt = _timed(sim.run)
        events = sim.events_processed
        if best is None or dt < best:
            best = dt
    return {"events": events, "seconds": best,
            "events_per_sec": events / best}


def _cell_grid(grid: str) -> list[tuple[object, int]]:
    return [(stack, size)
            for stack in CELL_STACKS for size in CELL_SIZES[grid]]


def bench_cells(grid: str) -> dict:
    """Sweep-cell throughput (cells/sec) over the cell grid."""
    cells = _cell_grid(grid)
    total = 0.0
    for stack, size in cells:
        total += _timed(lambda: imb_time(
            "dancer", stack, 4, "bcast", size, CELL_SETTINGS))
    return {"cells": len(cells), "seconds": total,
            "cells_per_sec": len(cells) / total}


def _sweep(grid: str, parallel: int):
    return run_sweep(
        experiment="simcore", machine="dancer", operation="bcast",
        nprocs=SWEEP_NPROCS, stacks=CELL_STACKS, sizes=SWEEP_SIZES[grid],
        settings=SWEEP_SETTINGS, reference="KNEM-Coll", parallel=parallel)


def bench_sweep(grid: str, jobs: int) -> dict:
    """run_sweep wall-clock, serial vs the warm pool at ``parallel=jobs``."""
    serial = _sweep(grid, parallel=1).stats.wall_seconds
    parallel = _sweep(grid, parallel=jobs).stats.wall_seconds
    return {"jobs": jobs, "serial_seconds": serial,
            "parallel_seconds": parallel,
            "speedup": serial / parallel if parallel > 0 else 0.0,
            "measurable": (os.cpu_count() or 1) >= 2}


def collect(grid: str, jobs: int) -> dict:
    """All measurements as the BENCH_simcore.json payload."""
    return {
        "version": 4,
        "grid": grid,
        "host": {"cpus": os.cpu_count() or 1, "platform": sys.platform},
        "gc_paused_micro": True,
        "events_per_sec": round(bench_events(grid)["events_per_sec"], 1),
        "cells_per_sec": round(bench_cells(grid)["cells_per_sec"], 3),
        "sweep": {k: (round(v, 3) if isinstance(v, float) else v)
                  for k, v in bench_sweep(grid, jobs).items()},
    }


# -------------------------------------------------------- pytest-benchmark
def test_event_loop_events_per_sec(benchmark):
    n_chains, chain_len = EVENT_CHAINS["smoke"]
    sim = benchmark(_event_loop, n_chains, chain_len)
    assert sim.events_processed >= n_chains * chain_len


def test_cell_throughput(benchmark):
    benchmark.pedantic(bench_cells, args=("smoke",), rounds=1, iterations=1)


def test_parallel_sweep_speedup(benchmark):
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(
            f"parallel speedup is not measurable on this host: {cpus} cpu "
            "(a warm pool cannot beat serial without a second core)")
    jobs = cpus
    res = benchmark.pedantic(bench_sweep, args=("smoke", jobs),
                             rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = round(res["speedup"], 2)
    benchmark.extra_info["jobs"] = jobs
    assert res["speedup"] >= 1.0, (
        f"warm-pool sweep slower than serial on a {cpus}-cpu host: "
        f"{res['speedup']:.2f}x")


# -------------------------------------------------------------- standalone
def _check_speedup(current: dict, min_speedup: float) -> int:
    """Speedup gate; explicitly skips on hosts where it is unmeasurable."""
    cpus = current["host"]["cpus"]
    sweep = current["sweep"]
    if cpus < 2:
        print(f"[gate] speedup: SKIPPED — host has {cpus} cpu; a parallel "
              "sweep cannot beat serial without a second core "
              "(gate requires cpus >= 2)")
        return 0
    speedup = sweep["speedup"]
    verdict = "OK" if speedup >= min_speedup else "TOO SLOW"
    print(f"[gate] speedup: {speedup:.2f}x at jobs={sweep['jobs']} on "
          f"{cpus} cpus (floor {min_speedup:.2f}x) -> {verdict}")
    return 0 if speedup >= min_speedup else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator-core micro-benchmarks (events/sec, "
                    "cells/sec, parallel sweep speedup).")
    parser.add_argument("--smoke", action="store_true",
                        help="small grid for CI (default: full grid)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="workers for the sweep comparison "
                             "(0 = one per CPU)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the measurements as JSON")
    parser.add_argument("--check-speedup", action="store_true",
                        help="fail unless the parallel sweep beats serial by "
                             "--min-speedup (skips with an explicit reason "
                             "on hosts with < 2 cpus)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        metavar="X",
                        help="speedup floor for --check-speedup "
                             "(default 1.5)")
    args = parser.parse_args(argv)

    grid = "smoke" if args.smoke else "full"
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    result = collect(grid, jobs)
    print(json.dumps(result, indent=2, sort_keys=True))

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[json] wrote {args.output}")

    if args.check_speedup:
        return _check_speedup(result, args.min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
