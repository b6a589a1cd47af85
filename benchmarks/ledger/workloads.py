"""The ledger's four workloads and the probes that measure them from outside.

A workload is a fixed *pass*: a slice of the paper's sweep grids run
through one public entry point -- ``run_sweep`` serially, on the warm
pool with a checkpoint journal, or through a sweep server.  A run repeats
the pass until its time is up and reports medians over passes, so every
run does the same work per pass whatever the host's speed.  The seed
shuffles the order of the sweeps in a pass (for served-replay, the order
of the requests); simulated values never depend on it.

Counters are read without touching ``src/``: :class:`Probe` wraps
``harness.imb_time`` and ``Machine.build``.  The pool executor resolves
``harness.imb_time`` at call time and forks its workers after the probe
is installed, so the wrappers run inside the workers too; a worker
writes its records (and, when traced, its profile) to the run's work
directory, where the parent collects them after each pass.
"""

from __future__ import annotations

import cProfile
import csv
import gc
import glob
import json
import os
import pstats
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from repro.bench import harness
from repro.bench.experiments import MACHINE_RANKS
from repro.bench.harness import run_sweep
from repro.bench.imb import ImbSettings
from repro.mpi import stacks as stk
from repro.mpi.runtime import Machine
from repro.service.client import ServiceClient
from repro.units import KiB, MiB

import layers
from metrics import CELL_COUNTERS, percentile, spread

#: the measurement settings of ``scale="bench"``
SETTINGS = ImbSettings(max_iterations=1, warmups=0)
#: the bench-scale message grid of Figures 5-8
BENCH_SIZES = (32 * KiB, 128 * KiB, 512 * KiB, 2 * MiB)
SMALL_SIZES = (32 * KiB, 128 * KiB)
#: the experiment (and results/ CSV) each operation belongs to
EXPERIMENT = {"bcast": "fig5", "gather": "fig6", "scatter": "scatter",
              "alltoallv": "fig7", "allgather": "fig8"}
POOL_JOBS = 2


@dataclass(frozen=True)
class Sweep:
    """One ``run_sweep`` call: a (stack x size) grid of one operation."""

    machine: str
    operation: str
    stacks: tuple
    sizes: tuple

    def cells(self) -> list[str]:
        return [cell_key(self.machine, self.operation, s.name, size)
                for s in self.stacks for size in self.sizes]

    def run(self, **kwargs):
        return run_sweep(EXPERIMENT[self.operation], self.machine,
                         self.operation, MACHINE_RANKS[self.machine],
                         self.stacks, self.sizes, settings=SETTINGS, **kwargs)

    def values(self, result) -> dict[str, float]:
        return {cell_key(self.machine, self.operation, s.name, size): t
                for s in result.series for size, t in s.times.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str       # "serial" | "pool" | "served"
    sweeps: tuple


def cell_key(machine: str, operation: str, stack: str, size: int) -> str:
    return f"{machine}|{operation}|{stack}|{size}"


#: 5 stacks x {32K, 128K} x 5 operations x {zoot, dancer, saturn}: 150
#: cells of a few milliseconds each
SMALL_GRID = tuple(Sweep(m, op, stk.PAPER_STACKS, SMALL_SIZES)
                   for m in ("zoot", "dancer", "saturn")
                   for op in ("bcast", "gather", "scatter", "alltoallv",
                              "allgather"))

WORKLOADS = {w.name: w for w in (
    # Copy-in/copy-out FIFOs at 48 (ig) and 16 (saturn) ranks: thousands of
    # flows rebalance, so host time goes to hardware.flows.  The 512 KiB and
    # 2 MiB cells of these grids take seconds each; the two smallest sizes
    # keep a pass under a second, so a run holds a dozen passes.
    Workload("sm-numa", "serial", (
        Sweep("ig", "bcast", (stk.TUNED_SM, stk.MPICH2_SM), SMALL_SIZES),
        Sweep("saturn", "alltoallv", (stk.TUNED_SM, stk.MPICH2_SM),
              SMALL_SIZES))),
    # The paper's direction-controlled single-copy path: host time goes to
    # event dispatch and MPI matching, and only ~6% to flows, so a faster
    # waterfiller should change nothing here.  (KNEM bcast is left out: on
    # ig it is 45% flows.)
    Workload("knem-rooted", "serial", tuple(
        Sweep(m, op, (stk.KNEM_COLL, stk.TUNED_KNEM), BENCH_SIZES)
        for m in ("zoot", "dancer", "saturn", "ig")
        for op in ("gather", "scatter"))),
    # Cells so small that the substrate dominates: pool fork per sweep,
    # chunk IPC, one fsync'd journal append per cell, a machine build per
    # cell; then the --resume replay of the pass's journals (the read path).
    Workload("small-cells-pool", "pool", SMALL_GRID),
    # The read side of the same grid: every request is a cache hit, so only
    # the client, the protocol and the server's store are exercised.
    Workload("served-replay", "served", SMALL_GRID),
)}


def quick(workload: Workload) -> Workload:
    """A tiny pass with the same code path (``--quick``): two sweeps of one
    stack at the smallest size."""
    sweeps = tuple(Sweep(s.machine, s.operation, s.stacks[-1:], s.sizes[:1])
                   for s in workload.sweeps[:2])
    return Workload(workload.name, workload.mode, sweeps)


# --------------------------------------------------------------------- probe
class Probe:
    """Wraps ``harness.imb_time`` and ``Machine.build`` to read every cell's
    counters from the machine it built."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.parent_pid = os.getpid()
        #: the parent's profiler while a traced pass runs (workers inherit it)
        self.profile: Optional[cProfile.Profile] = None
        self.records: list[dict] = []
        self._built: list[tuple] = []
        self._worker_profile: Optional[cProfile.Profile] = None
        self._out = None
        self._orig_imb_time = harness.imb_time
        self._orig_build = Machine.build.__func__

    def install(self) -> None:
        probe = self

        def build(cls, *args, **kwargs):
            t0 = time.perf_counter()
            machine = probe._orig_build(cls, *args, **kwargs)
            probe._built.append((machine, time.perf_counter() - t0))
            return machine

        Machine.build = classmethod(build)
        harness.imb_time = self.imb_time

    def uninstall(self) -> None:
        Machine.build = classmethod(self._orig_build)
        harness.imb_time = self._orig_imb_time

    def imb_time(self, machine_name, stack, nprocs, op, msg_size,
                 settings=None, iterations=None):
        in_worker = os.getpid() != self.parent_pid
        prof = None
        if in_worker and self.profile is not None:
            if self._worker_profile is None:
                self.profile.disable()   # the copy inherited at fork
                self._worker_profile = cProfile.Profile()
            prof = self._worker_profile
        self._built.clear()
        t0 = time.perf_counter()
        if prof is not None:
            prof.enable()
        try:
            t = self._orig_imb_time(machine_name, stack, nprocs, op,
                                    msg_size, settings, iterations)
        finally:
            if prof is not None:
                prof.disable()
        seconds = time.perf_counter() - t0
        machine, build_s = self._built[-1]
        rec = _cell_record(machine, seconds, build_s)
        rec["key"] = cell_key(machine_name, op, stack.name, msg_size)
        if not in_worker:
            self.records.append(rec)
            return t
        if prof is not None:
            prof.dump_stats(os.path.join(self.workdir,
                                         f"prof-{os.getpid()}.pstats"))
        if self._out is None:
            # line-buffered: a worker leaves through os._exit, which
            # flushes nothing
            self._out = open(os.path.join(
                self.workdir, f"cells-{os.getpid()}.jsonl"), "a", buffering=1)
        self._out.write(json.dumps(rec) + "\n")
        return t

    def collect(self) -> list[dict]:
        """Records of every cell since the last call, parent and workers."""
        records, self.records = self.records, []
        for path in sorted(glob.glob(os.path.join(self.workdir,
                                                  "cells-*.jsonl"))):
            with open(path) as fh:
                records.extend(json.loads(line) for line in fh)
            os.remove(path)
        return records

    def merge_worker_profiles(self, stats: pstats.Stats) -> None:
        for path in sorted(glob.glob(os.path.join(self.workdir,
                                                  "prof-*.pstats"))):
            stats.add(path)
            os.remove(path)


def _cell_record(machine, seconds: float, build_s: float) -> dict:
    sim, mem, knem = machine.sim, machine.mem, machine.knem
    net = mem.network
    counters = machine.tracer.counters
    return {
        "s": seconds, "build_s": build_s,
        "simtime.events": sim.events_processed,
        "simtime.resumes": sim.process_resumes,
        "simtime.peak_heap": sim.peak_heap,
        "hardware.flows.rebalances": (net.scalar_assignments
                                      + net.vector_assignments),
        "hardware.flows.completed": net.completed_flows,
        "hardware.memory.copies": mem.copies,
        "hardware.memory.bytes_copied": mem.bytes_copied,
        "kernel.knem_registrations": knem.stats_registrations,
        "kernel.knem_copies": knem.stats_copies,
        "kernel.knem_failed_ioctls": knem.stats_failed_ioctls,
        "kernel.shm_fifo_publishes": counters["shm.fifo_publish"],
        "mpi.sends": counters["mpi.send"],
        "mpi.recvs": counters["mpi.recv"],
    }


def pass_counts(records: list[dict]) -> dict[str, float]:
    out = {k: sum(r[k] for r in records) for k in CELL_COUNTERS}
    out["simtime.peak_heap"] = max((r["simtime.peak_heap"] for r in records),
                                   default=0)
    return out


# ------------------------------------------------------------ the reference
def load_csv_rows(root: str) -> dict[str, str]:
    """Committed ``%.9f`` seconds of every cell in ``results/*.csv``."""
    rows = {}
    for path in glob.glob(os.path.join(root, "results", "*.csv")):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rows[cell_key(row["machine"], row["operation"],
                              row["series"], int(row["msg_bytes"]))] = \
                    row["seconds"]
    return rows


# ----------------------------------------------------------------- the run
@dataclass
class Pass:
    wall: float = 0.0
    records: list = field(default_factory=list)
    #: host seconds per cell (computing workloads) or per request (served)
    op_seconds: list = field(default_factory=list)
    #: simulated events behind the cells the pass resolved
    events: int = 0
    pool_chunks: int = 0
    pool_requeued: int = 0
    pool_respawns: int = 0
    pool_workers: int = 0
    resume_s: float = 0.0
    cache_hits: int = 0
    served_cells: int = 0


class Run:
    """One workload in one process: set-up, passes, checks, metrics."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.probe = Probe(workdir)
        self.seen: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.server: Optional[subprocess.Popen] = None
        self.address: Optional[str] = None
        #: simulated events behind each served sweep, from the cache fill
        self.sweep_events: dict[tuple, int] = {}
        self.passes = 0
        self._ppid = os.getppid()

    def stop_if_orphaned(self) -> None:
        """When this process leads its own session (run.py starts it so)
        and the ledger that started it is gone, kill the session -- this
        process, its pool workers and its sweep server -- instead of
        running on unattended."""
        if os.getppid() != self._ppid and os.getsid(0) == os.getpid():
            os.killpg(0, signal.SIGKILL)

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        """Everything before the first measured pass (what setup_s times)."""
        if self.workload.mode == "served":
            self._start_server()
            for sweep in self.workload.sweeps:
                result = self._sweep(sweep, service=self.address)
                if result is not None:
                    self.sweep_events[sweep.machine, sweep.operation] = \
                        result.stats.sim_events
            # One client and one server taking turns: on one CPU each
            # request pays the same two context switches, instead of a
            # cross-CPU wake-up that depends on where the scheduler put them.
            cpu = {min(os.sched_getaffinity(0))}
            os.sched_setaffinity(0, cpu)
            os.sched_setaffinity(self.server.pid, cpu)
        else:
            for machine in sorted({s.machine for s in self.workload.sweeps}):
                Machine.build(machine)   # fills the per-spec memo tables
        self.probe.install()

    def _start_server(self) -> None:
        src = os.path.join(layers.ROOT, "src")
        env = dict(os.environ, REPRO_RESULTS_DIR=self.workdir,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.bench", "--serve", "127.0.0.1:0",
             "--jobs", str(POOL_JOBS),
             "--cache", os.path.join(self.workdir, "cache.checkpoint.json")],
            env=env, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        match = re.search(r"listening on (\S+)", line)
        if not match:
            self.close()
            raise RuntimeError(f"sweep server did not start: {line!r}")
        self.address = match.group(1)

    def close(self) -> None:
        self.probe.uninstall()
        if self.server is None:
            return
        server, self.server = self.server, None
        # The server logs a traceback when SIGTERM lands inside the task
        # step that answered the last request, or before it has read a
        # closed connection to EOF; give it a moment to go idle.
        time.sleep(0.2)
        server.send_signal(signal.SIGTERM)
        try:
            code = server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            code = server.wait()
        server.stdout.close()
        if code != 0:
            self.failures.append(f"sweep server exited {code} on SIGTERM")

    # -- one sweep, checked ------------------------------------------------
    def _sweep(self, sweep: Sweep, **kwargs):
        """Run one sweep; record a failure per cell that raised, aborted or
        disagrees with an earlier value of the same cell in this run."""
        cells = sweep.cells()
        self.attempted += len(cells)
        try:
            result = sweep.run(**kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failures.extend(f"{key} raised" for key in cells)
            return None
        for key in sorted(result.aborted):
            self.failures.append(f"{sweep.machine}/{sweep.operation} "
                                 f"{key} aborted")
        for key, t in sweep.values(result).items():
            first = self.seen.setdefault(key, t)
            if t != first:
                self.failures.append(f"{key}: {t!r} != {first!r}")
        return result

    # -- passes ------------------------------------------------------------
    def run_pass(self, profile: Optional[cProfile.Profile]) -> Pass:
        self.passes += 1
        self.probe.profile = profile
        if profile is not None:
            profile.enable()
        try:
            if self.workload.mode == "served":
                out = self._served_pass()
            else:
                out = self._computed_pass()
        finally:
            if profile is not None:
                profile.disable()
            self.probe.profile = None
        out.records = self.probe.collect()
        if self.workload.mode != "served":
            out.op_seconds = [r["s"] for r in out.records]
            out.events = sum(r["simtime.events"] for r in out.records)
        return out

    def _computed_pass(self) -> Pass:
        pool = self.workload.mode == "pool"
        journal_dir = os.path.join(self.workdir, f"pass-{self.passes}")
        sweeps = list(self.workload.sweeps)
        self.rng.shuffle(sweeps)
        out = Pass()
        if pool:
            os.makedirs(journal_dir)
        t0 = time.perf_counter()
        for sweep in sweeps:
            kwargs = {}
            if pool:
                kwargs = {"parallel": POOL_JOBS,
                          "checkpoint": self._journal(journal_dir, sweep)}
            result = self._sweep(sweep, **kwargs)
            if result is not None:
                stats = result.stats
                out.pool_chunks += stats.pool_chunks
                out.pool_requeued += stats.pool_requeued
                out.pool_respawns += stats.pool_respawns
                out.pool_workers = max(out.pool_workers, stats.pool_workers)
        out.wall = time.perf_counter() - t0
        if pool:
            # the read path: replay every journal of this pass with --resume
            t0 = time.perf_counter()
            for sweep in sweeps:
                result = self._sweep(sweep, parallel=POOL_JOBS,
                                     checkpoint=self._journal(journal_dir,
                                                              sweep))
                if result is not None and result.stats.cells_run:
                    self.failures.append(f"resume of {sweep.machine}/"
                                         f"{sweep.operation} recomputed "
                                         f"{result.stats.cells_run} cells")
            out.resume_s = time.perf_counter() - t0
            for path in glob.glob(os.path.join(journal_dir, "*")):
                os.remove(path)
            os.rmdir(journal_dir)
        return out

    def _journal(self, journal_dir: str, sweep: Sweep) -> str:
        return os.path.join(journal_dir, f"{EXPERIMENT[sweep.operation]}_"
                                          f"{sweep.machine}.checkpoint.json")

    def _served_pass(self) -> Pass:
        sweeps = list(self.workload.sweeps)
        self.rng.shuffle(sweeps)
        out = Pass()
        t0 = time.perf_counter()
        for sweep in sweeps:
            r0 = time.perf_counter()
            result = self._sweep(sweep, service=self.address)
            out.op_seconds.append(time.perf_counter() - r0)
            if result is not None:
                out.events += self.sweep_events.get(
                    (sweep.machine, sweep.operation), 0)
                out.cache_hits += result.stats.service_cache_hits
                out.served_cells += result.stats.service_cells
        out.wall = time.perf_counter() - t0
        return out

    def cross_check(self) -> None:
        """Recompute one cell of every sweep serially, in this process, and
        compare it with what the pool or the server returned."""
        if self.workload.mode == "serial":
            return
        for sweep in self.workload.sweeps:
            self._sweep(Sweep(sweep.machine, sweep.operation,
                              sweep.stacks[:1], sweep.sizes[:1]))

    def server_counters(self) -> dict:
        return ServiceClient(self.address).ping()


# ----------------------------------------------------------------- measure
def measure(run: Run, seconds: float, trace: bool, csv_rows: dict) -> dict:
    """Repeat the pass for ``seconds``, then derive every metric.

    With ``trace`` the first third of the time runs untraced (end-to-end
    numbers and counts) and the rest under cProfile (self times).
    """
    untraced_budget = seconds / 3 if trace else seconds
    before = run.server_counters() if run.address else None
    untraced = _repeat(run, untraced_budget, None)
    after = run.server_counters() if run.address else None
    traced, profile_stats = [], None
    if trace:
        profile = cProfile.Profile()
        traced = _repeat(run, seconds - untraced_budget, profile)
        profile_stats = pstats.Stats(profile)
        run.probe.merge_worker_profiles(profile_stats)
    run.cross_check()

    metrics: dict[str, tuple[float, str]] = {}
    diagnostics: dict = {}
    walls = [p.wall for p in untraced]
    ops = [s for p in untraced for s in p.op_seconds]
    metrics["wall_s"] = (statistics.median(walls), "s")
    metrics["sim_events_per_s"] = (statistics.median(
        _ratio(p.events, sum(p.op_seconds)) for p in untraced), "1/s")
    metrics["op_ms_p50"] = (statistics.median(ops) * 1e3, "ms")
    for q in (90, 99):
        try:
            metrics[f"op_ms_p{q}"] = (percentile(ops, q) * 1e3, "ms")
        except ValueError as err:
            diagnostics[f"op_ms_p{q}"] = str(err)
    diagnostics["op_samples"] = len(ops)
    diagnostics["passes_untraced"] = len(walls)
    diagnostics["pass_spread"] = spread(walls)

    drift = []
    for key in sorted(run.seen):
        model = f"{run.seen[key]:.9f}"
        committed = csv_rows.get(key)
        if committed != model:
            drift.append({"cell": key, "csv": committed, "model": model})
    metrics["csv_match_frac"] = (
        1 - len(drift) / len(run.seen) if run.seen else 0.0, "ratio")
    diagnostics["csv_drift"] = drift

    # per-layer counts: identical in every pass, or the simulator is not
    # deterministic -- which is a failure of the run
    counts = [pass_counts(p.records) for p in untraced]
    for i, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            run.failures.append(f"pass {i} counters differ from pass 1")
    c = counts[0]
    for key in CELL_COUNTERS:
        metrics[key] = (c[key], "B" if key.endswith("bytes_copied")
                        else "count")
    metrics["hardware.flows.rebalances_per_flow"] = (
        _ratio(c["hardware.flows.rebalances"],
               c["hardware.flows.completed"]), "ratio")
    metrics["kernel.copies_per_registration"] = (
        _ratio(c["kernel.knem_copies"], c["kernel.knem_registrations"]),
        "ratio")

    records = [r for p in untraced for r in p.records]
    metrics["bench.build_ms_per_cell"] = (
        _ratio(sum(r["build_s"] for r in records), len(records)) * 1e3, "ms")
    metrics["bench.pool_chunks"] = (
        statistics.median(p.pool_chunks for p in untraced), "count")
    metrics["bench.pool_requeued"] = (
        sum(p.pool_requeued for p in untraced), "count")
    metrics["bench.pool_respawns"] = (
        sum(p.pool_respawns for p in untraced), "count")
    metrics["bench.pool_busy_frac"] = (statistics.median(
        _ratio(sum(p.op_seconds), p.wall * p.pool_workers)
        for p in untraced), "ratio")
    metrics["bench.journal_resume_ms"] = (
        statistics.median(p.resume_s for p in untraced) * 1e3, "ms")

    served = sum(p.served_cells for p in untraced)
    metrics["service.cache_hit_frac"] = (
        _ratio(sum(p.cache_hits for p in untraced), served), "ratio")
    for name in ("dedup_hits", "cells_computed"):
        metrics[f"service.{name}"] = (
            after[name] - before[name] if before else 0, "count")

    if trace:
        self_s = layers.attribute(profile_stats.stats)
        for layer in layers.LAYERS:
            metrics[f"{layer}.self_s"] = (self_s[layer] / len(traced), "s")
        metrics["simtime.ns_per_event"] = (_ratio(
            metrics["simtime.self_s"][0], c["simtime.events"]) * 1e9, "ns")
        metrics["hardware.flows.us_per_rebalance"] = (_ratio(
            metrics["hardware.flows.self_s"][0],
            c["hardware.flows.rebalances"]) * 1e6, "us")
        metrics["trace.overhead"] = (
            statistics.median(p.wall for p in traced)
            / statistics.median(walls), "ratio")
        diagnostics["passes_traced"] = len(traced)

    return {"metrics": metrics, "diagnostics": diagnostics}


def _repeat(run: Run, seconds: float, profile) -> list[Pass]:
    """Passes until ``seconds`` have elapsed (at least one).

    Each pass starts from a collected heap, so garbage one pass leaves
    behind is not collected (and paid for) during the next, and the peak
    resident set does not creep up with the number of passes a fast host
    fits in.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        run.stop_if_orphaned()
        gc.collect()
        passes.append(run.run_pass(profile))
    return passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child, with ``RUSAGE_CHILDREN``), in MiB."""
    return resource.getrusage(who).ru_maxrss / 1024
