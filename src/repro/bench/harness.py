"""Sweep runner and result containers for the paper's experiments.

An experiment is a sweep over (stack × message size) on one machine for one
operation.  Results are kept both as absolute per-op times and normalized
against a reference stack — the paper normalizes every curve to KNEM-Coll,
"the smaller these normalized values, the better the performance of the
corresponding collective component" (with the sense inverted: values above
1 mean the *other* component is slower).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterable, Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.bench.chunking import DEFAULT_RETRY_LIMIT, CellAborted
# ``imb_time`` is the measurement every cell calls through
# ``executor._run_cell`` as ``harness.imb_time``: tests and the ledger
# replace it here.
from repro.bench.imb import CellStats, ImbSettings, imb_time  # noqa: F401
from repro.errors import BenchmarkError
from repro.faults.plan import FaultPlan
from repro.mpi.stacks import Stack
from repro.simtime.trace import TraceRecord
from repro.units import fmt_size, fmt_time

__all__ = ["Series", "ExperimentResult", "SweepStats", "JournalReport",
           "JournalLease", "run_sweep", "results_dir", "checkpoint_path",
           "verify_journal", "journal_wrapper", "profile_dir"]


def results_dir() -> str:
    """Directory where experiment CSVs are written (created on demand)."""
    path = os.environ.get("REPRO_RESULTS_DIR",
                          os.path.join(os.getcwd(), "results"))
    os.makedirs(path, exist_ok=True)
    return path


@dataclass
class Series:
    """One curve: per-op seconds by message size for one configuration."""

    name: str
    times: dict[int, float] = field(default_factory=dict)

    def normalized_to(self, ref: "Series") -> dict[int, float]:
        """This series' per-size runtime divided by ``ref``'s.

        Sizes the reference never measured are skipped; a reference time of
        exactly zero is a measurement bug (a sweep cell cannot take no
        simulated time) and raises :class:`~repro.errors.BenchmarkError`
        rather than silently dropping the point.
        """
        out = {}
        for size, t in self.times.items():
            rt = ref.times.get(size)
            if rt is None:
                continue
            if rt == 0.0:
                raise BenchmarkError(
                    f"cannot normalize {self.name!r} at {fmt_size(size)}: "
                    f"reference series {ref.name!r} measured 0 s")
            out[size] = t / rt
        return out


@dataclass
class SweepStats:
    """Aggregate simulator counters and wall-clock of one sweep.

    Carried on :class:`ExperimentResult` (CSV output is unaffected) and
    printed by ``repro.bench --verbose`` so the perf claims of hot-path
    changes stay inspectable.  Cells replayed from a checkpoint contribute
    to ``cells_resumed`` only; monkeypatched measurements (tests) count as
    run cells with no simulator counters.
    """

    cells_run: int = 0
    cells_resumed: int = 0
    sim_events: int = 0
    process_resumes: int = 0
    peak_heap: int = 0
    wall_seconds: float = 0.0
    #: warm-pool diagnostics (zero for serial sweeps): worker count, chunks
    #: issued, and cells re-run after a worker death
    pool_workers: int = 0
    pool_chunks: int = 0
    pool_requeued: int = 0
    #: quarantine ladder: cells recorded as typed aborts after exhausting
    #: their worker-death retry budget, and replacement workers forked
    pool_respawns: int = 0
    cells_aborted: int = 0
    chunks_quarantined: int = 0
    #: cells whose cell run degraded KNEM health (``knem.degrade`` events)
    cells_degraded: int = 0
    #: journal robustness: corrupt mid-file records skipped (and recomputed)
    #: on resume, and append errors that downgraded journaling mid-sweep
    journal_skipped: int = 0
    journal_errors: int = 0
    #: sweep-service client accounting (zero for in-process sweeps):
    #: cells obtained from a sweep server, and how many of those the
    #: server answered from its content-addressed cache without running
    #: a simulation.
    service_cells: int = 0
    service_cache_hits: int = 0
    #: trace records of the sweep substrate, not of a simulation
    #: (``chunk.quarantine``, ``journal.skip``/``journal.error``, the
    #: ``service.*`` requests, cache hits and restarts); chaos oracles and
    #: tests count them by category
    events: list = field(default_factory=list)

    def add_cell(self, stats: Optional[CellStats]) -> None:
        self.cells_run += 1
        if stats is None:
            return
        self.sim_events += stats.sim_events
        self.process_resumes += stats.process_resumes
        if stats.knem_degrades:
            self.cells_degraded += 1
        if stats.peak_heap > self.peak_heap:
            self.peak_heap = stats.peak_heap

    @property
    def events_per_sec(self) -> float:
        """Simulator events dispatched per wall-clock second (0 if unknown)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sim_events / self.wall_seconds

    def render(self) -> str:
        base = (
            f"cells: {self.cells_run} run, {self.cells_resumed} resumed | "
            f"sim events: {self.sim_events} | "
            f"process resumes: {self.process_resumes} | "
            f"peak heap: {self.peak_heap} | "
            f"wall: {self.wall_seconds:.3f}s | "
            f"events/sec: {self.events_per_sec:,.0f}"
        )
        if self.pool_workers:
            base += (f" | pool: {self.pool_workers} workers, "
                     f"{self.pool_chunks} chunks")
            if self.pool_requeued:
                base += f", {self.pool_requeued} requeued"
            if self.pool_respawns:
                base += f", {self.pool_respawns} respawns"
        if self.cells_aborted:
            base += (f" | ABORTED: {self.cells_aborted} cell(s) quarantined"
                     f" ({self.chunks_quarantined} chunk(s))")
        if self.cells_degraded:
            base += f" | degraded: {self.cells_degraded} cell(s)"
        if self.journal_skipped or self.journal_errors:
            base += (f" | journal: {self.journal_skipped} corrupt record(s) "
                     f"skipped, {self.journal_errors} append error(s)")
        if self.service_cells:
            base += (f" | service: {self.service_cells} cell(s), "
                     f"{self.service_cache_hits} cache hit(s)")
        return base


@dataclass
class ExperimentResult:
    """All curves of one experiment plus rendering helpers."""

    experiment: str
    machine: str
    operation: str
    nprocs: int
    series: list[Series]
    reference: str
    #: simulator counters + wall time of the sweep that produced this result
    #: (None for results not built by :func:`run_sweep`)
    stats: Optional[SweepStats] = None
    #: quarantined cells by key (``stack|size``): typed aborts, absent from
    #: ``series`` and the CSV — re-running with ``--resume`` recomputes them
    aborted: dict[str, CellAborted] = field(default_factory=dict)

    @property
    def sizes(self) -> list[int]:
        """Sorted union of message sizes across all series."""
        sizes: set[int] = set()
        for s in self.series:
            sizes.update(s.times)
        return sorted(sizes)

    def get(self, name: str) -> Series:
        """Look up one series by configuration name."""
        for s in self.series:
            if s.name == name:
                return s
        raise BenchmarkError(f"no series {name!r} in {self.experiment}")

    def normalized(self) -> dict[str, dict[int, float]]:
        """All series normalized to the reference (paper convention)."""
        ref = self.get(self.reference)
        return {s.name: s.normalized_to(ref) for s in self.series}

    # -- rendering -----------------------------------------------------------
    def render(self, normalized: bool = True) -> str:
        """ASCII table in the paper's normalized-runtime format."""
        sizes = self.sizes
        header = (
            f"{self.experiment}: {self.operation} on {self.machine} "
            f"({self.nprocs} ranks)"
            + (f", normalized to {self.reference} (lower is better)"
               if normalized else ", per-op time")
        )
        lines = [header, "-" * len(header)]
        colw = max(12, max(len(s.name) for s in self.series) + 1)
        row = ["size".rjust(7)] + [s.name.rjust(colw) for s in self.series]
        lines.append(" ".join(row))
        norm = self.normalized() if normalized else None
        for size in sizes:
            cells = [fmt_size(size).rjust(7)]
            for s in self.series:
                if normalized:
                    v = norm[s.name].get(size)
                    cells.append((f"{v:.2f}" if v is not None else "-").rjust(colw))
                else:
                    t = s.times.get(size)
                    cells.append((fmt_time(t) if t is not None else "-").rjust(colw))
            lines.append(" ".join(cells))
        return "\n".join(lines)

    def to_csv(self, path: Optional[str] = None) -> str:
        """Write absolute and normalized values; returns the file path."""
        path = path or os.path.join(
            results_dir(), f"{self.experiment}_{self.machine}.csv"
        )
        norm = self.normalized()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["experiment", "machine", "operation", "nprocs",
                        "series", "msg_bytes", "seconds", "normalized"])
            for s in self.series:
                for size in sorted(s.times):
                    w.writerow([
                        self.experiment, self.machine, self.operation,
                        self.nprocs, s.name, size, f"{s.times[size]:.9f}",
                        f"{norm[s.name].get(size, float('nan')):.4f}",
                    ])
        return path


def checkpoint_path(experiment: str, machine: str) -> str:
    """Default on-disk checkpoint location, next to the experiment's CSV."""
    return os.path.join(results_dir(),
                        f"{experiment}_{machine}.checkpoint.json")


def _sweep_header(experiment: str, machine: str, operation: str, nprocs: int,
                  settings: ImbSettings) -> dict:
    """Identity of a sweep: cells journaled under one header are only
    reusable by a sweep with the same header (the fault plan is excluded —
    it has no stable fingerprint — so resuming a faulted sweep with a
    different plan is the caller's responsibility)."""
    return {
        "version": 1,
        "experiment": experiment,
        "machine": machine,
        "operation": operation,
        "nprocs": nprocs,
        "settings": [settings.warmups, settings.max_iterations,
                     settings.target_bytes, bool(settings.off_cache),
                     settings.root],
    }


def _check_header(found: Optional[dict], header: dict, path: str) -> None:
    if found != header:
        raise BenchmarkError(
            f"sweep checkpoint {path} belongs to a different sweep "
            f"(header mismatch); delete it to start over")


_JOURNAL_FORMAT = 3

#: chaos hook: wraps the journal file object opened for appends (fault
#: campaigns inject EIO/ENOSPC/short writes here); identity when unset.
#: A :class:`~contextvars.ContextVar`, not a module global: each thread
#: (and each asyncio task of the sweep service) sees only its own value,
#: so one client's armed chaos wrapper can never leak into another
#: client's sweep — and a sweep that crashes with the wrapper installed
#: leaves nothing behind for the next caller in a fresh context.
_JOURNAL_WRAPPER: ContextVar[Optional[Callable[[IO[str]], IO[str]]]] = \
    ContextVar("repro_journal_wrapper", default=None)


@contextlib.contextmanager
def journal_wrapper(
        fn: Optional[Callable[[IO[str]], IO[str]]]) -> Iterator[None]:
    """Scope the journal wrapper hook to a ``with`` block.

    The previous hook is restored even when the sweep inside dies, so a
    crashed chaos run never leaves the wrapper armed for the next sweep
    in the same process.
    """
    token = _JOURNAL_WRAPPER.set(fn)
    try:
        yield
    finally:
        _JOURNAL_WRAPPER.reset(token)


#: profiling hook: a directory path; when set, every sweep cell is run
#: under :mod:`cProfile` and its pstats dump written to
#: ``<dir>/<machine>_<operation>_<stack>_<size>.pstats`` (see
#: ``executor._run_cell``).  Set via the ``--profile`` CLI flag, which
#: forces ``--jobs 1`` so each profile times its cell alone.
#: Context-scoped like the journal wrapper, and for the same reason.
_PROFILE_DIR: ContextVar[Optional[str]] = \
    ContextVar("repro_profile_dir", default=None)


@contextlib.contextmanager
def profile_dir(path: Optional[str]) -> Iterator[None]:
    """Scope the per-cell profile directory to a ``with`` block."""
    token = _PROFILE_DIR.set(path)
    try:
        yield
    finally:
        _PROFILE_DIR.reset(token)


class JournalLease:
    """Advisory exclusive lease on one checkpoint journal.

    Two writers sharing :func:`results_dir` (a sweep server and a stray
    CLI run, or two CLI runs racing) would interleave their appends into
    the same ``*.checkpoint.json`` file: each append is a buffered write,
    and a flush boundary landing mid-line splices the two streams into a
    corrupt interior record (see
    ``tests/bench/test_journal_lock.py`` for the demonstration).

    The lease is an ``flock`` on a ``<journal>.lock`` sidecar — the
    sidecar, not the journal itself, because compaction atomically
    *replaces* the journal (``os.replace``), and a lock on the old inode
    would let a second writer happily lock the new one.  ``flock`` is
    per open file description, so two opens in one process conflict just
    like two processes do.  On platforms without ``fcntl`` the lease
    degrades to a no-op (single-writer discipline is then unenforced, as
    before this lease existed).
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[IO[str]] = None
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        fh = open(path + ".lock", "a+")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as err:
            holder = ""
            try:
                fh.seek(0)
                pid = fh.read().strip()
                if pid:
                    holder = f" (held by pid {pid})"
            except OSError:
                pass
            fh.close()
            raise BenchmarkError(
                f"checkpoint journal {path} is locked by another "
                f"writer{holder}; a second concurrent writer would "
                f"interleave appends and corrupt records") from err
        fh.seek(0)
        fh.truncate()
        fh.write(f"{os.getpid()}\n")
        fh.flush()
        self._fh = fh

    def release(self) -> None:
        """Drop the lease (idempotent); the sidecar file is left behind."""
        if self._fh is None:
            return
        fh, self._fh = self._fh, None
        try:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        finally:
            fh.close()

    def __enter__(self) -> "JournalLease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def _record_checksum(key: str, t_literal: str) -> str:
    """Per-record integrity checksum of a format-3 journal line.

    Computed over the cell key and the *exact JSON literal* of the time
    (so the float bit pattern is covered end-to-end), blake2b for the same
    reason :mod:`repro.faults.plan` uses it: cheap, in the stdlib, and not
    fooled by the single-bit flips a CRC-of-adjacent-records would be.
    """
    token = f"{key}|{t_literal}".encode()
    return hashlib.blake2b(token, digest_size=8).hexdigest()


@dataclass
class JournalSkip:
    """One corrupt mid-file journal record skipped on load."""

    lineno: int
    reason: str
    cell: Optional[str] = None   # recovered when the line still parses


@dataclass
class JournalReport:
    """What :func:`verify_journal` / the loader found in one journal."""

    path: str
    format: int
    header: Optional[dict]
    cells: dict[str, float]
    skipped: list[JournalSkip]
    torn_tail: bool

    @property
    def ok(self) -> bool:
        """True when every record was intact (a torn tail still counts as
        recoverable but not ok — the cell must recompute)."""
        return not self.skipped and not self.torn_tail

    def render(self) -> str:
        lines = [f"journal {self.path}: format {self.format}, "
                 f"{len(self.cells)} intact cell(s)"]
        for skip in self.skipped:
            what = f" (cell {skip.cell!r})" if skip.cell else ""
            lines.append(f"  corrupt line {skip.lineno}{what}: {skip.reason}"
                         f" — cell will recompute on --resume")
        if self.torn_tail:
            lines.append("  torn final line (crash mid-append) — cell will "
                         "recompute on --resume")
        if self.ok:
            lines.append("  every record intact")
        return "\n".join(lines)


def _parse_journal(path: str, header: Optional[dict]) -> JournalReport:
    """Parse a format-3 journal into a :class:`JournalReport`.

    Every record carries a blake2b checksum: a corrupt *interior* record
    (bit rot, a partially flushed append that later appends buried) is
    skipped and reported — the cell simply recomputes on resume — instead
    of poisoning the whole journal.  A torn *final* line is the signature
    of a crash mid-append and is dropped silently.  A file whose header
    line is not ``"format": 3`` is refused with a typed error.

    ``header`` is checked when given; pass ``None`` to inspect a journal
    without knowing which sweep it belongs to (``--verify-journal``).
    """
    try:
        with open(path) as fh:
            raw = fh.read()
    except FileNotFoundError:
        return JournalReport(path, _JOURNAL_FORMAT, None, {}, [], False)
    except OSError as err:
        raise BenchmarkError(f"corrupt sweep checkpoint {path}: {err}") from err
    if not raw.strip():
        return JournalReport(path, _JOURNAL_FORMAT, None, {}, [], False)
    lines = raw.splitlines()
    try:
        head = json.loads(lines[0])
    except ValueError as err:
        raise BenchmarkError(f"corrupt sweep checkpoint {path}: {err}") from err
    if not isinstance(head, dict):
        raise BenchmarkError(f"corrupt sweep checkpoint {path}: bad header line")
    fmt = head.get("format")
    if fmt != _JOURNAL_FORMAT:
        found = "no format" if fmt is None else f"format {fmt!r}"
        raise BenchmarkError(
            f"unsupported sweep checkpoint {path}: header line has {found}, "
            f"only journal format {_JOURNAL_FORMAT} is read; delete it to "
            f"start over")
    if header is not None:
        _check_header(head.get("header"), header, path)
    cells: dict[str, float] = {}
    skipped: list[JournalSkip] = []
    torn_tail = False
    last = len(lines)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cell_hint: Optional[str] = None
        try:
            rec = json.loads(line)
            key, t = rec["cell"], rec["t"]
            if not isinstance(key, str) or not isinstance(t, (int, float)):
                raise ValueError("bad cell record")
            cell_hint = key
            want = _record_checksum(key, json.dumps(t))
            got = rec.get("ck")
            if got != want:
                raise ValueError(f"checksum mismatch (recorded {got!r})")
        except (ValueError, KeyError, TypeError) as err:
            if lineno == last:
                torn_tail = True
                break  # torn tail from a crash mid-append; cell re-runs
            skipped.append(JournalSkip(lineno, str(err), cell_hint))
            continue  # skip-and-report: the cell recomputes
        cells[key] = t
    return JournalReport(path, fmt, head.get("header"), cells, skipped,
                         torn_tail)


def verify_journal(path: str) -> JournalReport:
    """Inspect a checkpoint journal without running anything.

    The ``python -m repro.bench --verify-journal PATH`` subcommand: parses
    every record, verifies its checksum, and reports corrupt/torn records
    (each of which ``--resume`` would recover by recomputation).  Raises
    :class:`~repro.errors.BenchmarkError` only for damage resume cannot
    recover from (unreadable header, a format other than 3).
    """
    return _parse_journal(path, header=None)


def _compact_checkpoint(path: str, header: dict,
                        cells: dict[str, float]) -> None:
    """Atomically rewrite the journal as header + one line per known cell.

    Write-temp-then-rename: a crash leaves either the previous journal or
    the compacted one — never a torn file.  Run once per sweep start, this
    drops torn tails, corrupt records, and duplicates.
    """
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps({"format": _JOURNAL_FORMAT, "header": header},
                            sort_keys=True) + "\n")
        for key in sorted(cells):
            fh.write(_journal_line(key, cells[key]))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _journal_line(key: str, t: float) -> str:
    # Floats go through json ``repr`` verbatim (exact round-trip), so a
    # resumed sweep reproduces CSVs byte-for-byte; the checksum covers the
    # same literal the reader re-hashes.
    t_literal = json.dumps(t)
    return ('{"cell": %s, "t": %s, "ck": "%s"}\n'
            % (json.dumps(key), t_literal, _record_checksum(key, t_literal)))


def _journal_append(fh: IO[str], key: str, t: float) -> None:
    """O(1) durable append of one completed cell (vs the old full rewrite,
    which made a sweep's checkpoint cost quadratic in cells)."""
    fh.write(_journal_line(key, t))
    fh.flush()
    os.fsync(fh.fileno())


def _sweep_via_service(address: str, machine: str, operation: str,
                       nprocs: int, settings: ImbSettings, pending: list,
                       stats: SweepStats, cells: dict,
                       aborted: dict, journal_cell) -> None:
    """Obtain pending cells from a sweep server (the ``--connect`` path).

    The server resolves each cell from its content-addressed cache when
    it can and shards the misses across its standing warm pool; results
    stream back in completion order and are journaled locally exactly
    like locally-computed ones, so served sweeps produce byte-identical
    CSVs and checkpoints.
    """
    from repro.service.client import ServiceClient

    stats.events.append(TraceRecord(0.0, "service.request", {
        "address": address, "cells": len(pending),
        "operation": operation, "machine": machine}))
    with ServiceClient(address) as client:
        for res in client.sweep(machine, operation, nprocs, settings,
                                pending):
            stats.service_cells += 1
            if res.aborted is not None:
                aborted[res.key] = res.aborted
                stats.cells_aborted += 1
                stats.events.append(TraceRecord(0.0, "chunk.quarantine", {
                    "cell": res.key, "deaths": res.aborted.deaths,
                    "reason": res.aborted.reason}))
                continue
            if res.cached:
                stats.service_cache_hits += 1
                stats.events.append(TraceRecord(0.0, "service.cache_hit", {
                    "cell": res.key, "address": address}))
            cells[res.key] = res.t
            stats.add_cell(res.stats)
            journal_cell(res.key, res.t)


def run_sweep(
    experiment: str,
    machine: str,
    operation: str,
    nprocs: int,
    stacks: Iterable[Stack],
    sizes: Iterable[int],
    settings: Optional[ImbSettings] = None,
    reference: Optional[str] = None,
    fault_plan: Optional["FaultPlan"] = None,
    checkpoint: Optional[str] = None,
    parallel: int = 1,
    retry_limit: Optional[int] = DEFAULT_RETRY_LIMIT,
    service: Optional[str] = None,
) -> ExperimentResult:
    """Run the (stack x size) grid and return the collected curves.

    ``fault_plan`` arms the schedule on every fresh machine of the sweep
    (forked per build, so call counters restart per cell); with the default
    ``None`` the kernel path stays on its zero-overhead fast path.

    ``checkpoint`` names a journal file: every completed (stack, size) cell
    is appended there durably (header line + one checksummed JSON line per
    cell; the journal is compacted on load), and cells already journaled
    are skipped on restart.  Corrupt interior records are skipped-and-
    reported (``stats.journal_skipped``) and their cells recomputed; an
    append error mid-sweep downgrades the rest of the sweep to
    no-journaling (``stats.journal_errors``) rather than risking interior
    corruption.  Because each cell builds a fresh machine, a
    killed-and-resumed sweep produces the same times — and therefore
    byte-identical CSVs — as an uninterrupted one.

    ``parallel`` fans pending cells across warm-pool workers (0 = one per
    CPU; 1 runs them in this process; see :mod:`repro.bench.executor`).
    Each cell is a pure function of its inputs, every simulator iterates in
    creation-id order, and the cell map is merged by this single writer,
    so parallel runs produce CSVs and checkpoints byte-identical to
    ``parallel=1``.  ``retry_limit`` is the per-cell worker-death budget
    of the quarantine ladder (parallel only); quarantined cells land in
    ``result.aborted`` and are *absent* from the series/CSV/journal, so
    ``--resume`` recomputes them.

    ``service`` names a sweep-server address (``host:port`` or a unix
    socket path): pending cells are requested from the server instead of
    computed in-process (``parallel`` is then ignored).  The server's
    content-addressed cache and warm pool produce the same per-cell times
    as a local run, so served sweeps keep the byte-identity guarantee.
    Journaling, resume, and series assembly all stay local.

    While the sweep holds a checkpoint journal open it also holds an
    exclusive advisory lease on it (``<journal>.lock``); a second writer
    racing the same journal gets a typed error instead of silently
    interleaving appends into a corrupt record.  SIGTERM during the sweep
    is converted into ``KeyboardInterrupt`` (main thread only), so the
    pool is shut down, workers are reaped, and the journal is closed on a
    complete record instead of being torn mid-append.
    """
    stacks = list(stacks)
    sizes = list(sizes)
    if not stacks or not sizes:
        raise BenchmarkError("run_sweep needs at least one stack and one size")
    settings = settings or ImbSettings()
    if fault_plan is not None:
        settings = replace(settings, fault_plan=fault_plan)
    from repro.bench.executor import run_cells, sigterm_interrupts

    header: Optional[dict] = None
    cells: dict[str, float] = {}
    stats = SweepStats()
    aborted: dict[str, CellAborted] = {}
    lease: Optional[JournalLease] = None
    journal: Optional[IO[str]] = None
    wall0 = time.perf_counter()

    def journal_cell(key: str, t: float) -> None:
        # An append that errors (disk full, I/O error, chaos injection)
        # downgrades the sweep to no-journaling: retrying a half-written
        # line could corrupt the *interior* of the journal, whereas
        # stopping leaves at most a torn tail — which resume tolerates.
        nonlocal journal
        if journal is None:
            return
        try:
            _journal_append(journal, key, t)
        except OSError as err:
            stats.journal_errors += 1
            stats.events.append(TraceRecord(0.0, "journal.error", {
                "cell": key, "reason": str(err)}))
            try:
                journal.close()
            except OSError:
                pass
            journal = None

    try:
        if checkpoint is not None:
            header = _sweep_header(experiment, machine, operation, nprocs,
                                   settings)
            lease = JournalLease(checkpoint)
            report = _parse_journal(checkpoint, header)
            cells = report.cells
            stats.journal_skipped = len(report.skipped)
            for skip in report.skipped:
                stats.events.append(TraceRecord(0.0, "journal.skip", {
                    "path": checkpoint, "lineno": skip.lineno,
                    "cell": skip.cell, "reason": skip.reason}))
            _compact_checkpoint(checkpoint, header, cells)
        stats.cells_resumed = len(cells)
        pending = [(stack, size) for stack in stacks for size in sizes
                   if f"{stack.name}|{size}" not in cells]
        if checkpoint is not None and pending:
            journal = open(checkpoint, "a")
            wrapper = _JOURNAL_WRAPPER.get()
            if wrapper is not None:
                journal = wrapper(journal)
        with sigterm_interrupts():
            if service is not None and pending:
                _sweep_via_service(service, machine, operation, nprocs,
                                   settings, pending, stats, cells, aborted,
                                   journal_cell)
            else:
                # In this process, in input order, when ``parallel``
                # resolves to one worker; otherwise across the warm pool,
                # longest cells first.  Either way this is the single
                # writer that merges and journals the results.
                pool_report: dict = {}
                producer = run_cells(
                    machine, operation, nprocs, settings, pending,
                    jobs=parallel, report=pool_report,
                    retry_limit=retry_limit)
                try:
                    for key, t, cell_stats in producer:
                        if isinstance(t, CellAborted):
                            aborted[key] = t
                            stats.events.append(TraceRecord(
                                0.0, "chunk.quarantine",
                                {"cell": key, "deaths": t.deaths,
                                 "reason": t.reason}))
                            continue
                        cells[key] = t
                        stats.add_cell(cell_stats)
                        journal_cell(key, t)
                finally:
                    # Close the generator deterministically: an exception
                    # raised in *this* loop body (a signal, a journal bug)
                    # would otherwise leave it suspended — and the warm
                    # pool inside it alive — until garbage collection,
                    # which never happens at all when the process is dying.
                    producer.close()
                stats.pool_workers = pool_report.get("workers", 0)
                stats.pool_chunks = pool_report.get("chunks", 0)
                stats.pool_requeued = pool_report.get("cells_requeued", 0)
                stats.pool_respawns = pool_report.get("respawns", 0)
                stats.cells_aborted = pool_report.get("cells_aborted", 0)
                stats.chunks_quarantined = pool_report.get(
                    "chunks_quarantined", 0)
    finally:
        if journal is not None:
            journal.close()
        if lease is not None:
            lease.release()
    stats.wall_seconds = time.perf_counter() - wall0
    series = []
    for stack in stacks:
        s = Series(stack.name)
        for size in sizes:
            t = cells.get(f"{stack.name}|{size}")
            if t is not None:   # aborted cells are absent, not NaN
                s.times[size] = t
        series.append(s)
    return ExperimentResult(
        experiment=experiment,
        machine=machine,
        operation=operation,
        nprocs=nprocs,
        series=series,
        reference=reference or stacks[-1].name,
        stats=stats,
        aborted=aborted,
    )
