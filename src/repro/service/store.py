"""Content-addressed result cache layered on the format-3 journal.

The store is a :mod:`repro.bench.harness` format-3 JSONL journal whose
cell keys are :func:`repro.service.protocol.cache_key` digests instead
of ``stack|size`` labels — the per-record blake2b integrity checksum the
journal already computes is thereby promoted into a content-addressed
identity.  Reusing the journal buys everything it already guarantees for
free: O(1) durable appends, torn-tail tolerance, skip-and-report on
corrupt interior records, compaction-on-load, and the writer lease that
keeps a second server from interleaving appends.

A server restart therefore *warms* the cache rather than losing it:
loading the journal back is exactly the resume path a killed sweep uses
(the chaos campaign's service-restart dimension leans on this).
"""

from __future__ import annotations

import os
from typing import IO, Optional

from repro.bench import harness

__all__ = ["ResultStore", "default_cache_path"]

_STORE_HEADER = {"version": 1, "store": "repro.service result cache"}


def default_cache_path() -> str:
    """Default on-disk cache journal, inside :func:`harness.results_dir`."""
    return os.path.join(harness.results_dir(),
                        "service_cache.checkpoint.json")


class ResultStore:
    """Durable ``cache_key -> seconds`` map with journal-backed appends.

    ``path=None`` keeps the cache in memory only (tests, throwaway
    servers).  With a path, the journal is loaded (corrupt records are
    simply dropped — a cache miss, not an error), compacted, and held
    open under the harness writer lease for the life of the store.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._cells: dict[str, float] = {}
        self._lease: Optional[harness.JournalLease] = None
        self._fh: Optional[IO[str]] = None
        #: dropped-on-load diagnostics (corrupt or torn records)
        self.recovered_dropped = 0
        self.hits = 0
        self.misses = 0
        if path is None:
            return
        self._lease = harness.JournalLease(path)
        try:
            report = harness._parse_journal(path, header=None)
            if report.header not in (None, _STORE_HEADER):
                raise harness.BenchmarkError(
                    f"{path} is not a service cache journal "
                    f"(header {report.header!r})")
            self._cells = dict(report.cells)
            self.recovered_dropped = len(report.skipped) + (
                1 if report.torn_tail else 0)
            harness._compact_checkpoint(path, _STORE_HEADER, self._cells)
            self._fh = open(path, "a")
        except BaseException:
            self._lease.release()
            raise

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, key: str) -> Optional[float]:
        """Cached seconds for ``key``; counts the hit/miss either way."""
        t = self._cells.get(key)
        if t is None:
            self.misses += 1
        else:
            self.hits += 1
        return t

    def put(self, key: str, t: float) -> None:
        """Record a freshly computed cell (durable append when on disk)."""
        self._cells[key] = t
        if self._fh is not None:
            try:
                harness._journal_append(self._fh, key, t)
            except OSError:
                # Same downgrade contract as the sweep journal: stop
                # journaling rather than risk interior corruption.  The
                # in-memory cache keeps serving; only durability is lost.
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    def counters(self) -> dict:
        return {
            "entries": len(self._cells),
            "hits": self.hits,
            "misses": self.misses,
            "recovered_dropped": self.recovered_dropped,
            "durable": self._fh is not None or self.path is None,
        }

    def close(self) -> None:
        """Release the journal handle and writer lease (idempotent)."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._lease is not None:
            self._lease.release()
            self._lease = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
