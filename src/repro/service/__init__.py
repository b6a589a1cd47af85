"""Sweep-as-a-service: a persistent sweep server and its client.

The paper's core argument is amortization: KNEM's per-call setup
(region registration, cookie exchange) is hoisted into standing state so
repeated collectives pay only the copy.  This package applies the same
move to the harness itself.  A long-running server keeps the fork-once
warm pool, the per-spec memo caches, and a content-addressed result
cache alive across sweeps, so a repeated figure reproduction pays
neither process startup nor recomputation — ``python -m repro.bench``
becomes one client among many (``--serve`` / ``--connect``).

Components (scheduler / store / transport are deliberately separable):

- :mod:`repro.service.protocol` — wire codec: newline-delimited JSON
  frames, dataclass round-trips, and the content-addressed cache key.
- :mod:`repro.service.store` — :class:`ResultStore`, the cache layered
  on a format-3 JSONL journal keyed by cache key.
- :mod:`repro.service.runner` — :class:`PoolRunner`, the thread that
  owns the persistent :class:`~repro.bench.executor.WarmPool` and runs
  batched cache misses on it.
- :mod:`repro.service.server` — the asyncio transport multiplexing
  concurrent clients and deduping in-flight cells.
- :mod:`repro.service.client` — the blocking client used by
  :func:`repro.bench.harness.run_sweep`'s ``service=`` path.

The exports below resolve on first use (PEP 562), so a client or a
harness import does not load the asyncio server.
"""

import importlib

_EXPORTS = {
    "CellResult": "repro.service.client",
    "ServiceClient": "repro.service.client",
    "cache_key": "repro.service.protocol",
    "ServerHandle": "repro.service.server",
    "SweepServer": "repro.service.server",
    "serve": "repro.service.server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
