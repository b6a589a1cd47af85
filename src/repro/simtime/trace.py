"""Structured tracing for simulations.

The tracer is deliberately tiny: subsystems call ``tracer.emit(category,
**fields)`` and tests/benchmarks inspect the recorded stream.  Tracing is off
by default so the hot simulation loops pay only a truthiness check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace event: a timestamp, a category, and free-form fields."""

    time: float
    category: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None


class Tracer:
    """Collects :class:`TraceRecord` objects and per-category counters.

    ``counters`` are always maintained (cheap); full records only when
    ``enabled`` is True.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = False):
        self._clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self.counters: Counter[str] = Counter()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulator's clock (done by Machine assembly)."""
        self._clock = clock

    def emit(self, category: str, **fields: Any) -> None:
        self.counters[category] += 1
        if self.enabled:
            self.records.append(TraceRecord(self._clock(), category, fields))

    def tick(self, category: str) -> None:
        """Count-only fast path for hot call sites.

        Per-copy sites guard with ``if tracer.enabled: tracer.emit(...)
        else: tracer.tick(...)`` so a disabled tracer never pays for
        building the kwargs dict — the dominant cost of :meth:`emit` in
        tight simulation loops — while the always-on counters stay exact.
        The per-message sites of the PML and the mailboxes skip this call
        too and bump ``counters[category]`` themselves.
        """
        self.counters[category] += 1

    def select(self, category: str) -> Iterator[TraceRecord]:
        """Iterate records of one category (requires ``enabled``)."""
        return (r for r in self.records if r.category == category)

    def count(self, category: str) -> int:
        return self.counters[category]

    def reset(self) -> None:
        self.records.clear()
        self.counters.clear()
