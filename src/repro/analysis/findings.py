"""Findings, reports, and the checker registry.

Every checker consumes a :class:`~repro.analysis.model.TraceModel` — from
a traced run or an extracted schedule — and yields :class:`Finding`
objects.  Checkers register themselves with :func:`register_checker`, so
the runner, the static verifier, the CLI, and the pytest plugin all run the
same set without hand-maintained lists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.model import TraceModel

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "Report",
    "Baseline",
    "finding_id",
    "register_checker",
    "checker_names",
    "run_checkers",
]

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One structured analyzer finding.

    ``checker`` names the pass that produced it (``race``, ``cookie``,
    ``direction``, ``board``, ``deadlock``, or a tool such as ``lint``);
    ``category`` is a stable machine-readable slug within that pass (e.g.
    ``write-write-race``).
    """

    checker: str
    category: str
    severity: str
    message: str
    rank: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def fid(self) -> str:
        """Stable 12-hex identifier (see :func:`finding_id`)."""
        return finding_id(self)

    def to_dict(self) -> "dict[str, object]":
        return {"id": self.fid, "checker": self.checker,
                "category": self.category, "severity": self.severity,
                "rank": self.rank, "message": self.message}

    def render(self) -> str:
        where = f" [rank {self.rank}]" if self.rank is not None else ""
        return (f"{self.severity.upper():7s} "
                f"{self.checker}/{self.category}{where} "
                f"({self.fid}): {self.message}")


@dataclass
class Report:
    """The outcome of analyzing one run: findings plus run metadata."""

    subject: str
    findings: list[Finding]
    machine: str = ""
    nprocs: int = 0
    nbytes: int = 0
    error: str = ""

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        head = f"analysis: {self.subject}"
        if self.machine:
            head += f" on {self.machine} ({self.nprocs} ranks, {self.nbytes}B)"
        lines = [head, "-" * len(head)]
        if self.error:
            lines.append(f"run raised: {self.error}")
        if not self.findings and not self.error:
            lines.append("clean: no findings")
        for f in self.findings:
            lines.append(f.render())
        return "\n".join(lines)


def finding_id(f: Finding) -> str:
    """Deterministic 12-hex id over the finding's identity fields.

    Computed from ``checker``/``category``/``rank``/``message`` only, so a
    finding keeps its id across runs, re-orderings, and detail changes —
    stable enough to pin in a suppression baseline.
    """
    payload = "\0".join((f.checker, f.category, str(f.rank), f.message))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=6).hexdigest()


@dataclass
class Baseline:
    """Known-findings suppression list (``analysis-baseline.json``).

    Format::

        {"version": 1,
         "suppress": [{"id": "a1b2c3d4e5f6", "reason": "why"}]}

    Suppressed findings are still reported (marked) but do not affect the
    exit code.
    """

    suppress: dict[str, str] = field(default_factory=dict)
    path: str = ""

    @classmethod
    def load(cls, path: "str | Path") -> "Baseline":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if raw.get("version") != 1:
            raise ValueError(
                f"{path}: unsupported baseline version {raw.get('version')!r}")
        suppress = {}
        for entry in raw.get("suppress", []):
            suppress[str(entry["id"])] = str(entry.get("reason", ""))
        return cls(suppress=suppress, path=str(path))

    def suppressed(self, f: Finding) -> bool:
        return f.fid in self.suppress

    def partition(self, findings: Iterable[Finding]
                  ) -> "tuple[list[Finding], list[Finding]]":
        """Split into (active, suppressed)."""
        active: list[Finding] = []
        quiet: list[Finding] = []
        for f in findings:
            (quiet if self.suppressed(f) else active).append(f)
        return active, quiet


#: a registered checker: model -> findings
Checker = Callable[["TraceModel"], Iterable[Finding]]

#: name -> checker
_CHECKERS: dict[str, Checker] = {}


def register_checker(name: str) -> Callable[[Checker], Checker]:
    """Decorator adding a checker to the registry."""

    def wrap(fn: Checker) -> Checker:
        _CHECKERS[name] = fn
        return fn

    return wrap


def checker_names() -> list[str]:
    return sorted(_CHECKERS)


def run_checkers(model: "TraceModel",
                 checkers: Iterable[str] | None = None) -> list[Finding]:
    """Run the named checkers (default: all registered) over one model."""
    names = list(checkers) if checkers is not None else checker_names()
    unknown = sorted(set(names) - set(_CHECKERS))
    if unknown:
        raise KeyError(f"unknown checker(s) {unknown}; "
                       f"available: {checker_names()}")
    return [f for name in names for f in _CHECKERS[name](model)]
