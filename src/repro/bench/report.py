"""Rendering of Table I beside the paper's published numbers."""

from __future__ import annotations

from typing import Mapping

from repro.units import fmt_time

__all__ = ["render_table1"]


def render_table1(machine: str, rows: Mapping[str, Mapping[str, float]],
                  paper: Mapping[str, tuple[float, float]] | None = None) -> str:
    """ASP breakdown in the layout of Table I.

    ``rows`` maps library name to ``{"bcast": s, "total": s}``; ``paper``
    optionally maps the same names to the published ``(bcast, total)``.
    """
    lines = [f"Table I — ASP on {machine} (simulated)"]
    header = f"{'library':>12} {'Bcast':>12} {'Total':>12}"
    if paper:
        header += f" {'paper Bcast':>12} {'paper Total':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, cols in rows.items():
        line = f"{name:>12} {fmt_time(cols['bcast']):>12} {fmt_time(cols['total']):>12}"
        if paper and name in paper:
            pb, pt = paper[name]
            line += f" {pb:>11.1f}s {pt:>11.1f}s"
        lines.append(line)
    best_other = min((c["bcast"] for n, c in rows.items() if n != "KNEM Coll"),
                     default=None)
    knem = rows.get("KNEM Coll")
    if best_other and knem:
        imp_b = 100.0 * (best_other - knem["bcast"]) / best_other
        best_total = min(c["total"] for n, c in rows.items() if n != "KNEM Coll")
        imp_t = 100.0 * (best_total - knem["total"]) / best_total
        lines.append(f"{'Improvement':>12} {imp_b:>11.1f}% {imp_t:>11.1f}%")
    return "\n".join(lines)

