"""Map simulator source files to ledger layers and bucket cProfile time.

A layer is a set of modules under ``src/repro``.  Every module must match
exactly one rule in :data:`LAYER_RULES` (``test_ledger.py`` checks this),
so a new module cannot land silently in ``other``: it has to be placed.

Self time (``tottime``) of a function inside ``src/repro`` goes to that
module's layer.  Time of every other function -- C builtins, the standard
library, numpy -- is charged to the functions that called it, split by
the time cProfile recorded on each caller edge (by call counts when those
edge times are all zero), and followed up the call graph until it
reaches a ``src/repro`` function.  Time nobody in ``src/repro`` caused
(the benchmark's own code, the profiler's root frames) lands in ``other``.
"""

from __future__ import annotations

import os
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_REPRO = os.path.join(ROOT, "src", "repro")

#: layer names in report order
LAYERS = ("simtime", "hardware.flows", "hardware.memory", "hardware.cache",
          "kernel", "mpi", "coll", "topology", "bench", "service", "other")

#: (path relative to src/repro, layer): a rule ending in "/" matches the
#: whole package below it, any other rule matches one file
LAYER_RULES = (
    ("simtime/", "simtime"),
    ("hardware/flows.py", "hardware.flows"),
    ("hardware/cache.py", "hardware.cache"),
    ("hardware/memory.py", "hardware.memory"),
    ("hardware/spec.py", "hardware.memory"),
    ("hardware/machines.py", "hardware.memory"),
    ("hardware/__init__.py", "hardware.memory"),
    ("kernel/", "kernel"),
    ("mpi/", "mpi"),
    ("coll/", "coll"),
    ("topology/", "topology"),
    ("bench/", "bench"),
    ("service/", "service"),
    ("analysis/", "other"),
    ("apps/", "other"),
    ("chaos/", "other"),
    ("faults/", "other"),
    ("__init__.py", "other"),
    ("errors.py", "other"),
    ("units.py", "other"),
    ("vector.py", "other"),
)


def matching_rules(relpath: str) -> list[tuple[str, str]]:
    """Every rule that matches ``relpath`` (a path below src/repro)."""
    relpath = relpath.replace(os.sep, "/")
    return [(rule, layer) for rule, layer in LAYER_RULES
            if (relpath.startswith(rule) if rule.endswith("/")
                else relpath == rule)]


def module_layer(filename: str) -> Optional[str]:
    """Layer of a source file, or None when it is not under src/repro.

    A file under src/repro that no rule matches is charged to ``other``
    at run time; the test suite is what keeps that from happening.
    """
    path = os.path.realpath(filename)
    base = os.path.realpath(SRC_REPRO) + os.sep
    if path.startswith(base):
        rules = matching_rules(path[len(base):])
        return rules[0][1] if rules else "other"
    if path.startswith(HERE + os.sep):
        return "other"
    return None


def attribute(stats: dict) -> dict[str, float]:
    """Seconds of self time per layer from a ``pstats.Stats.stats`` dict.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    and ``callers`` maps a caller key to ``(nc, cc, tt, ct)`` for that edge.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    own: dict[tuple, Optional[str]] = {}
    shares_memo: dict[tuple, dict[str, float]] = {}

    def layer_of(func: tuple) -> Optional[str]:
        if func not in own:
            filename = func[0]
            own[func] = (None if filename.startswith("~")
                         or filename.startswith("<")
                         else module_layer(filename))
        return own[func]

    def shares(func: tuple, path: frozenset) -> dict[str, float]:
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        entry = stats.get(func)
        inner = path | {func}
        # recursive edges (a function calling itself, directly or through
        # other foreign functions) pass no time to anyone new: drop them
        callers = {c: edge for c, edge in (entry[4] if entry else {}).items()
                   if c not in inner}
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        result: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, frac in shares(caller, inner).items():
                result[layer] = result.get(layer, 0.0) + frac * weight / total
        shares_memo[func] = result
        return result

    for func, entry in stats.items():
        tottime = entry[2]
        if tottime <= 0:
            continue
        for layer, frac in shares(func, frozenset()).items():
            totals[layer] += tottime * frac
    return totals
