"""``run.py compare PARENT/ CHANGE/ [--agree]``: judge two sets of runs.

Each directory holds ``--out`` records, one JSON file per run.  Runs are
paired in file-name order, which is the order they were taken in when the
two commits were run alternately.  For every workload and metric the
report gives each side's median and quartiles, the share of pairs the
change wins (ties count for neither), and a verdict:

- end-to-end metrics with a bound in ``BENCHMARK.json``, from untraced
  runs: *improved* when the change wins at least 9 of 10 pairs and the
  medians differ by more than the distance between the parent's
  quartiles; *unresolved* when the parent's own spread is wider than the
  bound, unless every change run beats every parent run; *worse* when the
  change's median is worse than the parent's by more than the bound;
  *no-worse* otherwise;
- exact metrics (work counters, ``csv_match_frac``, ``failed_frac``) are
  compared for equality: *same*, *improved*/*worse* for the end-to-end
  ones, *changed* for counters, *unstable* when one side's runs disagree
  among themselves;
- ``*.self_s`` (traced runs) and the other per-layer metrics are shown
  with their change, for attribution only.

``--agree`` checks two sets of runs of the same code instead: every
bounded metric's medians within its bound of each other, each set's
spread within the bound (``setup_s`` exempt), and every exact metric
identical across all runs.  Exit code 0 when nothing is worse, changed
or unstable (``--agree``: when every check passes), 1 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from collections import defaultdict

from metrics import (COUNTS, EXACT, EXTRA_BETTER, declared, load_benchmark,
                     quartiles, spread)

#: per-layer metrics that only a traced run measures
TRACED_ONLY = frozenset({"simtime.ns_per_event",
                         "hardware.flows.us_per_rebalance", "trace.overhead"})


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        runs[record["workload"]].append(record)
    return runs


def values(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name][0] for r in records if name in r["metrics"]]


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, share of pairs the change wins) for a bounded metric."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    if sign > 0:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if win_frac >= 0.9 and sign * (pm - cm) > p3 - p1:
        return "improved", win_frac
    if spread(parent) > bound and not all_better:
        return "unresolved", win_frac
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "worse", win_frac
    return "no-worse", win_frac


def exact_verdict(parent: list[float], change: list[float], better: str,
                  counter: bool) -> str:
    if len(set(parent)) > 1 or len(set(change)) > 1:
        return "unstable"
    if parent[0] == change[0]:
        return "same"
    if counter:
        return "changed"
    gained = change[0] < parent[0] if better == "lower" else \
        change[0] > parent[0]
    return "improved" if gained else "worse"


def _fmt(vals: list[float]) -> str:
    q1, med, q3 = quartiles(vals)
    return f"{med:.5g} [{q1:.4g}, {q3:.4g}]"


def _delta(parent: list[float], change: list[float]) -> str:
    pm, cm = quartiles(parent)[1], quartiles(change)[1]
    if not pm:
        return f"{cm - pm:+.4g}"
    return f"{(cm - pm) / abs(pm) * 100:+.1f}%"


def _split(records: list[dict]) -> tuple[list[dict], list[dict]]:
    return ([r for r in records if not r["trace"]],
            [r for r in records if r["trace"]])


def compare(parent_dir: str, change_dir: str, agree: bool) -> int:
    bench = load_benchmark()
    meta = declared(bench)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parent, change = load(parent_dir), load(change_dir)
    ok = True
    for workload in sorted(set(parent) | set(change)):
        p_all, c_all = parent.get(workload, []), change.get(workload, [])
        print(f"== {workload}: {len(p_all)} runs in {parent_dir}, "
              f"{len(c_all)} in {change_dir}")
        if not p_all or not c_all:
            print("   missing on one side")
            ok = False
            continue
        (p_plain, p_traced), (c_plain, c_traced) = _split(p_all), \
            _split(c_all)
        present = set().union(*(r["metrics"] for r in p_all + c_all))
        names = [n for n in meta if n in present] + sorted(present - set(meta))
        rows = []
        for name in names:
            better = meta.get(name, {}).get("better") or EXTRA_BETTER.get(
                name, "lower")
            if name in EXACT:
                pv, cv = values(p_all, name), values(c_all, name)
            elif name.endswith(".self_s") or name in TRACED_ONLY:
                pv, cv = values(p_traced, name), values(c_traced, name)
            else:
                pv, cv = values(p_plain, name), values(c_plain, name)
            if not pv or not cv:
                continue
            if name in EXACT:
                v = exact_verdict(pv, cv, better, name in COUNTS)
                if agree:
                    v = "ok" if v == "same" else "FAIL"
                ok &= v in ("same", "improved", "ok")
                rows.append((name, pv, cv, "", v))
            elif name in bounds:
                bound = bounds[name]
                if agree:
                    drift = abs(quartiles(cv)[1] - quartiles(pv)[1])
                    base = abs(quartiles(pv)[1]) or 1.0
                    spreads = (spread(pv), spread(cv))
                    fine = drift / base <= bound and (
                        name == "setup_s" or max(spreads) <= bound)
                    v = (f"{'ok' if fine else 'FAIL'} (spread "
                         f"{max(spreads) / bound:.2f}x bound)")
                    ok &= fine
                    rows.append((name, pv, cv, "", v))
                else:
                    v, win = verdict(pv, cv, better, bound)
                    ok &= v != "worse"
                    rows.append((name, pv, cv, f"{win:.0%}", v))
            else:
                rows.append((name, pv, cv, "", ""))
        for name, pv, cv, win, v in rows:
            print(f"   {name:<36} {_fmt(pv):>30} {_fmt(cv):>30} "
                  f"{_delta(pv, cv):>8} {win:>5} {v}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two directories of ledger runs.")
    parser.add_argument("parent", help="runs of the parent commit (or the "
                                       "first set, with --agree)")
    parser.add_argument("change", help="runs of the change (or the second "
                                       "set)")
    parser.add_argument("--agree", action="store_true",
                        help="the two sets ran the same code: check that "
                             "they agree within the bounds")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change, args.agree)
