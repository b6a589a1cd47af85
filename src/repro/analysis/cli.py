"""Command-line entry point: ``python -m repro.analysis``.

Examples::

    python -m repro.analysis --algo knem_bcast --machine zoot
    python -m repro.analysis --all --machine zoot
    python -m repro.analysis --verify --machine all --format json
    python -m repro.analysis --verify knem.bcast --nprocs 8 --size 256K
    python -m repro.analysis --lint
    python -m repro.analysis --list

``--algo``/``--all`` trace a run and ``--verify`` extracts schedules
symbolically (no simulator run); both build the same happens-before model
and run the same checkers over it, and ``--verify`` adds a DPOR
interleaving exploration with receipts.  ``--lint`` runs the
repro-specific AST rules over ``src/repro``, including the region/copy
direction rule.

Exit status: 0 when every analyzed schedule is clean, 2 when any checker
reported an unsuppressed finding (or a run failed outright) and on usage
errors.  ``--baseline FILE`` suppresses known findings by stable id
(``analysis-baseline.json``); suppressed findings are still printed but do
not affect the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.findings import Baseline, Finding, checker_names
from repro.analysis.runner import ALGOS, algo_names, run_analysis
from repro.hardware.machines import MACHINES
from repro.units import KiB

__all__ = ["main"]

#: the paper's four machine specs, swept by ``--machine all``
_ALL_MACHINES = tuple(sorted(MACHINES))
_DEFAULT_SIZES = (2, 4, 8, 16)


def _parse_size(text: str) -> int:
    """Parse ``65536``, ``64K``/``64KiB``, ``1M``/``1MiB``."""
    t = text.strip().upper().removesuffix("IB").removesuffix("B")
    factor = 1
    if t.endswith("K"):
        factor, t = 1024, t[:-1]
    elif t.endswith("M"):
        factor, t = 1024 * 1024, t[:-1]
    try:
        return int(t) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}") from None


def _print_listing() -> None:
    import repro.coll  # noqa: F401 - populates the schedule registry
    from repro.coll.algorithms import exported_schedules

    print("algos:")
    for name in algo_names():
        print(f"  {name:20s} {ALGOS[name].description}")
    print("checkers:")
    for name in checker_names():
        print(f"  {name}")
    print("schedules (--verify):")
    for spec in exported_schedules():
        variants = ""
        if spec.variants:
            variants = " (+" + ",".join(v for v, _c in spec.variants) + ")"
        print(f"  {spec.name:20s} {spec.description}{variants}")


def _emit(payload: "dict[str, object]", findings: "list[Finding]",
          baseline: "Baseline | None", fmt: str,
          text_lines: "list[str]") -> int:
    """Render output and compute the exit code under the baseline."""
    if baseline is None:
        active, quiet = findings, []
    else:
        active, quiet = baseline.partition(findings)
    if fmt == "json":
        payload["findings"] = (
            [dict(f.to_dict(), suppressed=False) for f in active]
            + [dict(f.to_dict(), suppressed=True) for f in quiet])
        payload["suppressed"] = len(quiet)
        payload["exit"] = 2 if active else 0
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
        for f in quiet:
            print(f"SUPPRESSED {f.render()}")
    return 2 if active else 0


def _run_verify(args: "argparse.Namespace", fmt: str,
                baseline: "Baseline | None") -> int:
    from repro.analysis.static import verify_registry

    machines = _ALL_MACHINES if args.machine == "all" else (args.machine,)
    sizes = (args.nprocs,) if args.nprocs else _DEFAULT_SIZES
    nbytes = args.size or 64 * KiB
    names = args.verify if args.verify else None
    results = verify_registry(machines=machines, sizes=sizes, nbytes=nbytes,
                              names=names)
    if names:
        known = {r.schedule for r in results}
        missing = sorted(set(names) - known)
        if missing:
            print(f"unknown schedule(s): {', '.join(missing)}",
                  file=sys.stderr)
            return 2
    findings = [f for r in results for f in r.findings]
    lines = []
    for r in results:
        if r.skipped:
            lines.append(f"SKIP  {r.name}: {r.skipped}")
            continue
        mark = "ok   " if r.clean else "FAIL "
        receipts = r.receipts
        lines.append(
            f"{mark} {r.name}: {receipts.get('executions', 0)} execution(s),"
            f" {receipts.get('transitions', 0)} transitions cover"
            f" ~1e{receipts.get('interleavings_log10', 0)} interleavings")
        for f in r.findings:
            lines.append(f"      {f.render()}")
    verified = [r for r in results if not r.skipped]
    lines.append(f"verified {len(verified)} schedule instance(s) "
                 f"({len(results) - len(verified)} skipped), "
                 f"{len(findings)} finding(s)")
    payload: "dict[str, object]" = {
        "mode": "verify",
        "machines": list(machines),
        "sizes": list(sizes),
        "nbytes": nbytes,
        "results": [r.to_dict() for r in results],
    }
    return _emit(payload, findings, baseline, fmt, lines)


def _run_lint(fmt: str, baseline: "Baseline | None") -> int:
    from repro.analysis.static import lint_paths, lint_tracked_bytecode

    findings = lint_paths() + lint_tracked_bytecode()
    lines = [f.render() for f in findings]
    lines.append(f"lint: {len(findings)} finding(s) over src/repro")
    return _emit({"mode": "lint"}, findings, baseline, fmt, lines)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Analyze KNEM collective schedules for races, cookie "
                    "lifecycle bugs, direction-control mistakes, and "
                    "deadlocks.",
    )
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--algo", choices=algo_names(),
                      help="analyze one registered schedule (trace-based)")
    what.add_argument("--all", action="store_true",
                      help="analyze every registered schedule (smoke run)")
    what.add_argument("--verify", nargs="*", metavar="SCHEDULE",
                      help="symbolically model-check exported schedules "
                           "(all of them, or the named ones) without "
                           "running the simulator")
    what.add_argument("--lint", action="store_true",
                      help="run the repro-specific AST lint rules over "
                           "src/repro")
    what.add_argument("--list", action="store_true",
                      help="list registered algos, checkers and schedules")
    parser.add_argument("--machine", choices=sorted(MACHINES) + ["all"],
                        default="zoot",
                        help="machine spec, or 'all' for the paper's four "
                             "(default: zoot)")
    parser.add_argument("--nprocs", type=int, default=None,
                        help="ranks to launch (default: min(8, cores); "
                             "for --verify: sweep {2,4,8,16})")
    parser.add_argument("--size", type=_parse_size, default=None,
                        help="per-rank message size, e.g. 64K or 1M "
                             "(default: per-algo; 64K for --verify)")
    parser.add_argument("--checkers", default=None,
                        help="comma-separated checker subset "
                             f"(default: all of {','.join(checker_names())})")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="suppression baseline (analysis-baseline.json); "
                             "suppressed findings do not affect the exit "
                             "code")
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load baseline {args.baseline}: {exc}")

    if args.list:
        _print_listing()
        return 0

    if args.verify is not None:
        return _run_verify(args, args.format, baseline)

    if args.lint:
        return _run_lint(args.format, baseline)

    checkers = args.checkers.split(",") if args.checkers else None
    if checkers:
        unknown = sorted(set(checkers) - set(checker_names()))
        if unknown:
            parser.error(f"unknown checker(s): {', '.join(unknown)} "
                         f"(available: {','.join(checker_names())})")
    if args.machine == "all":
        parser.error("--machine all is only supported with --verify")
    names = algo_names() if args.all else [args.algo]
    findings: "list[Finding]" = []
    lines: "list[str]" = []
    reports: "list[dict[str, object]]" = []
    errored = False
    for name in names:
        report = run_analysis(name, machine=args.machine,
                              nprocs=args.nprocs, nbytes=args.size,
                              checkers=checkers)
        lines.append(report.render())
        lines.append("")
        findings.extend(report.findings)
        errored = errored or bool(report.error)
        reports.append({"subject": report.subject, "machine": report.machine,
                        "nprocs": report.nprocs, "nbytes": report.nbytes,
                        "error": report.error})
    code = _emit({"mode": "trace", "reports": reports},
                 findings, baseline, args.format, lines)
    return 2 if errored else code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
