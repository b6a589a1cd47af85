"""Command-line entry point: ``python -m repro.bench <experiment>``.

Examples::

    python -m repro.bench fig5 --machine dancer --scale bench
    python -m repro.bench fig4 --scale full --jobs 8
    python -m repro.bench table1 --machine zoot --sample 64
    python -m repro.bench all --scale smoke --jobs 0 --verbose
    python -m repro.bench --verify-journal results/fig5_dancer.checkpoint.json
    python -m repro.bench --serve 127.0.0.1:7000 --jobs 0     # server
    python -m repro.bench fig5 --connect 127.0.0.1:7000       # client

Exit codes: 0 success; 2 usage error; 3 when any sweep cell was
quarantined as a typed abort (the CSV is incomplete — re-run with
``--resume`` after fixing the cause); 4 under ``--strict`` when any cell
degraded KNEM health mid-measurement; 5 when ``--verify-journal`` found
corrupt or torn records (all recoverable by ``--resume`` recompute).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import (
    EXPERIMENTS,
    MACHINE_RANKS,
    PAPER_EXPECTATIONS,
    table1,
)
from repro.bench.harness import profile_dir, verify_journal
from repro.bench.report import render_table1

__all__ = ["main"]

#: exit codes (module constants so tests and CI scripts share them)
EXIT_OK = 0
EXIT_ABORTED = 3
EXIT_DEGRADED = 4
EXIT_JOURNAL_DAMAGED = 5


def _print_result(result, csv: bool, verbose: bool) -> None:
    print(result.render())
    if verbose and result.stats is not None:
        print(result.stats.render())
    print()
    if csv:
        print(f"wrote {result.to_csv()}")


def _result_exit(result, strict: bool) -> int:
    """Worst exit code one experiment result warrants (0 when healthy)."""
    stats = result.stats
    aborted = len(getattr(result, "aborted", {})) or (
        stats.cells_aborted if stats else 0)
    if aborted:
        for key, abort in sorted(getattr(result, "aborted", {}).items()):
            print(f"ABORTED {result.experiment}/{result.machine}: "
                  f"{key}: {abort.describe()}", file=sys.stderr)
        return EXIT_ABORTED
    if strict and stats is not None and stats.cells_degraded:
        print(f"DEGRADED {result.experiment}/{result.machine}: "
              f"{stats.cells_degraded} cell(s) ran with degraded KNEM "
              f"health (--strict)", file=sys.stderr)
        return EXIT_DEGRADED
    return EXIT_OK


def _run_one(name: str, machine: str | None, scale: str, csv: bool,
             resume: bool, jobs: int, verbose: bool, strict: bool,
             service: str | None = None) -> int:
    """Run one experiment on ``machine`` (default: every machine it applies
    to), one sweep after another; returns the worst exit code."""
    fn, takes_machine = EXPERIMENTS[name]
    kwargs = {"scale": scale, "resume": resume, "jobs": jobs,
              "service": service}
    machines = [machine] if machine else list(MACHINE_RANKS)
    status = EXIT_OK
    for m in machines if takes_machine else [None]:
        result = fn(m, **kwargs) if takes_machine else fn(**kwargs)
        _print_result(result, csv, verbose)
        status = max(status, _result_exit(result, strict))
    return status


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's figures and tables on the "
                    "simulated machines.",
    )
    parser.add_argument(
        "experiment", nargs="?",
        choices=sorted(EXPERIMENTS) + ["table1", "all"],
        help="which paper experiment to run (omit with --verify-journal)",
    )
    parser.add_argument("--machine", choices=sorted(MACHINE_RANKS),
                        help="restrict to one machine (default: all that apply)")
    parser.add_argument("--scale", choices=("full", "bench", "smoke"),
                        default="bench",
                        help="grid/iteration sizing (default: bench)")
    parser.add_argument("--sample", type=int, default=None,
                        help="table1: simulate every Nth ASP iteration")
    parser.add_argument("--csv", action="store_true",
                        help="also write results/<experiment>_<machine>.csv")
    parser.add_argument(
        "--resume", action="store_true",
        help="journal each completed sweep cell to a checkpoint next to the "
             "CSV and skip already-journaled cells when restarting an "
             "interrupted run (sweep experiments only)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="warm-pool workers each sweep fans its (stack, size) cells "
             "across, longest first (0 = one per CPU; 1 = in-process, the "
             "default).  Output is byte-identical to --jobs 1")
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail (exit 4) when any cell ran with degraded KNEM "
             "health (the recovery ladder fired mid-measurement)")
    parser.add_argument(
        "--verify-journal", metavar="PATH", default=None,
        help="inspect a checkpoint journal: verify per-record checksums and "
             "report corrupt/torn records, without running anything "
             "(exit 5 when damage is found; --resume recovers it)")
    parser.add_argument(
        "--profile", metavar="DIR", default=None,
        help="run every sweep cell under cProfile and write one dump per "
             "cell to DIR/<machine>_<operation>_<stack>_<size>.pstats "
             "(DIR is created if missing; inspect with ``python -m "
             "pstats``).  Forces --jobs 1, so each profile times its cell "
             "alone")
    parser.add_argument(
        "--serve", metavar="ADDR", default=None,
        help="run a persistent sweep server on ADDR (host:port, port 0 = "
             "ephemeral, or a unix socket path) instead of an experiment; "
             "--jobs sizes its warm pool, --cache/--server-log configure "
             "the result cache and log")
    parser.add_argument(
        "--connect", metavar="ADDR", default=None,
        help="obtain sweep cells from the sweep server at ADDR instead of "
             "computing in-process (the server's cache and warm pool are "
             "shared across clients; output stays byte-identical)")
    parser.add_argument(
        "--cache", metavar="PATH", default=None,
        help="with --serve: result-cache journal path (default: "
             "service_cache.checkpoint.json in the results dir; "
             "'none' = memory only)")
    parser.add_argument(
        "--server-log", metavar="PATH", default=None,
        help="with --serve: append server log lines to PATH")
    parser.add_argument(
        "--verbose", action="store_true",
        help="print simulator counters (events, resumes, peak heap) and "
             "events/sec per experiment")
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.serve is not None:
        if args.experiment is not None or args.connect is not None:
            parser.error("--serve runs a server; do not also name an "
                         "experiment or --connect")
        from repro.service.server import serve
        from repro.service.store import default_cache_path

        cache = args.cache
        if cache is None:
            cache = default_cache_path()
        elif cache == "none":
            cache = None
        log = open(args.server_log, "a") if args.server_log else None
        try:
            return serve(args.serve, jobs=args.jobs, cache_path=cache,
                         log=log)
        finally:
            if log is not None:
                log.close()
    if args.verify_journal is not None:
        if args.experiment is not None:
            parser.error("--verify-journal inspects a file; "
                         "do not also name an experiment")
        report = verify_journal(args.verify_journal)
        print(report.render())
        return EXIT_OK if report.ok else EXIT_JOURNAL_DAMAGED
    if args.experiment is None:
        parser.error("an experiment name is required "
                     "(or use --verify-journal PATH)")
    if args.profile is not None:
        import os

        os.makedirs(args.profile, exist_ok=True)
        if args.jobs != 1:
            print("[profile] forcing --jobs 1 (per-cell profiles need "
                  "in-process cells)", file=sys.stderr)
            args.jobs = 1
    with profile_dir(args.profile):
        return _run(args, parser)


def _run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the experiment (or ``table1``/``all``) named on the command line."""
    if args.experiment == "table1":
        if args.resume:
            parser.error("--resume applies to sweep experiments, not table1")
        if args.connect:
            parser.error("--connect applies to sweep experiments, not table1")
        for machine in [args.machine] if args.machine else ["zoot", "ig"]:
            if machine not in ("zoot", "ig"):
                parser.error("table1 runs on zoot or ig")
            rows = table1(machine, scale=args.scale, sample=args.sample)
            print(render_table1(machine, rows,
                                paper=PAPER_EXPECTATIONS["table1"][machine]))
            print()
        return EXIT_OK

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    status = EXIT_OK
    for name in names:
        status = max(status, _run_one(
            name, args.machine, args.scale, args.csv, args.resume,
            args.jobs, args.verbose, args.strict, args.connect))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
