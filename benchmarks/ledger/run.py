"""Reproduction ledger: time the simulator end to end and split it by layer.

Run from the repository root::

    python benchmarks/ledger/run.py --workload sm-numa --seed 7 --seconds 12
    python benchmarks/ledger/run.py --workload knem-rooted --traced --out r.json
    python benchmarks/ledger/run.py                     # all four workloads
    python benchmarks/ledger/run.py compare PARENT/ CHANGE/
    python benchmarks/ledger/run.py compare --agree runs/set1 runs/set2

Each workload runs in fresh interpreters: the first spawns only set up
and exit, the last sets up and then measures.  ``setup_s`` is the median
of their set-up times, from spawn until the process reports it is ready
for its first pass.  The measuring process repeats the workload's pass
for ``--seconds``; with ``--trace 1`` (``--traced``) it spends the last
two thirds of that time under cProfile to split host time by layer.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` for an untraced
run, its per-layer metrics for a traced one.  ``--out`` writes the whole
record (all metrics, the host stamp, every drifted cell).  The exit code
is 0 only when every cell and request succeeded and agreed with every
other computation of the same cell in the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from metrics import load_benchmark  # noqa: E402

SETUP_SPAWNS = 3
DEFAULT_SEED = 20110913
#: one workload's spawns must all end within this many seconds
RUN_LIMIT = 170.0


class ChildFailed(Exception):
    pass


# ------------------------------------------------------------ the workload
def child_main(args) -> int:
    """Inside one fresh interpreter: set up, report ready, measure."""
    from workloads import WORKLOADS, Run, load_csv_rows, measure, peak_rss_mb
    from workloads import quick as quick_workload

    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = quick_workload(workload)
    run = Run(workload, args.seed, args.workdir)
    try:
        run.setup()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        out = measure(run, args.seconds, bool(args.trace),
                      load_csv_rows(ROOT))
    finally:
        run.close()
    failed = min(len(run.failures), run.attempted)
    out["metrics"]["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out["metrics"]["children_rss_mb"] = (
        peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    out["metrics"]["failed_frac"] = (failed / run.attempted, "ratio")
    out.update(attempted=run.attempted, failed=failed,
               failures=run.failures, passes=run.passes)
    print(json.dumps(out))
    return 0


# ------------------------------------------------------------ orchestrator
def _spawn(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run one child in its own session; returns (seconds until it printed
    ``ready``, the rest of its output).  Kills the whole session when the
    deadline passes, and fails if the child left any process behind."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - t0), _kill_session, (proc,))
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            _kill_session(proc)
        proc.stdout.close()
        proc.wait()
    if _kill_session(proc):
        raise ChildFailed(f"{' '.join(cmd[2:])} left processes running")
    if ready.strip() != "ready" or code != 0:
        raise ChildFailed(f"{' '.join(cmd[2:])} exited {code}")
    return setup, rest


def _kill_session(proc) -> bool:
    """SIGKILL every process left in the child's session; True if any."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def run_workload(name: str, args, workdir: str) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT
    spawns = 1 if args.quick else SETUP_SPAWNS
    setups = []
    result = None
    for i in range(spawns):
        child_dir = os.path.join(workdir, f"{name}-{i}")
        os.makedirs(child_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", child_dir]
        if args.quick:
            cmd.append("--quick")
        if i < spawns - 1:
            cmd.append("--setup-only")
        setup, rest = _spawn(cmd, deadline)
        setups.append(setup)
        if i == spawns - 1:
            result = json.loads(rest.strip().splitlines()[-1])
    result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    result["setup_runs"] = setups
    return result


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_stamp(seed: int) -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha(),
            "seed": seed}


def report(name: str, record: dict, wanted: list[str]) -> dict:
    """Print every metric; return the ``{name: {value, unit}}`` map of the
    metrics in ``wanted``, for the last line of output."""
    metrics = record["metrics"]
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"{name:<17} {key:<38} {value:>16.6g} {unit}")
    for failure in record["failures"]:
        print(f"{name:<17} FAILED {failure}")
    missing = [key for key in wanted if key not in metrics]
    if missing:
        raise ChildFailed(f"{name} did not emit {missing}")
    return {key: {"value": metrics[key][0], "unit": metrics[key][1]}
            for key in wanted}


def orchestrate(args) -> int:
    bench = load_benchmark()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in bench[section]]
    names = ([args.workload] if args.workload
             else [w["name"] for w in bench["workloads"]])
    stamp = host_stamp(args.seed)
    print(f"host {json.dumps(stamp)}")
    workroot = os.path.join(ROOT, ".ledger_work", str(os.getpid()))
    os.makedirs(workroot)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            record = run_workload(name, args, workroot)
            record.update(workload=name, seed=args.seed, trace=args.trace,
                          seconds=args.seconds, quick=args.quick, host=stamp)
            shown = report(name, record, wanted)
            if args.out:
                path = args.out
                if not args.workload:
                    os.makedirs(args.out, exist_ok=True)
                    path = os.path.join(args.out, f"{name}.json")
                with open(path, "w") as fh:
                    json.dump(record, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            summary["correct"] &= record["failed"] == 0
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
            prefix = "" if args.workload else f"{name}/"
            summary["metrics"].update(
                {prefix + key: v for key, v in shown.items()})
    except ChildFailed as err:
        print(f"ledger: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))
        except OSError:
            pass
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv: list[str]):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="shuffles sweep and request order only")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full record as JSON (a directory "
                             "when all workloads run)")
    parser.add_argument("--quick", action="store_true",
                        help="a tiny pass, one set-up spawn, 0.3 s: checks "
                             "that every metric is emitted")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.quick else bench["run_seconds"]
    return args


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    args = parse_args(argv)
    if os.environ.get("REPRO_VECTOR"):
        print("ledger: REPRO_VECTOR is set; the ledger measures the default "
              "scalar path only", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    # SIGTERM unwinds like an error: _spawn's cleanup kills the running
    # child's session and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
