"""Checks of the ledger itself: ``pytest benchmarks/ledger`` (about 5 s)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import metrics

RUN_PY = os.path.join(layers.HERE, "run.py")


def test_every_module_maps_to_exactly_one_layer():
    found = 0
    for dirpath, _dirs, files in os.walk(layers.SRC_REPRO):
        for name in files:
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name),
                                  layers.SRC_REPRO)
            rules = layers.matching_rules(rel)
            assert len(rules) == 1, f"{rel} matches {rules}"
            assert rules[0][1] in layers.LAYERS
            found += 1
    assert found > 50


def _fn(path: str, name: str) -> tuple:
    return (os.path.join(layers.SRC_REPRO, path), 1, name)


def test_foreign_time_is_charged_to_callers():
    core = _fn("simtime/core.py", "step")
    flows = _fn("hardware/flows.py", "_rebalance")
    client = _fn("service/client.py", "sweep")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    length = ("~", 0, "<built-in method builtins.len>")
    deepcopy = ("/usr/lib/python3/copy.py", 128, "deepcopy")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        core: (1, 1, 2.0, 5.0, {}),
        flows: (1, 1, 1.0, 2.0, {}),
        client: (1, 1, 0.5, 1.0, {}),
        # split by the time recorded on each caller edge: 3/4 to simtime
        heappush: (4, 4, 1.0, 1.0, {core: (3, 3, 0.75, 0.75),
                                    flows: (1, 1, 0.25, 0.25)}),
        # no edge times: split by call counts, 1 : 3
        length: (4, 4, 0.4, 0.4, {core: (1, 1, 0.0, 0.0),
                                  flows: (3, 3, 0.0, 0.0)}),
        # recursive stdlib code, reached from the service client
        deepcopy: (9, 1, 0.6, 0.6, {client: (1, 1, 0.1, 0.6),
                                    deepcopy: (8, 0, 0.5, 0.5)}),
        orphan: (1, 1, 0.3, 0.3, {}),
    }
    got = layers.attribute(stats)
    assert got["simtime"] == pytest.approx(2.0 + 0.75 + 0.1)
    assert got["hardware.flows"] == pytest.approx(1.0 + 0.25 + 0.3)
    assert got["service"] == pytest.approx(0.5 + 0.6)
    assert got["other"] == pytest.approx(0.3)
    assert sum(got.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        metrics.percentile(list(range(999)), 99)
    assert metrics.percentile(list(range(1000)), 99) == pytest.approx(
        989.01)
    with pytest.raises(ValueError):
        metrics.percentile(list(range(99)), 90)
    metrics.percentile(list(range(100)), 90)
    with pytest.raises(ValueError):
        metrics.percentile(list(range(19)), 50)


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent[::-1], "lower", 0.1)[0] == \
        "no-worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == \
        "unresolved"
    assert compare.exact_verdict([5, 5], [5, 5], "lower", True) == "same"
    assert compare.exact_verdict([5, 5], [6, 6], "lower", True) == "changed"
    assert compare.exact_verdict([0.9], [0.8], "higher", False) == "worse"
    assert compare.exact_verdict([5, 6], [5, 5], "lower", True) == "unstable"


def test_benchmark_json_names():
    bench = metrics.load_benchmark()
    names = list(metrics.declared(bench))
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
    assert {w["name"] for w in bench["workloads"]} == {
        "sm-numa", "knem-rooted", "small-cells-pool", "served-replay"}
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


@pytest.mark.parametrize("workload", ["small-cells-pool", "served-replay"])
def test_quick_run_emits_every_declared_metric(tmp_path, workload):
    out = tmp_path / "run.json"
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--quick",
         "--trace", "1", "--out", str(out)],
        cwd=layers.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    bench = metrics.load_benchmark()
    assert list(last["metrics"]) == [m["name"] for m in bench["per_layer"]]
    record = json.loads(out.read_text())
    for name, (value, unit) in record["metrics"].items():
        assert metrics.NAME_RE.fullmatch(name), name
        declared = metrics.declared(bench).get(name)
        if declared:
            assert declared["unit"] == unit, name
    assert set(metrics.declared(bench)) <= set(record["metrics"])
    host = record["host"]
    assert {"cpus", "python", "platform", "git_sha", "seed"} <= set(host)


def test_refuses_vector_path():
    env = dict(os.environ, REPRO_VECTOR="1")
    proc = subprocess.run([sys.executable, RUN_PY, "--workload", "sm-numa"],
                          cwd=layers.ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_simulator(tmp_path):
    """A directory with only BENCHMARK.json and the ledger: no result."""
    shutil.copy(os.path.join(layers.ROOT, "BENCHMARK.json"), tmp_path)
    ledger = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(layers.HERE, ledger,
                    ignore=shutil.ignore_patterns("__pycache__", "runs",
                                                  ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(ledger / "run.py"), "--workload", "sm-numa",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
