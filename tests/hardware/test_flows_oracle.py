"""Differential oracle: the resident scalar waterfiller vs a from-scratch one.

``FlowNetwork`` keeps each resource's weight sum and effective capacity
resident between rebalances and recomputes them only when the resource's
membership changed.  These tests drive a network through random transfer
sequences and, after every rebalance, check that

- every active flow's rate equals the reference waterfiller's
  (tests/hardware/reference_flows.py) bit for bit;
- every cached per-resource sum equals a from-scratch recompute.

The sequences mix shared resources with contention knees, fractional
streams, demand ties, same-instant bursts, and latency-delayed admits
that arrive out of creation-id order.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.flows import FlowNetwork, Resource
from repro.simtime import Simulator
from tests.hardware.reference_flows import assign_rates

SRC = Path(__file__).resolve().parents[2] / "src"

resource_specs = st.tuples(
    st.sampled_from([4.0, 10.0, 37.5, 1e9, 6.4e9]),        # capacity
    st.sampled_from([(0, 0.0), (0, 0.25), (1, 0.5), (2, 0.05),
                     (3, 0.3)]),                           # knee, alpha
)


@st.composite
def transfer_specs(draw, n_res: int):
    chosen = draw(st.lists(st.integers(0, n_res - 1), min_size=1,
                           max_size=n_res, unique=True))
    weights = {i: draw(st.sampled_from([0.5, 1.0, 2.0, 1 / 3, 1.25]))
               for i in chosen}
    streams = {}  # fractional stream counts; absent = 1.0
    for i in chosen:
        s = draw(st.sampled_from([None, 0.25, 0.5, 1.5]))
        if s is not None:
            streams[i] = s
    return dict(
        # repeated start instants give same-instant admission bursts
        start=draw(st.sampled_from([0.0, 0.0, 0.25, 1.0])
                   | st.floats(0.0, 2.0)),
        # unequal latencies admit flows out of creation order
        latency=draw(st.sampled_from([0.0, 0.0, 0.05, 0.3])),
        nbytes=draw(st.sampled_from([0.0, 64.0, 1000.0])
                    | st.floats(1.0, 5000.0)),
        # a few shared values give demand ties
        demand=draw(st.sampled_from([2.0, 8.0, 8.0, 30.0, 1e10])
                    | st.floats(0.5, 100.0)),
        weights=weights, streams=streams)


@st.composite
def scenarios(draw):
    res = draw(st.lists(resource_specs, min_size=1, max_size=4))
    transfers = draw(st.lists(transfer_specs(len(res)), min_size=1,
                              max_size=12))
    return res, transfers


def check_against_reference(net: FlowNetwork,
                            resources: list[Resource]) -> None:
    flows = list(net._flows)
    assert [f.id for f in flows] == sorted(f.id for f in flows)
    got = [f.rate for f in flows]
    assign_rates(flows)
    want = [f.rate for f in flows]
    for f, rate in zip(flows, got):
        f.rate = rate
    assert [r.hex() for r in got] == [r.hex() for r in want]
    for res in resources:
        members = [f for f in flows if res in f.weights]
        assert res.flows == members
        if not members:
            continue
        wsum = 0.0
        streams = 0.0
        for f in members:
            wsum += f.weights[res]
            streams += f.streams_on(res)
        assert res.wsum.hex() == wsum.hex()
        assert res.eff_capacity.hex() == \
            res.effective_capacity(int(round(streams))).hex()


def run_checked(resource_spec, transfers) -> int:
    """Run one scenario, checking every rebalance; returns the check count."""
    sim = Simulator()
    net = FlowNetwork(sim)
    resources = [Resource(f"r{i}", cap, contention_knee=knee,
                          contention_alpha=alpha)
                 for i, (cap, (knee, alpha)) in enumerate(resource_spec)]
    checks = 0
    rebalance = net._rebalance

    def checked_rebalance() -> None:
        nonlocal checks
        rebalance()
        check_against_reference(net, resources)
        checks += 1

    net._rebalance = checked_rebalance  # type: ignore[method-assign]
    done = []

    def one(spec):
        yield sim.timeout(spec["start"])
        yield net.transfer(
            spec["nbytes"], demand=spec["demand"],
            weights={resources[i]: w for i, w in spec["weights"].items()},
            latency=spec["latency"],
            streams={resources[i]: s for i, s in spec["streams"].items()})
        done.append(sim.now)

    for spec in transfers:
        sim.process(one(spec))
    sim.run()
    assert len(done) == len(transfers)
    assert net.active_count == 0
    return checks


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_resident_rates_match_reference_bit_for_bit(scenario):
    run_checked(*scenario)


def test_out_of_order_admits_ties_and_bursts():
    # Two shared resources, one past its contention knee; the first
    # transfer is created first but admitted last (longest latency), three
    # start in one burst, and two pairs tie on demand.
    resources = [(10.0, (1, 0.5)), (37.5, (0, 0.0))]
    both = {0: 1.0, 1: 2.0}
    transfers = [
        dict(start=0.0, latency=0.3, nbytes=900.0, demand=8.0,
             weights=both, streams={0: 0.5}),
        dict(start=0.0, latency=0.05, nbytes=400.0, demand=8.0,
             weights={0: 1.0}, streams={}),
        dict(start=0.0, latency=0.0, nbytes=300.0, demand=30.0,
             weights={1: 1 / 3}, streams={1: 1.5}),
        dict(start=0.25, latency=0.0, nbytes=64.0, demand=30.0,
             weights=both, streams={}),
        dict(start=0.25, latency=0.0, nbytes=1000.0, demand=1e10,
             weights={0: 1.25}, streams={0: 0.25}),
    ]
    assert run_checked(resources, transfers) >= 5


_CELL = """
import sys
from repro.bench.imb import imb_time
from repro.hardware.flows import Flow
from repro.mpi import runtime
from repro.mpi.stacks import TUNED_SM


class Pad:
    __slots__ = Flow.__slots__


# Leave holes in the allocator pool flows come from, so that iterating
# flows in address (set) order would visit them in another order than in
# a run with a different pad.
pad = [Pad() for _ in range(int(sys.argv[1]))]
del pad[::3]
built = []
build = runtime.Machine.build.__func__


def recording_build(cls, *args, **kwargs):
    machine = build(cls, *args, **kwargs)
    built.append(machine)
    return machine


runtime.Machine.build = classmethod(recording_build)
imb_time("ig", TUNED_SM, 48, "bcast", 32768)
print(repr(built[0].mem.network.completed_bytes))
"""


def test_completed_bytes_is_identical_across_interpreters():
    # One ig broadcast cell (~13 concurrent flows) in three fresh
    # interpreters: summing in set order gave a different last digit in
    # most runs; summing in creation-id order gives one value.
    def run(pad: int) -> str:
        out = subprocess.run(
            [sys.executable, "-c", _CELL, str(pad)], check=True,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        return out.stdout.strip()

    values = [run(pad) for pad in (0, 7, 1001)]
    assert float(values[0]) > 0
    assert values == [values[0]] * 3
