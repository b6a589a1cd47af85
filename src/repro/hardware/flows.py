"""Weighted max-min fair fluid-flow network.

Every in-flight memory copy is a *flow* with

- a **demand cap** (the executing copy engine's maximum rate),
- a set of **resources** it traverses (memory ports, links), each with a
  per-flow **weight** (an intra-domain memcpy loads its controller with
  read *and* write traffic, so it carries weight 2 there; a cache-hot read
  carries a fractional weight on the source port), and
- a number of **remaining bytes**.

Rates are assigned by progressive filling (weighted max-min fairness): all
active flows grow their rate together until a resource saturates or a flow
hits its demand cap; saturated/capped flows freeze and the rest continue.
On every flow arrival or departure the network advances each flow's byte
account at its old rate and recomputes the allocation — the classic
flow-level approximation used in network simulation, applied here to the
memory system.  This reproduces the contention phenomena the paper leans
on: a linear broadcast saturating the root's memory port, FIFO double copies
loading a controller twice, and cross-board traffic crowding IG's interlink.
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Optional

from repro.errors import SimulationError
from repro.simtime.core import Event, Simulator

__all__ = ["Resource", "Flow", "FlowNetwork"]

#: Bytes below which a flow is considered finished.  A quarter byte is far
#: below physical relevance but large enough that the completion horizon
#: stays representable against float accumulation error in ``sim.now``.
_EPS_BYTES = 0.25
#: Rate below which a resource is considered saturated.
_EPS_RATE = 1e-3


def _flow_id(f: "Flow") -> int:
    """Sort key for deterministic flow iteration (creation order)."""
    return f.id


def _insert_by_id(flows: list["Flow"], flow: "Flow") -> None:
    """Insert into an id-ordered list.  Ids rise monotonically, so admits
    append — except latency-delayed admits, which can arrive out of
    creation order."""
    if not flows or flows[-1].id < flow.id:
        flows.append(flow)
    else:
        insort(flows, flow, key=_flow_id)


class Resource:
    """A capacity-limited hardware component (memory port, link, engine).

    ``contention_knee``/``contention_alpha`` model throughput degradation
    under many concurrent streams (DRAM row-buffer and bank-locality loss):
    beyond ``knee`` simultaneous flows, effective capacity shrinks as
    ``capacity / (1 + alpha * (n - knee))``.  Zero alpha disables it
    (links, copy engines).

    The network keeps the waterfilling inputs resident on the resource:
    ``wsum`` and ``eff_capacity`` are recomputed from ``flows`` (in id
    order) only when membership changed since the last rebalance.
    """

    __slots__ = ("name", "capacity", "flows", "contention_knee",
                 "contention_alpha", "sat_threshold", "wsum", "eff_capacity",
                 "_fill_wsum", "_fill_left")

    def __init__(self, name: str, capacity: float, contention_knee: int = 0,
                 contention_alpha: float = 0.0):
        if capacity <= 0:
            raise SimulationError(f"resource {name}: capacity must be positive")
        if contention_alpha < 0 or contention_knee < 0:
            raise SimulationError(f"resource {name}: bad contention parameters")
        self.name = name
        self.capacity = capacity
        self.contention_knee = contention_knee
        self.contention_alpha = contention_alpha
        #: residual capacity at or below which the resource is saturated
        self.sat_threshold = _EPS_RATE * max(1.0, capacity / 1e9)
        #: live flows traversing this resource, in creation-id order
        #: (maintained by the network)
        self.flows: list["Flow"] = []
        #: member weight sum and stream-degraded capacity (cached)
        self.wsum = 0.0
        self.eff_capacity = capacity
        # scratch state of one filling pass (see FlowNetwork._assign_rates)
        self._fill_wsum = 0.0
        self._fill_left = 0.0

    def effective_capacity(self, n_flows: int | None = None) -> float:
        """Capacity available given the number of concurrent streams."""
        if not self.contention_alpha:
            return self.capacity
        n = len(self.flows) if n_flows is None else n_flows
        if n <= self.contention_knee:
            return self.capacity
        return self.capacity / (
            1.0 + self.contention_alpha * (n - self.contention_knee))

    @property
    def load(self) -> float:
        """Current allocated throughput (weighted) on this resource."""
        return sum(f.rate * f.weights[self] for f in self.flows)

    @property
    def utilization(self) -> float:
        return self.load / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Resource {self.name} cap={self.capacity:.3g} flows={len(self.flows)}>"


class Flow:
    """One in-flight transfer (created via :meth:`FlowNetwork.transfer`).

    ``streams`` optionally overrides how many contention *streams* this flow
    contributes to each resource (default 1.0): posted writes disturb a DRAM
    controller's scheduling far less than latency-sensitive read streams, so
    the memory system counts them fractionally.
    """

    __slots__ = ("id", "demand", "weights", "remaining", "rate", "event",
                 "label", "streams", "terms")

    _ids = itertools.count(1)

    def __init__(self, demand: float, weights: dict[Resource, float], nbytes: float,
                 event: Event, label: str = "",
                 streams: Optional[dict[Resource, float]] = None):
        if demand <= 0:
            raise SimulationError("flow demand cap must be positive")
        if any(w <= 0 for w in weights.values()):
            raise SimulationError("flow resource weights must be positive")
        self.id = next(Flow._ids)
        self.demand = demand
        self.weights = weights
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.event = event
        self.label = label
        self.streams = streams or {}
        #: ``(resource, weight, streams)`` per traversed resource
        self.terms = tuple((r, w, self.streams.get(r, 1.0))
                           for r, w in weights.items())

    def streams_on(self, res: Resource) -> float:
        return self.streams.get(res, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Flow#{self.id} {self.label} "
                f"rem={self.remaining:.0f}B rate={self.rate:.3g}>")


class FlowNetwork:
    """Tracks active flows, assigns fair rates, fires completion events."""

    #: always 0 (numpy waterfiller removed); benchmarks/ledger still reads it
    vector_assignments = 0

    def __init__(self, sim: Simulator):
        self.sim = sim
        # --- resident state (see _admit/_retire/_assign_rates) -------------
        # Active flows in creation-id order; every float accumulation and
        # completion walks it.  ``_busy`` holds the resources with members
        # (insertion order), ``_dirty`` those whose membership changed since
        # their cached sums were last recomputed.
        self._flows: list[Flow] = []
        self._busy: dict[Resource, None] = {}
        self._dirty: dict[Resource, None] = {}
        self._last_update = 0.0
        self._wake_generation = 0
        self._rebalance_pending = False
        #: lifetime statistics
        self.completed_flows = 0
        self.completed_bytes = 0.0
        #: rate assignments executed (diagnostics)
        self.scalar_assignments = 0

    # -- public API ---------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        demand: float,
        weights: dict[Resource, float],
        latency: float = 0.0,
        label: str = "",
        streams: Optional[dict[Resource, float]] = None,
    ) -> Event:
        """Start a transfer; the returned event fires at completion.

        ``latency`` is a fixed startup delay served before the fluid phase
        (memory access latency, link hops).  A zero-byte transfer completes
        after just the latency.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        done = Event(self.sim, name=f"flow:{label}")
        if nbytes == 0:
            self.sim.schedule(latency, lambda: done.succeed(None))
            return done
        flow = Flow(demand, weights, nbytes, done, label=label, streams=streams)
        if latency > 0:
            self.sim.schedule(latency, lambda: self._admit(flow))
        else:
            self._admit(flow)
        return done

    @property
    def active_count(self) -> int:
        return len(self._flows)

    # -- internals ----------------------------------------------------------
    def _admit(self, flow: Flow) -> None:
        self._advance()
        _insert_by_id(self._flows, flow)
        dirty = self._dirty
        for res, _w, _s in flow.terms:
            _insert_by_id(res.flows, flow)
            dirty[res] = None
        # Defer the (expensive) reassignment to a zero-delay event so a burst
        # of same-instant arrivals — e.g. every leaf of a broadcast tree
        # starting its segment copy together — pays for one rebalance.
        if not self._rebalance_pending:
            self._rebalance_pending = True
            self.sim.schedule(0.0, self._deferred_rebalance)

    def _deferred_rebalance(self) -> None:
        self._rebalance_pending = False
        self._advance()
        self._rebalance()

    def _retire(self, flow: Flow) -> None:
        self._flows.remove(flow)
        dirty = self._dirty
        for res, _w, _s in flow.terms:
            res.flows.remove(flow)
            dirty[res] = None
        self.completed_flows += 1

    def _advance(self) -> None:
        """Account bytes transferred since the last state change."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._flows:
            if flow.rate > 0:
                moved = flow.rate * dt
                flow.remaining -= moved
                self.completed_bytes += moved

    def _rebalance(self) -> None:
        """Recompute max-min fair rates and reschedule the next completion."""
        # In creation-id order so completion events fire in a
        # memory-layout-independent order (see _assign_rates).
        finished = [f for f in self._flows if f.remaining <= _EPS_BYTES]
        for flow in finished:
            self._retire(flow)
        self.scalar_assignments += 1
        self._assign_rates()
        for flow in finished:
            flow.remaining = 0.0
            flow.event.succeed(None)
        self._schedule_wake()

    def _assign_rates(self) -> None:
        """Weighted progressive filling over the resources of active flows.

        The inputs stay resident between rebalances: each resource caches
        its weight sum and stream-degraded capacity, recomputed only when
        its membership changed since the last call.  A recompute walks the
        members in creation-id order, so every float is summed in the same
        order as a from-scratch pass and rates are bitwise-identical to one
        (tests/hardware/reference_flows.py is that oracle).  Flow ids are
        per-process creation counters, identical for the same cell in any
        process; raw set order is keyed on object addresses, so summing in
        it would give ULP-different rates from run to run and break the
        byte-identical serial/parallel CSV guarantee.

        Filling rounds visit only live resources (weight sum > 1e-12);
        weight sums only shrink as flows freeze, so a pruned resource
        never revives.  Resource order can only pick which of several
        exactly-tied bottlenecks is named ``bottleneck``: every saturated
        resource freezes its members through the threshold test anyway.
        """
        flows = self._flows
        if not flows:
            return
        busy = self._busy
        dirty = self._dirty
        if dirty:
            for r in dirty:
                members = r.flows
                if not members:
                    busy.pop(r, None)
                    continue
                wsum = 0.0
                streams = 0.0
                for f in members:
                    wsum += f.weights[r]
                    streams += f.streams.get(r, 1.0)
                r.wsum = wsum
                r.eff_capacity = r.effective_capacity(int(round(streams)))
                busy[r] = None
            dirty.clear()
        live = []
        for r in busy:
            r._fill_wsum = ws = r.wsum
            r._fill_left = r.eff_capacity
            if ws > 1e-12:
                live.append(r)

        unfrozen = set(flows)
        # All unfrozen flows carry the same uniform rate, so flows freeze on
        # their demand caps in ascending-demand order: a sorted sweep frees
        # whole batches per filling round instead of one flow at a time.
        # (Stable sort over the id-ordered list: demand ties break by id.)
        by_demand = sorted(flows, key=lambda f: f.demand)
        n = len(by_demand)
        demand_ptr = 0
        rate = 0.0  # the uniform rate every unfrozen flow has received
        while unfrozen:
            # Largest uniform rate increment every unfrozen flow can take.
            while demand_ptr < n and by_demand[demand_ptr] not in unfrozen:
                demand_ptr += 1
            inc = (by_demand[demand_ptr].demand - rate
                   if demand_ptr < n else float("inf"))
            bottleneck: Optional[Resource] = None
            for r in live:
                r_inc = r._fill_left / r._fill_wsum
                if r_inc < inc:
                    inc = r_inc
                    bottleneck = r
            if inc < 0:
                inc = 0.0
            rate += inc
            frozen: set[Flow] = set()
            # Demand-capped flows: ascending sweep from the pointer.
            while demand_ptr < n:
                f = by_demand[demand_ptr]
                if f not in unfrozen:
                    demand_ptr += 1
                    continue
                if f.demand - rate > _EPS_RATE:
                    break
                frozen.add(f)
                demand_ptr += 1
            # Residual update and flows on saturated resources, one pass.
            for r in live:
                left = r._fill_left - inc * r._fill_wsum
                r._fill_left = left
                if left <= r.sat_threshold:
                    frozen.update([f for f in r.flows if f in unfrozen])
            if not frozen:
                if bottleneck is None:
                    break  # all demand-capped; loop would have frozen them
                frozen = {f for f in bottleneck.flows if f in unfrozen}
            # wsum decrements are float subtractions: fixed order again.
            for f in sorted(frozen, key=_flow_id):
                f.rate = rate
                for r, w, _s in f.terms:
                    r._fill_wsum -= w
            unfrozen -= frozen
            live = [r for r in live if r._fill_wsum > 1e-12]
        for f in unfrozen:  # pragma: no cover - loop always drains
            f.rate = rate

    def _schedule_wake(self) -> None:
        self._wake_generation += 1
        flows = self._flows
        if not flows:
            return
        horizon = min(
            (f.remaining / f.rate for f in flows if f.rate > 0),
            default=None,
        )
        if horizon is None:
            raise SimulationError(
                "flow network stalled: active flows but no positive rates"
            )
        # Keep the wake strictly after `now` in float arithmetic: a horizon
        # below one ulp of the clock would freeze time (Zeno loop).
        min_dt = max(abs(self.sim.now) * 1e-14, 1e-15)
        gen = self._wake_generation
        self.sim.schedule(max(horizon, min_dt), lambda: self._on_wake(gen))

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a later arrival/departure
        self._advance()
        self._rebalance()
