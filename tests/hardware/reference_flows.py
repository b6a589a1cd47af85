"""From-scratch reference waterfiller: the differential oracle for
:meth:`repro.hardware.flows.FlowNetwork._assign_rates`.

This is the scalar rate assignment as it was before the network kept its
per-resource sums resident: every call rebuilds every weight sum, stream
count and member set from the flows alone.  The resident implementation
must reproduce its rates bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.hardware.flows import _EPS_RATE, Flow, Resource


def _flow_id(f: Flow) -> int:
    return f.id


def assign_rates(flows: Iterable[Flow]) -> None:
    """Weighted progressive filling over the union of traversed resources.

    Every float accumulation walks flows in creation-id order.
    """
    ordered = sorted(flows, key=_flow_id)
    for f in ordered:
        f.rate = 0.0
    residual: dict[Resource, float] = {}
    wsum: dict[Resource, float] = {}
    members: dict[Resource, set[Flow]] = {}
    streams: dict[Resource, float] = {}
    for f in ordered:
        for r, w in f.weights.items():
            wsum[r] = wsum.get(r, 0.0) + w
            streams[r] = streams.get(r, 0.0) + f.streams_on(r)
            try:
                members[r].add(f)
            except KeyError:
                members[r] = {f}
    for r, n in streams.items():
        residual[r] = r.effective_capacity(int(round(n)))

    unfrozen = set(ordered)

    def freeze(f: Flow) -> None:
        for r, w in f.weights.items():
            wsum[r] -= w
            members[r].discard(f)

    # All unfrozen flows carry the same uniform rate, so flows freeze on
    # their demand caps in ascending-demand order: a sorted sweep frees
    # whole batches per filling round instead of one flow at a time.
    # (Stable sort over the id-ordered list: demand ties break by id.)
    by_demand = sorted(ordered, key=lambda f: f.demand)
    demand_ptr = 0
    rate = 0.0  # the uniform rate every unfrozen flow has received
    while unfrozen:
        # Largest uniform rate increment every unfrozen flow can take.
        while demand_ptr < len(by_demand) and by_demand[demand_ptr] not in unfrozen:
            demand_ptr += 1
        inc = (by_demand[demand_ptr].demand - rate
               if demand_ptr < len(by_demand) else float("inf"))
        bottleneck: Optional[Resource] = None
        for r, cap_left in residual.items():
            ws = wsum[r]
            if ws <= 1e-12:
                continue
            r_inc = cap_left / ws
            if r_inc < inc:
                inc = r_inc
                bottleneck = r
        if inc < 0:
            inc = 0.0
        rate += inc
        for r in residual:
            residual[r] -= inc * wsum[r]
        frozen: set[Flow] = set()
        # Demand-capped flows: ascending sweep from the pointer.
        while demand_ptr < len(by_demand):
            f = by_demand[demand_ptr]
            if f not in unfrozen:
                demand_ptr += 1
                continue
            if f.demand - rate > _EPS_RATE:
                break
            frozen.add(f)
            demand_ptr += 1
        # Flows on saturated resources.
        if bottleneck is not None and residual[bottleneck] <= \
                _EPS_RATE * max(1.0, bottleneck.capacity / 1e9):
            frozen |= members[bottleneck]
        for r, cap_left in residual.items():
            if r is not bottleneck and wsum[r] > 1e-12 and \
                    cap_left <= _EPS_RATE * max(1.0, r.capacity / 1e9):
                frozen |= members[r]
        if not frozen:
            if bottleneck is None:
                break  # all demand-capped; loop would have frozen them
            frozen = set(members[bottleneck])
        # wsum decrements are float subtractions: fixed order again.
        for f in sorted(frozen, key=_flow_id):
            f.rate = rate
            freeze(f)
        unfrozen -= frozen
    for f in unfrozen:  # pragma: no cover - loop always drains
        f.rate = rate
