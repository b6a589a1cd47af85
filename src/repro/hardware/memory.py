"""The memory system: buffers, copy requests, flows, and the DMA engine.

:class:`MemorySystem` is the single entry point every transport uses to move
bytes.  A copy names the **executing core** (the paper's central concern:
*who* performs the copy decides whether a collective parallelizes), a source
and destination buffer+offset, and a size.  The request becomes a fluid flow
(see :mod:`repro.hardware.flows`) across:

- the executing core's copy engine,
- the source domain's memory port — weighted by the *miss* fraction, since
  cache-resident source bytes are not re-fetched from memory,
- the link path from the source domain to the executing core's domain
  (reads) and from there to the destination domain (writes),
- the destination domain's memory port.

When both buffers are *backed*, the payload bytes are physically moved at
completion time, so collectives built on this layer are data-checkable.
"""

from __future__ import annotations

import itertools
from typing import Optional

import networkx as nx
import numpy as np

from repro.errors import HardwareConfigError, RoutingError, SimulationError
from repro.hardware.cache import CacheSystem
from repro.hardware.flows import FlowNetwork, Resource
from repro.hardware.spec import MachineSpec
from repro.simtime.core import Event, Simulator
from repro.simtime.trace import Tracer

__all__ = ["SimBuffer", "CopyRequest", "MemorySystem"]


class SimBuffer:
    """A region of simulated memory homed on one memory domain.

    ``array`` (optional) is a contiguous numpy array backing the buffer; the
    memory system moves real bytes through it on copy completion.  Unbacked
    buffers participate in timing only (used for huge calibrated app runs).
    """

    _ids = itertools.count(1)

    __slots__ = ("id", "size", "domain", "array", "data", "label")

    def __init__(
        self,
        size: int,
        domain: int,
        array: Optional[np.ndarray] = None,
        label: str = "",
    ):
        if size < 0:
            raise SimulationError(f"negative buffer size {size}")
        if array is not None:
            if not array.flags["C_CONTIGUOUS"]:
                raise SimulationError("SimBuffer requires a C-contiguous array")
            if array.nbytes != size:
                raise SimulationError(
                    f"backing array is {array.nbytes}B but buffer declared {size}B"
                )
        self.id = next(SimBuffer._ids)
        self.size = size
        self.domain = domain
        self.array = array
        self.data = array.view(np.uint8).reshape(-1) if array is not None else None
        self.label = label or f"buf{self.id}"

    @property
    def backed(self) -> bool:
        return self.data is not None

    def check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise SimulationError(
                f"range [{offset}, {offset + nbytes}) outside buffer {self.label} "
                f"of size {self.size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimBuffer {self.label} {self.size}B @domain{self.domain}>"


class CopyRequest:
    """Internal record of one copy (kept on the completion event for tracing)."""

    __slots__ = ("core", "src", "src_off", "dst", "dst_off", "nbytes",
                 "kernel", "label")

    def __init__(self, core, src, src_off, dst, dst_off, nbytes, kernel, label):
        self.core = core
        self.src = src
        self.src_off = src_off
        self.dst = dst
        self.dst_off = dst_off
        self.nbytes = nbytes
        self.kernel = kernel
        self.label = label


#: Memoized per-spec routing: (routes, link latencies).  Shared read-only
#: between MemorySystem instances — nothing mutates them after build.
_ROUTE_CACHE: dict[
    MachineSpec,
    tuple[dict[tuple[int, int], list[tuple[int, int]]],
          dict[tuple[int, int], float]],
] = {}


def _route_tables(spec: MachineSpec) -> tuple[
    dict[tuple[int, int], list[tuple[int, int]]],
    dict[tuple[int, int], float],
]:
    """Shortest-path link routes between all domain pairs, per spec."""
    cached = _ROUTE_CACHE.get(spec)
    if cached is not None:
        return cached
    graph = nx.Graph()
    graph.add_nodes_from(range(spec.n_domains))
    link_latency: dict[tuple[int, int], float] = {}
    for link in spec.links:
        link_latency[link.key] = link.latency
        # Prefer few hops, then fat pipes, deterministically.
        graph.add_edge(link.a, link.b, weight=1.0 + 1e-12 / link.bandwidth)
    routes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a in range(spec.n_domains):
        for b in range(spec.n_domains):
            if a == b:
                routes[(a, b)] = []
                continue
            try:
                path = nx.shortest_path(graph, a, b, weight="weight")
            except nx.NetworkXNoPath:
                raise RoutingError(
                    f"no link path between domains {a} and {b}") from None
            routes[(a, b)] = [
                (min(u, v), max(u, v)) for u, v in zip(path, path[1:])
            ]
    _ROUTE_CACHE[spec] = (routes, link_latency)
    return routes, link_latency


class MemorySystem:
    """Owns the flow network, resources, routing, and cache bookkeeping."""

    def __init__(self, sim: Simulator, spec: MachineSpec,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.spec = spec
        self.tracer = tracer or Tracer()
        self.caches = CacheSystem(spec)
        self.network = FlowNetwork(sim)

        # Core copy engines are *time-sliced*: a flow running at rate r with
        # achievable single-stream rate d occupies fraction r/d of its core,
        # so concurrent copies issued by one core can never aggregate beyond
        # what the core could do serially.  Capacity 1.0 = one core.
        self.core_engines = [
            Resource(f"engine[core{c}]", 1.0) for c in range(spec.n_cores)
        ]
        self.mem_ports = [
            Resource(f"mem[domain{d}]", spec.domain_mem_bandwidth[d],
                     contention_knee=spec.mem_stream_knee,
                     contention_alpha=spec.mem_stream_alpha)
            for d in range(spec.n_domains)
        ]
        self.links: dict[tuple[int, int], Resource] = {}
        for link in spec.links:
            if link.key in self.links:
                raise HardwareConfigError(f"duplicate link {link.key}")
            self.links[link.key] = Resource(f"link{link.key}", link.bandwidth)
        # Route tables and latencies are pure functions of the frozen spec;
        # share one shortest-path pass across every machine built from it.
        self._routes, self._link_latency = _route_tables(spec)

        # Optional I/OAT-style DMA engine (one per machine, era-typical
        # rate); time-sliced like a core engine.
        self.dma_rate = spec.core.copy_bandwidth
        self.dma_engine = Resource("dma-engine", 1.0)
        # In-flight reads per cache domain: concurrent readers of the same
        # source range within one cache domain share line fills (the lines a
        # peer is fetching right now hit in the shared cache), so only one
        # memory fetch per line reaches the controller.
        self._inflight_reads: dict[int, list[tuple[int, int, int]]] = {}
        # Shared-cache aggregate bandwidth: cache-served reads and
        # write-allocates of every sharer compete for the banked LLC.
        self.llc_ports: dict[int, Resource] = {
            id(dom): Resource(f"llcbw[{dom.name}]", spec.llc.total_bandwidth)
            for dom in self.caches.domains
        }
        self.bytes_copied = 0
        self.copies = 0

    # -- allocation ----------------------------------------------------------
    def alloc(
        self,
        size: int,
        domain: int,
        label: str = "",
        backed: bool = True,
        array: Optional[np.ndarray] = None,
    ) -> SimBuffer:
        """Allocate a buffer homed on ``domain`` (first-touch is the caller)."""
        if not 0 <= domain < self.spec.n_domains:
            raise HardwareConfigError(f"domain {domain} out of range")
        if array is None and backed:
            array = np.zeros(size, dtype=np.uint8)
        return SimBuffer(size, domain, array=array, label=label)

    # -- routing -------------------------------------------------------------
    def route(self, src_domain: int, dst_domain: int) -> list[tuple[int, int]]:
        """Link keys traversed from one domain to another (possibly empty)."""
        try:
            return self._routes[(src_domain, dst_domain)]
        except KeyError:
            raise RoutingError(
                f"unknown domains ({src_domain}, {dst_domain})") from None

    # -- the copy primitive ----------------------------------------------------
    def copy(
        self,
        core: int,
        src: SimBuffer,
        src_off: int,
        dst: SimBuffer,
        dst_off: int,
        nbytes: int,
        kernel: bool = False,
        label: str = "copy",
    ) -> Event:
        """Copy ``nbytes`` from ``src`` to ``dst``, executed by ``core``.

        Returns the completion event.  ``kernel`` marks in-kernel copies
        (KNEM) — it only affects tracing here; syscall costs are charged by
        the kernel layer before issuing the copy.
        """
        self.spec._check_core(core)
        src.check_range(src_off, nbytes)
        dst.check_range(dst_off, nbytes)
        core_domain = self.spec.core_domain(core)

        clean, dirty = self.caches.residency(core, src, src_off, nbytes)
        # Dirty lines (written by a peer core) are served by a coherence
        # intervention whose usefulness is platform-dependent: ~free on an
        # on-die shared L3, bus-speed (worthless) on a snoopy FSB.
        resident = clean + dirty * self.spec.dirty_intervention_efficiency
        cache_dom = self.caches.domain_of(core)
        sharers = self._sharing_factor(cache_dom, src.id, src_off, nbytes)
        # Concurrent same-domain readers split the line fills among them.
        miss = (1.0 - resident) / (1.0 + sharers)
        hit = 1.0 - miss
        read_route = self.route(src.domain, core_domain)
        demand = self._blended_rate(hit, read_hops=len(read_route))
        weights: dict[Resource, float] = {self.core_engines[core]: 1.0 / demand}
        streams: dict[Resource, float] = {}
        # LLC traffic: cache-served reads (hit fraction) plus write-allocate.
        self._add_weight(weights, self.llc_ports[id(cache_dom)], hit + 1.0)
        # Reading a peer's dirty lines may demote them with a home-memory
        # writeback (MESI/MESIF); MOESI serves sharers from the Owned state
        # without touching memory (intervention_writeback = 0).
        src_port_load = miss + (dirty * self.spec.dirty_intervention_efficiency
                                * self.spec.intervention_writeback)
        if src_port_load > 1e-9:
            src_port = self.mem_ports[src.domain]
            self._add_weight(weights, src_port, src_port_load)
            streams[src_port] = 1.0  # a latency-sensitive read stream
        if miss > 1e-9:
            for key in read_route:
                self._add_weight(weights, self.links[key], miss)
        dst_port = self.mem_ports[dst.domain]
        self._add_weight(weights, dst_port, 1.0)
        streams[dst_port] = streams.get(dst_port, 0.0) + self.spec.write_stream_weight
        for key in self.route(core_domain, dst.domain):
            self._add_weight(weights, self.links[key], 1.0)

        latency = self.spec.mem_latency
        for key in self.route(src.domain, core_domain):
            latency += self._link_latency[key]
        for key in self.route(core_domain, dst.domain):
            latency += self._link_latency[key]

        req = CopyRequest(core, src, src_off, dst, dst_off, nbytes, kernel, label)
        entry = (src.id, src_off, src_off + nbytes)
        self._inflight_reads.setdefault(id(cache_dom), []).append(entry)
        done = self.network.transfer(nbytes, demand, weights, latency=latency,
                                     label=label, streams=streams)

        def _finish(_ev):
            self._inflight_reads[id(cache_dom)].remove(entry)
            self._complete(req)

        done.add_callback(_finish)
        return done

    def _sharing_factor(self, cache_dom, buffer_id: int, start: int,
                        nbytes: int) -> float:
        """Overlap-weighted count of concurrent same-domain readers of the
        range ``[start, start+nbytes)`` of one buffer."""
        entries = self._inflight_reads.get(id(cache_dom))
        if not entries or nbytes <= 0:
            return 0.0
        end = start + nbytes
        share = 0.0
        for bid, s, e in entries:
            if bid != buffer_id:
                continue
            lo, hi = max(s, start), min(e, end)
            if lo < hi:
                share += (hi - lo) / nbytes
        return share

    def dma_copy(
        self,
        src: SimBuffer,
        src_off: int,
        dst: SimBuffer,
        dst_off: int,
        nbytes: int,
        label: str = "dma",
    ) -> Event:
        """Copy offloaded to the I/OAT-style DMA engine (no core engine used)."""
        src.check_range(src_off, nbytes)
        dst.check_range(dst_off, nbytes)
        weights: dict[Resource, float] = {self.dma_engine: 1.0 / self.dma_rate}
        self._add_weight(weights, self.mem_ports[src.domain], 1.0)
        self._add_weight(weights, self.mem_ports[dst.domain], 1.0)
        for key in self.route(src.domain, dst.domain):
            self._add_weight(weights, self.links[key], 1.0)
        latency = self.spec.mem_latency * 2  # descriptor fetch + completion write
        req = CopyRequest(None, src, src_off, dst, dst_off, nbytes, True, label)
        done = self.network.transfer(nbytes, self.dma_rate, weights,
                                     latency=latency, label=label)
        done.add_callback(lambda _ev: self._complete(req, touch_caches=False))
        return done

    # -- helpers ---------------------------------------------------------------
    def _blended_rate(self, hit: float, read_hops: int = 0) -> float:
        """Copy engine demand cap, blending memory- and cache-source rates.

        The miss portion is latency-bound and degrades with NUMA distance
        (``numa_read_hop_penalty`` per link hop on the read path).
        """
        core = self.spec.core
        llc_bw = self.caches.domains[0].bandwidth
        miss_bw = core.copy_bandwidth
        if read_hops:
            miss_bw /= 1.0 + self.spec.numa_read_hop_penalty * read_hops
        inv = (1.0 - hit) / miss_bw + hit / llc_bw
        return 1.0 / inv

    @staticmethod
    def _add_weight(weights: dict[Resource, float], res: Resource, w: float) -> None:
        weights[res] = weights.get(res, 0.0) + w

    def _complete(self, req: CopyRequest, touch_caches: bool = True) -> None:
        if req.src.backed and req.dst.backed and req.nbytes:
            req.dst.data[req.dst_off: req.dst_off + req.nbytes] = \
                req.src.data[req.src_off: req.src_off + req.nbytes]
        if touch_caches and req.core is not None:
            # Source lines arrive clean (or get demoted to shared-clean by
            # the intervention); destination lines are dirty in this cache.
            self.caches.touch(req.core, req.src, req.src_off, req.nbytes,
                              dirty=False)
            self.caches.touch(req.core, req.dst, req.dst_off, req.nbytes,
                              dirty=True)
        self.bytes_copied += req.nbytes
        self.copies += 1
        # Hot path: skip building the 11-field kwargs dict when tracing is
        # off; the always-on per-category counter is maintained either way.
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "copy",
                core=req.core,
                src=req.src.label,
                dst=req.dst.label,
                nbytes=req.nbytes,
                kernel=req.kernel,
                label=req.label,
                src_buf=req.src.id,
                src_off=req.src_off,
                dst_buf=req.dst.id,
                dst_off=req.dst_off,
            )
        else:
            tracer.tick("copy")
