"""Declarative machine specifications.

A :class:`MachineSpec` is a frozen description of an intra-node memory
system: sockets grouped on boards, memory domains (NUMA nodes or a single
SMP controller), the inter-domain link graph, core copy engines, and the
cache hierarchy.  Everything downstream (topology tree, flow resources,
cache domains) is derived from this one object, so tests can build synthetic
machines as easily as the paper's four platforms.

Conventions:

- cores are numbered globally ``0 .. n_cores-1``, socket-major
  (core ``s * cores_per_socket + i`` is core ``i`` of socket ``s``);
- memory domains are numbered ``0 .. n_domains-1``;
- bandwidths are bytes/second, latencies seconds, sizes bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HardwareConfigError

__all__ = ["CoreSpec", "CacheSpec", "LinkSpec", "MachineSpec", "CACHE_SCOPES"]

#: Valid sharing scopes for a cache level, from narrowest to widest.
CACHE_SCOPES = ("core", "pair", "socket", "domain")


@dataclass(frozen=True)
class CoreSpec:
    """Per-core execution parameters.

    ``copy_bandwidth`` is the single-stream memcpy rate against
    memory-resident data; ``cached_copy_bandwidth`` the rate when the source
    is resident in the last-level cache (used to blend by residency).
    ``elem_op_time`` is the calibrated time for one element-update of the
    ASP relaxation loop (min+add over 32-bit ints, memory bound), used by
    the application compute model.
    """

    freq_ghz: float
    copy_bandwidth: float
    cached_copy_bandwidth: float
    elem_op_time: float = 9e-9

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0 or self.copy_bandwidth <= 0:
            raise HardwareConfigError(
                "core frequency and copy bandwidth must be positive")
        if self.cached_copy_bandwidth < self.copy_bandwidth:
            raise HardwareConfigError(
                "cached copy bandwidth must be >= memory copy bandwidth")


@dataclass(frozen=True)
class CacheSpec:
    """One cache level: capacity, sharing scope, and streaming bandwidths.

    ``bandwidth`` is the rate one core sustains streaming from this cache;
    ``total_bandwidth`` the aggregate the cache serves to all its sharers
    (banked LLCs saturate well below ``sharers * per-core rate``).  A zero
    ``total_bandwidth`` defaults to ``2.5 * bandwidth``.
    """

    level: int
    size: int
    scope: str
    bandwidth: float
    total_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.scope not in CACHE_SCOPES:
            raise HardwareConfigError(
                f"cache scope {self.scope!r} not in {CACHE_SCOPES}")
        if self.size <= 0 or self.bandwidth <= 0:
            raise HardwareConfigError("cache size and bandwidth must be positive")
        if self.total_bandwidth == 0.0:
            object.__setattr__(self, "total_bandwidth", 2.5 * self.bandwidth)
        if self.total_bandwidth < self.bandwidth:
            raise HardwareConfigError("total_bandwidth must be >= per-core bandwidth")


@dataclass(frozen=True)
class LinkSpec:
    """An undirected inter-domain link (HyperTransport / QPI / board bridge)."""

    a: int
    b: int
    bandwidth: float
    latency: float = 100e-9

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise HardwareConfigError(f"self-link on domain {self.a}")
        if self.bandwidth <= 0 or self.latency < 0:
            raise HardwareConfigError(
                "link bandwidth must be positive and latency >= 0")

    @property
    def key(self) -> tuple[int, int]:
        return (min(self.a, self.b), max(self.a, self.b))


@dataclass(frozen=True)
class MachineSpec:
    """A complete intra-node machine description (see module docstring)."""

    name: str
    cores_per_socket: int
    socket_domain: tuple[int, ...]
    socket_board: tuple[int, ...]
    domain_mem_bandwidth: tuple[float, ...]
    domain_mem_bytes: tuple[int, ...]
    core: CoreSpec
    caches: tuple[CacheSpec, ...]
    links: tuple[LinkSpec, ...] = ()
    mem_latency: float = 80e-9
    #: How much of a *dirty* cache hit (lines written by another core, read
    #: via a coherence intervention) is actually served at cache speed.
    #: Snoopy FSB platforms resolve HITM interventions at bus/memory speed
    #: (≈ 0), on-die shared L3s serve them nearly as fast as clean hits.
    dirty_intervention_efficiency: float = 0.85
    #: Fraction of intervention-served bytes written back to home memory.
    #: MESI/MESIF (Intel) demotes M->S with a writeback (1.0); MOESI (AMD)
    #: keeps the line Owned and serves sharers without touching memory (0.0).
    intervention_writeback: float = 1.0
    #: Memory-controller stream-contention model: beyond ``knee`` concurrent
    #: streams a port's effective bandwidth degrades (row-buffer/bank
    #: locality loss) as ``bw / (1 + alpha * (n - knee))``.  Posted writes
    #: count as ``write_stream_weight`` of a read stream (controllers
    #: reorder them freely).
    mem_stream_knee: int = 6
    mem_stream_alpha: float = 0.02
    write_stream_weight: float = 0.3
    #: Single-stream read bandwidth shrinks with NUMA distance (reads are
    #: latency-bound): effective rate = copy_bw / (1 + penalty * hops).
    numa_read_hop_penalty: float = 0.35
    description: str = ""

    def __post_init__(self) -> None:
        if self.cores_per_socket <= 0:
            raise HardwareConfigError("cores_per_socket must be positive")
        if len(self.socket_domain) != len(self.socket_board):
            raise HardwareConfigError("socket_domain and socket_board lengths differ")
        if not self.socket_domain:
            raise HardwareConfigError("machine needs at least one socket")
        n_domains = max(self.socket_domain) + 1
        if sorted(set(self.socket_domain)) != list(range(n_domains)):
            raise HardwareConfigError("memory domains must be contiguous from 0")
        if (len(self.domain_mem_bandwidth) != n_domains
                or len(self.domain_mem_bytes) != n_domains):
            raise HardwareConfigError(
                "per-domain arrays must have one entry per memory domain")
        if any(b <= 0 for b in self.domain_mem_bandwidth):
            raise HardwareConfigError("memory bandwidth must be positive")
        for link in self.links:
            if not (0 <= link.a < n_domains and 0 <= link.b < n_domains):
                raise HardwareConfigError(f"link {link} references unknown domain")
        if not self.caches:
            raise HardwareConfigError("machine needs at least one cache level")
        levels = [c.level for c in self.caches]
        if levels != sorted(levels) or len(set(levels)) != len(levels):
            raise HardwareConfigError("cache levels must be strictly increasing")
        if self.cores_per_socket % 2 and any(c.scope == "pair" for c in self.caches):
            raise HardwareConfigError(
                "'pair' cache scope requires an even cores_per_socket")
        if not 0.0 <= self.dirty_intervention_efficiency <= 1.0:
            raise HardwareConfigError("dirty_intervention_efficiency must be in [0, 1]")
        if not 0.0 <= self.intervention_writeback <= 1.0:
            raise HardwareConfigError("intervention_writeback must be in [0, 1]")
        # Core -> memory domain, one entry per core.  Not a field: it is
        # derived, so equality, hashing and repr ignore it.
        object.__setattr__(self, "_core_domains", tuple(
            d for d in self.socket_domain for _ in range(self.cores_per_socket)))

    # -- derived sizes -----------------------------------------------------
    @property
    def n_sockets(self) -> int:
        return len(self.socket_domain)

    @property
    def n_cores(self) -> int:
        return self.n_sockets * self.cores_per_socket

    @property
    def n_domains(self) -> int:
        return max(self.socket_domain) + 1

    @property
    def n_boards(self) -> int:
        return max(self.socket_board) + 1

    @property
    def llc(self) -> CacheSpec:
        """The last-level (widest-sharing, highest-level) cache."""
        return self.caches[-1]

    @property
    def is_smp(self) -> bool:
        """True when one memory controller serves every socket (Zoot)."""
        return self.n_domains == 1

    # -- core coordinate helpers -------------------------------------------
    def core_socket(self, core: int) -> int:
        self._check_core(core)
        return core // self.cores_per_socket

    def core_domain(self, core: int) -> int:
        self._check_core(core)
        return self._core_domains[core]

    def core_board(self, core: int) -> int:
        return self.socket_board[self.core_socket(core)]

    def cores_of_socket(self, socket: int) -> range:
        if not 0 <= socket < self.n_sockets:
            raise HardwareConfigError(f"socket {socket} out of range")
        start = socket * self.cores_per_socket
        return range(start, start + self.cores_per_socket)

    def cores_of_domain(self, domain: int) -> list[int]:
        if not 0 <= domain < self.n_domains:
            raise HardwareConfigError(f"domain {domain} out of range")
        cores: list[int] = []
        for s, d in enumerate(self.socket_domain):
            if d == domain:
                cores.extend(self.cores_of_socket(s))
        return cores

    def cache_group(self, core: int, cache: CacheSpec) -> tuple[int, ...]:
        """The set of cores sharing ``cache`` with ``core``."""
        self._check_core(core)
        if cache.scope == "core":
            return (core,)
        if cache.scope == "pair":
            base = core - (core % 2)
            return (base, base + 1)
        if cache.scope == "socket":
            return tuple(self.cores_of_socket(self.core_socket(core)))
        return tuple(self.cores_of_domain(self.core_domain(core)))

    def _check_core(self, core: int) -> None:
        if not 0 <= core < len(self._core_domains):
            raise HardwareConfigError(
                f"core {core} out of range (machine has {self.n_cores})")

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.n_cores} cores = "
            f"{self.n_sockets}s x {self.cores_per_socket}c, "
            f"{self.n_domains} memory domain(s), {self.n_boards} board(s)"
        )
