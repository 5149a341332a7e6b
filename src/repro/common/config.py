"""Configuration dataclasses for the simulated machine.

The paper's machine (section 3.1-3.2) is the default configuration:
16 processors at 250 MHz (4 ns cycle, 4-wide issue), 64-byte lines,
a direct-mapped first-level cache, a private 4-way second-level cache per
processor sized at 1/128 of the application working set, and one 4-way
set-associative attraction memory per node whose size is derived from the
target *memory pressure* (working set / total attraction memory).

Sizes that the paper expresses as ratios are kept as ratios here; see
DESIGN.md section 2 for the scaling argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from repro.common.errors import ConfigError

#: The memory pressures used throughout the paper's evaluation: a single
#: copy of the working set entirely fills 1, 8, 12, 13 and 14 of the 16
#: attraction memories of a 16-node machine (section 3.1).
PAPER_MEMORY_PRESSURES: dict[str, Fraction] = {
    "6%": Fraction(1, 16),
    "50%": Fraction(8, 16),
    "75%": Fraction(12, 16),
    "81%": Fraction(13, 16),
    "87%": Fraction(14, 16),
}


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache array.

    ``num_sets`` is *not* required to be a power of two: the paper sizes
    the attraction memory directly from the memory pressure, which
    "results in odd cache sizes" (section 3.1).  Indexing uses modulo.
    """

    num_sets: int
    assoc: int
    line_size: int

    def __post_init__(self) -> None:
        if self.num_sets < 1:
            raise ConfigError(f"num_sets must be >= 1, got {self.num_sets}")
        if self.assoc < 1:
            raise ConfigError(f"assoc must be >= 1, got {self.assoc}")
        if self.line_size < 1 or self.line_size & (self.line_size - 1):
            raise ConfigError(f"line_size must be a power of two, got {self.line_size}")

    @property
    def size_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_size

    @property
    def num_lines(self) -> int:
        return self.num_sets * self.assoc

    def set_index(self, line_addr: int) -> int:
        """Map a line address (byte address >> log2(line)) to a set index."""
        return line_addr % self.num_sets

    @classmethod
    def from_size(cls, size_bytes: int, assoc: int, line_size: int) -> "CacheGeometry":
        """Build a geometry whose capacity is as close as possible to
        ``size_bytes`` with the given associativity and line size."""
        sets = max(1, round(size_bytes / (assoc * line_size)))
        return cls(num_sets=sets, assoc=assoc, line_size=line_size)


@dataclass(frozen=True)
class TimingConfig:
    """Latency and occupancy parameters (paper section 3.2).

    Contention-free read latencies: L1 0 ns, SLC 32 ns, attraction memory
    148 ns (24 ns node controller + 100 ns DRAM + 24 ns controller return),
    remote 332 ns with the global bus occupied 2 x 20 ns.

    Bandwidth ablations scale *occupancies* while holding latencies
    constant, exactly as the paper does ("If the DRAM bandwidth is doubled
    (while the latency is held constant)...").
    """

    cycle_ns: int = 4
    issue_width: int = 4
    l1_hit_ns: int = 0
    slc_hit_ns: int = 32
    slc_occupancy_ns: int = 32
    nc_ns: int = 24
    dram_latency_ns: int = 100
    dram_occupancy_ns: int = 100
    bus_phase_ns: int = 20
    bus_occupancy_ns: int = 20
    #: Fixed interconnect overhead that tops the remote path up to the
    #: paper's 332 ns contention-free remote latency.
    remote_overhead_ns: int = 20
    write_buffer_entries: int = 10
    #: Bandwidth scale factors (2.0 = doubled bandwidth = halved occupancy).
    dram_bandwidth_factor: float = 1.0
    nc_bandwidth_factor: float = 1.0
    bus_bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dram_bandwidth_factor", "nc_bandwidth_factor", "bus_bandwidth_factor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.write_buffer_entries < 1:
            raise ConfigError("write_buffer_entries must be >= 1")

    @property
    def dram_busy_ns(self) -> int:
        """Effective DRAM occupancy per access after the bandwidth factor."""
        return max(1, round(self.dram_occupancy_ns / self.dram_bandwidth_factor))

    @property
    def nc_busy_ns(self) -> int:
        return max(1, round(self.nc_ns / self.nc_bandwidth_factor))

    @property
    def bus_busy_ns(self) -> int:
        return max(1, round(self.bus_occupancy_ns / self.bus_bandwidth_factor))

    @property
    def am_hit_ns(self) -> int:
        """Contention-free attraction-memory read hit latency (148 ns)."""
        return 2 * self.nc_ns + self.dram_latency_ns

    @property
    def remote_ns(self) -> int:
        """Contention-free remote read latency (332 ns by default)."""
        return (
            2 * self.nc_ns           # local controller out + in
            + 2 * self.bus_phase_ns  # request + reply bus phases
            + self.nc_ns             # remote controller
            + self.dram_latency_ns   # remote DRAM read
            + self.dram_latency_ns   # local DRAM allocate/fill
            + self.remote_overhead_ns
        )

    def instructions_ns(self, n_instr: int) -> int:
        """Time to execute ``n_instr`` instructions on the 4-wide core."""
        if n_instr <= 0:
            return 0
        cycles = -(-n_instr // self.issue_width)  # ceil division
        return cycles * self.cycle_ns


@dataclass(frozen=True)
class MachineConfig:
    """Full machine configuration.

    Cache capacities may either be given explicitly (``*_bytes`` fields) or
    derived from a working-set size via :meth:`sized_for`, which applies
    the paper's ratios: SLC = WS/128 per processor, total attraction
    memory = WS / memory_pressure split evenly over nodes, L1 = WS/512
    (scaled stand-in for the paper's fixed 4 KB; see DESIGN.md).
    """

    n_processors: int = 16
    procs_per_node: int = 1
    line_size: int = 64
    page_size: int = 2048
    am_assoc: int = 4
    slc_assoc: int = 4
    memory_pressure: Fraction = Fraction(8, 16)
    slc_ws_fraction: Fraction = Fraction(1, 128)
    l1_ws_fraction: Fraction = Fraction(1, 512)
    #: Explicit capacities; ``None`` means "derive from working set".
    am_bytes_per_node: Optional[int] = None
    slc_bytes: Optional[int] = None
    l1_bytes: Optional[int] = None
    #: Enforce SLC/L1 subset-of-AM inclusion (paper default).  Setting this
    #: to False models the "break the inclusion" extension of section 4.2.
    inclusive: bool = True
    #: Maximum relocation-cascade depth before a displaced owner line is
    #: parked in the node's victim overflow buffer.
    relocation_max_hops: int = 4
    #: Local victim selection: "shared_first" (paper section 3.1:
    #: "entries in state Shared are prioritized over entries in the Owner
    #: and Exclusive states") or "lru" (state-blind, for the ablation).
    am_victim_policy: str = "shared_first"
    #: Relocation receiver selection: "accept" (paper: nodes with Invalid
    #: entries prioritized over those with Shared entries) or "random"
    #: (first candidate in a seeded random order, for the ablation).
    replacement_receiver_policy: str = "accept"
    #: Memory consistency model: "rc" (release consistency with the write
    #: buffer — the paper's assumption, section 3.2) or "sc" (sequential
    #: consistency: the processor stalls on every write; ablation).
    consistency: str = "rc"
    #: Coalesce writes to a line already pending in the write buffer
    #: (they merge into the buffered entry and never reach the memory
    #: system).  Off by default to match the paper's model.
    write_buffer_coalescing: bool = False
    seed: int = 1997
    timing: TimingConfig = field(default_factory=TimingConfig)

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ConfigError("n_processors must be >= 1")
        if self.procs_per_node < 1 or self.n_processors % self.procs_per_node:
            raise ConfigError(
                f"procs_per_node={self.procs_per_node} must divide "
                f"n_processors={self.n_processors}"
            )
        if self.line_size & (self.line_size - 1):
            raise ConfigError("line_size must be a power of two")
        if self.page_size % self.line_size:
            raise ConfigError("page_size must be a multiple of line_size")
        if not (0 < self.memory_pressure <= 1):
            raise ConfigError("memory_pressure must be in (0, 1]")
        if self.am_victim_policy not in ("shared_first", "lru"):
            raise ConfigError(f"unknown am_victim_policy {self.am_victim_policy!r}")
        if self.replacement_receiver_policy not in ("accept", "random"):
            raise ConfigError(
                f"unknown replacement_receiver_policy "
                f"{self.replacement_receiver_policy!r}"
            )
        if self.consistency not in ("rc", "sc"):
            raise ConfigError(f"unknown consistency model {self.consistency!r}")

    @property
    def n_nodes(self) -> int:
        return self.n_processors // self.procs_per_node

    @property
    def line_shift(self) -> int:
        return self.line_size.bit_length() - 1

    def sized_for(self, working_set_bytes: int) -> "MachineConfig":
        """Return a copy with concrete cache capacities for a working set.

        The attraction memory per *processor* is held constant across
        clustering degrees (paper section 3.1): a 2-processor node gets an
        AM twice the size of a 1-processor node's.
        """
        if working_set_bytes <= 0:
            raise ConfigError("working_set_bytes must be positive")
        total_am = int(math.ceil(working_set_bytes / self.memory_pressure))
        am_per_node = max(
            self.procs_per_node * self.am_assoc * self.line_size,
            total_am // self.n_nodes,
        )
        slc = max(4 * self.line_size, int(working_set_bytes * self.slc_ws_fraction))
        l1 = max(2 * self.line_size, int(working_set_bytes * self.l1_ws_fraction))
        return replace(
            self,
            am_bytes_per_node=am_per_node,
            slc_bytes=slc,
            l1_bytes=l1,
        )

    def _require_sized(self) -> None:
        if self.am_bytes_per_node is None or self.slc_bytes is None or self.l1_bytes is None:
            raise ConfigError(
                "cache capacities not set; call sized_for(working_set_bytes) first"
            )

    @property
    def am_geometry(self) -> CacheGeometry:
        self._require_sized()
        assert self.am_bytes_per_node is not None
        return CacheGeometry.from_size(self.am_bytes_per_node, self.am_assoc, self.line_size)

    @property
    def slc_geometry(self) -> CacheGeometry:
        self._require_sized()
        assert self.slc_bytes is not None
        return CacheGeometry.from_size(self.slc_bytes, self.slc_assoc, self.line_size)

    @property
    def l1_geometry(self) -> CacheGeometry:
        self._require_sized()
        assert self.l1_bytes is not None
        # Direct-mapped, as in the paper.
        return CacheGeometry.from_size(self.l1_bytes, 1, self.line_size)

    def node_of_proc(self, proc_id: int) -> int:
        """Node that processor ``proc_id`` belongs to.

        Processors are assigned to nodes in sequential order, matching the
        paper's process placement ("processes created after each other are
        likely to belong to the same cluster").
        """
        return proc_id // self.procs_per_node

    def procs_of_node(self, node_id: int) -> range:
        base = node_id * self.procs_per_node
        return range(base, base + self.procs_per_node)

    def describe(self) -> str:
        """One-line human-readable summary of the configuration."""
        mp = float(self.memory_pressure) * 100
        sized = self.am_bytes_per_node is not None
        size_txt = (
            f", AM/node={self.am_bytes_per_node}B SLC={self.slc_bytes}B L1={self.l1_bytes}B"
            if sized
            else " (unsized)"
        )
        return (
            f"{self.n_processors}p/{self.n_nodes}n x{self.procs_per_node} "
            f"MP={mp:.1f}% AM {self.am_assoc}-way{size_txt}"
        )
