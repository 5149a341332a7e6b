"""Result container for one simulation run, its derived metrics and its
plain-text report.

Everything the experiment harness needs is serializable to/from plain
dicts so runs can be cached on disk (see ``repro.experiments.runner``).
The paper's per-run quantities are properties of the result: RNMr
(Figure 2), traffic by class (Figures 3-4) and the Busy/SLC/AM/Remote
time split (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.units import fmt_bytes, fmt_time
from repro.timing.accounting import STALL_CATEGORIES

if TYPE_CHECKING:  # pragma: no cover
    from repro.coma.machine import ComaMachine
    from repro.cpu.processor import Processor


@dataclass
class SimulationResult:
    """Metrics of one run."""

    elapsed_ns: int
    counters: dict[str, int]
    traffic_bytes: dict[str, int]
    traffic_counts: dict[str, int]
    #: Per-processor stall breakdowns (ns), category -> value.
    stalls: list[dict[str, int]]
    allocated_bytes: int
    touched_bytes: int
    bus_utilization: float
    config_summary: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        machine: "ComaMachine",
        procs: "list[Processor]",
        elapsed_ns: int,
    ) -> "SimulationResult":
        cfg = machine.config
        hierarchy = {}
        if hasattr(machine, "group_bus_bytes"):
            # Hierarchical machine: machine.bus is the top bus; surface
            # the per-level split so results capture both.
            hierarchy = {
                "top_bus_bytes": machine.top_bus_bytes,
                "group_bus_bytes": machine.group_bus_bytes,
                "n_groups": machine.n_groups,
            }
        return cls(
            elapsed_ns=elapsed_ns,
            counters=machine.counters.as_dict(),
            traffic_bytes={k.value: v for k, v in machine.bus.tx_bytes.items()},
            traffic_counts={k.value: v for k, v in machine.bus.tx_count.items()},
            stalls=[p.acct.as_dict() for p in procs],
            allocated_bytes=machine.space.allocated_bytes,
            touched_bytes=machine.space.touched_bytes,
            bus_utilization=machine.bus.utilization(elapsed_ns),
            config_summary={
                "n_processors": cfg.n_processors,
                "procs_per_node": cfg.procs_per_node,
                "memory_pressure": float(cfg.memory_pressure),
                "am_assoc": cfg.am_assoc,
                "am_bytes_per_node": cfg.am_bytes_per_node,
                "slc_bytes": cfg.slc_bytes,
                "l1_bytes": cfg.l1_bytes,
                "dram_bandwidth_factor": cfg.timing.dram_bandwidth_factor,
                "nc_bandwidth_factor": cfg.timing.nc_bandwidth_factor,
                "bus_bandwidth_factor": cfg.timing.bus_bandwidth_factor,
                "inclusive": cfg.inclusive,
                **hierarchy,
            },
        )

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    @property
    def reads(self) -> int:
        return self.counters["reads"]

    @property
    def read_node_miss_rate(self) -> float:
        """RNMr: "the fraction of all reads the processors perform that
        result in node misses" (paper section 4.1)."""
        reads = self.counters["reads"]
        return self.counters["node_read_misses"] / reads if reads else 0.0

    @property
    def total_traffic_bytes(self) -> int:
        return sum(self.traffic_bytes.values())

    @property
    def mean_stalls(self) -> dict[str, float]:
        """Per-category time averaged over processors (ns)."""
        n = max(1, len(self.stalls))
        return {
            c: sum(s[c] for s in self.stalls) / n for c in STALL_CATEGORIES
        }

    @property
    def figure5_breakdown(self) -> dict[str, float]:
        """Execution time split Busy / SLC / AM / Remote (Figure 5), in ns
        averaged over processors.

        The paper's four categories subsume everything: its spin loops
        execute instructions (Busy) and its release-consistency write
        stalls are negligible.  This view therefore folds the separately
        tracked ``sync`` and ``write`` categories into Busy; the raw
        six-way split is :attr:`mean_stalls`.
        """
        m = self.mean_stalls
        return {
            "busy": m["busy"] + m["sync"] + m["write"],
            "slc": m["slc"],
            "am": m["am"],
            "remote": m["remote"],
        }

    @property
    def miss_class_fractions(self) -> dict[str, float]:
        total = max(
            1,
            self.counters["read_miss_cold"]
            + self.counters["read_miss_coherence"]
            + self.counters["read_miss_conflict"]
            + self.counters["read_miss_capacity"],
        )
        return {
            k: self.counters[f"read_miss_{k}"] / total
            for k in ("cold", "coherence", "conflict", "capacity")
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "elapsed_ns": self.elapsed_ns,
            "counters": self.counters,
            "traffic_bytes": self.traffic_bytes,
            "traffic_counts": self.traffic_counts,
            "stalls": self.stalls,
            "allocated_bytes": self.allocated_bytes,
            "touched_bytes": self.touched_bytes,
            "bus_utilization": self.bus_utilization,
            "config_summary": self.config_summary,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationResult":
        return cls(**d)


def render_run_report(result: SimulationResult) -> str:
    """Human-readable summary of one simulation run."""
    cfg = result.config_summary
    c = result.counters
    lines = [
        "=== simulation run ===",
        f"machine      : {cfg.get('n_processors')} processors, "
        f"{cfg.get('procs_per_node')} per node, "
        f"MP {100 * float(cfg.get('memory_pressure', 0)):.1f}%, "
        f"AM {cfg.get('am_assoc')}-way"
        + ("" if cfg.get("inclusive", True) else ", non-inclusive"),
        f"working set  : {fmt_bytes(result.allocated_bytes)} allocated, "
        f"{fmt_bytes(result.touched_bytes)} touched",
        f"exec time    : {fmt_time(result.elapsed_ns)}",
        f"reads        : {c['reads']} "
        f"(L1 {c['l1_read_hits']}, SLC {c['slc_read_hits']}, "
        f"AM {c['am_read_hits']}, node misses {c['node_read_misses']})",
        f"RNMr         : {100 * result.read_node_miss_rate:.2f}%",
        f"writes       : {c['writes']} (node misses {c['node_write_misses']}, "
        f"upgrades {c['upgrades']})",
        "miss classes : "
        + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in result.miss_class_fractions.items()
        ),
        "traffic      : "
        + ", ".join(f"{k} {fmt_bytes(v)}" for k, v in result.traffic_bytes.items())
        + f" (bus util {100 * result.bus_utilization:.1f}%)",
        f"replacements : {c['replacements']} "
        f"(to sharer {c['replace_to_sharer']}, to invalid {c['replace_to_invalid']}, "
        f"to shared {c['replace_to_shared']}, forced hops {c['replace_forced_hops']}, "
        f"overflow {c['overflow_parks']})",
    ]
    bd = result.figure5_breakdown
    total = sum(bd.values()) or 1
    lines.append(
        "time split   : "
        + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in bd.items())
    )
    return "\n".join(lines)
