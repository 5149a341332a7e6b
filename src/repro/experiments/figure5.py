"""Figure 5: execution time breakdown (Busy / SLC stall / AM stall /
Remote stall) for 1-processor nodes at 50 % and 81.25 % MP and
4-processor nodes at 81.25 % MP, on the machine with doubled AM DRAM
bandwidth.

The paper's headline: "for many of the applications clustering removes
the performance penalty that was a result of the memory pressure increase
from 50 to 81%" — except LU-noncontig and Radix, which are dominated by
intra-node contention.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import stacked_bar
from repro.experiments.parallel import run_specs
from repro.experiments.runner import RunSpec
from repro.workloads.registry import paper_workloads

#: The three bars per application: (procs_per_node, memory pressure).
BARS: list[tuple[str, int, float]] = [
    ("1p 50%", 1, 8 / 16),
    ("1p 81%", 1, 13 / 16),
    ("4p 81%", 4, 13 / 16),
]

#: Figure 5 uses the doubled-DRAM-bandwidth machine (section 4.3).
DRAM_FACTOR = 2.0


@dataclass(frozen=True)
class Figure5Bar:
    app: str
    label: str
    breakdown: dict[str, float]  # ns per category, averaged over processors

    @property
    def total(self) -> float:
        return sum(self.breakdown.values())


def run_figure5(
    scale: float = 1.0,
    workloads: list[str] | None = None,
    use_cache: bool = True,
    seed: int = 1997,
    jobs: int | None = None,
) -> list[Figure5Bar]:
    apps = list(workloads or paper_workloads())
    meta = [(app, label) for app in apps for label, _, _ in BARS]
    specs = [
        RunSpec(
            workload=app,
            procs_per_node=ppn,
            memory_pressure=mp,
            dram_bandwidth_factor=DRAM_FACTOR,
            scale=scale,
            seed=seed,
        )
        for app in apps
        for _, ppn, mp in BARS
    ]
    results = run_specs(specs, jobs=jobs, use_cache=use_cache)
    return [
        Figure5Bar(app, label, r.figure5_breakdown)
        for (app, label), r in zip(meta, results)
    ]


def clustering_recovers(bars: list[Figure5Bar], app: str) -> bool:
    """True when 4-way clustering at 81 % MP is at least as fast as the
    1-processor-node machine at 81 % MP (the paper: all but one app)."""
    by_label = {b.label: b for b in bars if b.app == app}
    return by_label["4p 81%"].total <= by_label["1p 81%"].total


def format_figure5(bars: list[Figure5Bar]) -> str:
    apps: list[str] = []
    for b in bars:
        if b.app not in apps:
            apps.append(b.app)
    lines = [
        "Figure 5: execution time, normalized to 1-processor nodes at 50% MP",
        "(B = busy, s = SLC stall, A = AM stall, r = remote stall)",
    ]
    for app in apps:
        group = [b for b in bars if b.app == app]
        ref = next(b.total for b in group if b.label == "1p 50%")
        lines.append("")
        lines.append(app)
        for b in group:
            pct = 100 * b.total / ref if ref else 0.0
            lines.append(
                f"  {b.label:7s} {pct:6.1f}% |{stacked_bar(b.breakdown, ref, 48)}"
            )
    return "\n".join(lines)
