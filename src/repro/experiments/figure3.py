"""Figures 3 and 4 machinery: global bus traffic (read/write/replacement)
for 1- and 4-processor nodes across the memory-pressure sweep.

Figure 3 covers the eight applications where clustering keeps reducing
traffic at every pressure; Figure 4 covers the six whose conflict misses
explode at 87.5 % MP (with extra bars for 8-way-associative AMs at that
pressure).  Both share this module's sweep; ``figure4`` adds the
associativity points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import FIGURE3_APPS, MP_SWEEP, stacked_bar
from repro.experiments.parallel import run_specs
from repro.experiments.runner import RunSpec


@dataclass(frozen=True)
class TrafficPoint:
    app: str
    procs_per_node: int
    mp_label: str
    am_assoc: int
    traffic_bytes: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.traffic_bytes.values())


@dataclass
class TrafficSweep:
    points: list[TrafficPoint] = field(default_factory=list)

    def get(self, app: str, ppn: int, mp_label: str, assoc: int = 4) -> TrafficPoint:
        for p in self.points:
            if (
                p.app == app
                and p.procs_per_node == ppn
                and p.mp_label == mp_label
                and p.am_assoc == assoc
            ):
                return p
        raise KeyError((app, ppn, mp_label, assoc))

    def apps(self) -> list[str]:
        seen: list[str] = []
        for p in self.points:
            if p.app not in seen:
                seen.append(p.app)
        return seen

    def max_total(self, app: str) -> int:
        return max(p.total for p in self.points if p.app == app)


def run_traffic_sweep(
    apps: list[str],
    scale: float = 1.0,
    use_cache: bool = True,
    seed: int = 1997,
    assoc_points: list[tuple[int, str, int]] | None = None,
    jobs: int | None = None,
) -> TrafficSweep:
    """Sweep (app x {1,4} procs/node x 5 pressures) at 4-way associativity,
    plus any extra ``(ppn, mp_label, assoc)`` points requested."""
    mp_by_label = dict(MP_SWEEP)
    meta: list[tuple[str, int, str, int]] = []
    specs: list[RunSpec] = []
    for app in apps:
        for ppn in (1, 4):
            for label, mp in MP_SWEEP:
                specs.append(
                    RunSpec(
                        workload=app,
                        procs_per_node=ppn,
                        memory_pressure=mp,
                        scale=scale,
                        seed=seed,
                    )
                )
                meta.append((app, ppn, label, 4))
        if assoc_points:
            for ppn, label, assoc in assoc_points:
                specs.append(
                    RunSpec(
                        workload=app,
                        procs_per_node=ppn,
                        memory_pressure=mp_by_label[label],
                        am_assoc=assoc,
                        scale=scale,
                        seed=seed,
                    )
                )
                meta.append((app, ppn, label, assoc))
    results = run_specs(specs, jobs=jobs, use_cache=use_cache)
    sweep = TrafficSweep()
    for (app, ppn, label, assoc), r in zip(meta, results):
        sweep.points.append(
            TrafficPoint(app, ppn, label, assoc, dict(r.traffic_bytes))
        )
    return sweep


def run_figure3(
    scale: float = 1.0,
    use_cache: bool = True,
    seed: int = 1997,
    workloads: list[str] | None = None,
    jobs: int | None = None,
) -> TrafficSweep:
    return run_traffic_sweep(
        workloads or FIGURE3_APPS,
        scale=scale,
        use_cache=use_cache,
        seed=seed,
        jobs=jobs,
    )


def format_traffic(sweep: TrafficSweep, title: str) -> str:
    lines = [
        title,
        "(per app, bars normalized to that app's tallest bar;",
        " R = read, W = write, X = replacement traffic)",
    ]
    for app in sweep.apps():
        lines.append("")
        lines.append(app)
        ref = sweep.max_total(app)
        assocs = sorted({p.am_assoc for p in sweep.points if p.app == app})
        for ppn in (1, 4):
            for label, _ in MP_SWEEP:
                for assoc in assocs:
                    try:
                        p = sweep.get(app, ppn, label, assoc)
                    except KeyError:
                        continue
                    tag = f"{ppn}p {label:>3s}" + (f" {assoc}way" if assoc != 4 else "      ")
                    lines.append(
                        f"  {tag:14s} {p.total / 1024:8.1f}K |"
                        f"{stacked_bar(p.traffic_bytes, ref, 48)}"
                    )
    return "\n".join(lines)


def format_figure3(sweep: TrafficSweep) -> str:
    return format_traffic(
        sweep,
        "Figure 3: traffic for 1 and 4-processor nodes at 6/50/75/81/87% MP",
    )
