"""Sharing/replication profiler.

Periodically samples the machine's line table to measure how the paper's
central resource — *replication space* — is actually used:

* the replication degree of each line (1 owner + sharers), its maximum
  over the run and the machine-wide histogram;
* owner migrations (a line's owner node changing between samples);
* per-node attraction-memory composition (owner vs shared vs invalid
  ways), i.e. how much of the AM is replication space right now.

This turns the section-4.2 analysis into a measurement: at low memory
pressure hot lines replicate into every node (degree = n_nodes); above
the analytic threshold ``(W - n + 1)/W`` the observed maximum degree
drops toward the closed-form cap from
:func:`repro.analytic.replication.max_replication_degree`.

Attach via ``sim.attach(SharingProfiler(), every=N)``: like
:class:`~repro.obs.timeline.TimelineSampler` it rides the kernel's
profiler hook, sampling every ``N`` events.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.coma.states import SHARED, is_owning

if TYPE_CHECKING:  # pragma: no cover
    from repro.coma.machine import ComaMachine


@dataclass
class ProfileReport:
    """Aggregated sharing profile of one run."""

    samples: int
    #: replication degree -> number of (line, sample) observations
    degree_histogram: dict[int, int]
    #: per line: the largest simultaneous copy count observed
    max_degree: int
    mean_degree: float
    #: owner-node changes observed between consecutive samples
    migrations: int
    #: lines that migrated most, as (line, count)
    top_migrators: list[tuple[int, int]]
    #: averaged AM composition across samples: state fraction of all ways
    am_composition: dict[str, float] = field(default_factory=dict)

    def degree_fraction_at_least(self, degree: int) -> float:
        total = sum(self.degree_histogram.values())
        if not total:
            return 0.0
        hit = sum(v for d, v in self.degree_histogram.items() if d >= degree)
        return hit / total


class SharingProfiler:
    """Samples a :class:`ComaMachine`'s sharing state."""

    def __init__(self) -> None:
        self.samples = 0
        self._degree_hist: Counter[int] = Counter()
        self._max_degree_per_line: dict[int, int] = {}
        self._last_owner: dict[int, int] = {}
        self._migrations: Counter[int] = Counter()
        self._comp_totals: Counter[str] = Counter()

    # ------------------------------------------------------------------
    def sample(self, machine: "ComaMachine") -> None:
        """Record one snapshot (called by the simulation kernel)."""
        self.samples += 1
        maxd = self._max_degree_per_line
        for line, info in machine.lines.items():
            degree = 1 + len(info.sharers)
            self._degree_hist[degree] += 1
            if degree > maxd.get(line, 0):
                maxd[line] = degree
            prev = self._last_owner.get(line)
            if prev is not None and prev != info.owner_node:
                self._migrations[line] += 1
            self._last_owner[line] = info.owner_node
        owners = shared = invalid = 0
        for node in machine.nodes:
            for st in node.am.state_a:
                if st == 0:
                    invalid += 1
                elif st == SHARED:
                    shared += 1
                elif is_owning(st):
                    owners += 1
        self._comp_totals["owner"] += owners
        self._comp_totals["shared"] += shared
        self._comp_totals["invalid"] += invalid

    # ------------------------------------------------------------------
    def report(self, top_n: int = 10) -> ProfileReport:
        total_ways = sum(self._comp_totals.values())
        comp = (
            {k: v / total_ways for k, v in self._comp_totals.items()}
            if total_ways
            else {}
        )
        observations = sum(self._degree_hist.values())
        mean = (
            sum(d * v for d, v in self._degree_hist.items()) / observations
            if observations
            else 0.0
        )
        return ProfileReport(
            samples=self.samples,
            degree_histogram=dict(self._degree_hist),
            max_degree=max(self._max_degree_per_line.values(), default=0),
            mean_degree=mean,
            migrations=sum(self._migrations.values()),
            top_migrators=self._migrations.most_common(top_n),
            am_composition=comp,
        )


def format_profile(report: ProfileReport) -> str:
    """Plain-text rendering of a sharing profile."""
    lines = [
        f"sharing profile over {report.samples} samples",
        f"  replication degree: max {report.max_degree}, "
        f"mean {report.mean_degree:.2f}",
        f"  owner migrations  : {report.migrations}",
    ]
    if report.am_composition:
        comp = ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in sorted(report.am_composition.items())
        )
        lines.append(f"  AM way composition: {comp}")
    hist = sorted(report.degree_histogram.items())
    if hist:
        total = sum(v for _, v in hist)
        lines.append("  degree histogram  :")
        for d, v in hist[:12]:
            lines.append(f"    {d:3d} copies: {100 * v / total:5.1f}%")
    return "\n".join(lines)
