"""Per-processor execution-time accounting.

Figure 5 of the paper divides execution time into four sections:

* **Busy** — executing instructions or memory accesses hitting in the L1;
* **SLC stall** — waiting for accesses that hit in the second-level cache;
* **AM stall** — waiting for accesses that hit in the attraction memory;
* **Remote stall** — waiting for accesses that miss in the node.

We additionally track **sync** (blocked on locks/barriers; the paper's
spin loops execute instructions and therefore land in Busy — our report
folds sync into Busy when reproducing Figure 5, see ``stats.metrics``)
and **write** (stalled on a full write buffer or draining it at a
release, which release consistency keeps small).
"""

from __future__ import annotations

from dataclasses import dataclass, field

STALL_CATEGORIES = ("busy", "slc", "am", "remote", "sync", "write")


@dataclass
class StallAccounting:
    """Nanoseconds of processor time per category."""

    busy: int = 0
    slc: int = 0
    am: int = 0
    remote: int = 0
    sync: int = 0
    write: int = 0

    @property
    def total(self) -> int:
        return self.busy + self.slc + self.am + self.remote + self.sync + self.write

    def as_dict(self) -> dict[str, int]:
        return {c: getattr(self, c) for c in STALL_CATEGORIES}

    def merged(self, other: "StallAccounting") -> "StallAccounting":
        out = StallAccounting()
        for c in STALL_CATEGORIES:
            setattr(out, c, getattr(self, c) + getattr(other, c))
        return out


@dataclass
class TimeBreakdown:
    """Machine-level summary: per-category times averaged over processors."""

    per_category: dict[str, float] = field(default_factory=dict)
    elapsed_ns: int = 0

    @classmethod
    def from_processors(
        cls, accounts: list[StallAccounting], elapsed_ns: int
    ) -> "TimeBreakdown":
        n = max(1, len(accounts))
        per = {
            c: sum(getattr(a, c) for a in accounts) / n for c in STALL_CATEGORIES
        }
        return cls(per_category=per, elapsed_ns=elapsed_ns)
