"""Run accounting: per-processor stall time and machine event counters.

Figure 5 of the paper divides execution time into four sections:

* **Busy** — executing instructions or memory accesses hitting in the L1;
* **SLC stall** — waiting for accesses that hit in the second-level cache;
* **AM stall** — waiting for accesses that hit in the attraction memory;
* **Remote stall** — waiting for accesses that miss in the node.

We additionally track **sync** (blocked on locks/barriers; the paper's
spin loops execute instructions and therefore land in Busy —
``SimulationResult.figure5_breakdown`` folds sync into Busy when
reproducing Figure 5) and **write** (stalled on a full write buffer or
draining it at a release, which release consistency keeps small).

:class:`Counters` is the machine-wide bag of event counters every machine
flavour fills: read misses at node level are classified (cold /
coherence / conflict / capacity) for the paper's section-4.2 analysis,
and the rest feed RNMr (Figure 2), the traffic breakdowns (Figures 3-4)
and the test suite's sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

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


_FIELDS = (
    # processor-issued operations
    "reads",
    "writes",
    "atomics",
    # hit levels for reads
    "l1_read_hits",
    "slc_read_hits",
    "am_read_hits",
    "overflow_read_hits",
    # node-level misses
    "node_read_misses",
    "node_write_misses",
    # read node miss classification
    "read_miss_cold",
    "read_miss_coherence",
    "read_miss_conflict",
    "read_miss_capacity",
    # protocol events
    "upgrades",
    "read_exclusive",
    "invalidations_sent",
    "back_invalidations",
    # replacement machinery
    "replacements",
    "replace_to_sharer",
    "replace_to_invalid",
    "replace_to_shared",
    "replace_forced_hops",
    "replace_to_slc",
    "overflow_parks",
    "shared_drops",
    "uncached_reads",
    "slc_neighbor_hits",
    "slc_owner_reinserts",
    # paging & sync
    "pages_allocated",
    "lock_acquires",
    "barrier_episodes",
    # write-back / write buffer
    "slc_writebacks",
    "wb_coalesced",
)


class Counters:
    """A flat bag of integer event counters."""

    __slots__ = _FIELDS

    def __init__(self) -> None:
        for f in _FIELDS:
            setattr(self, f, 0)

    def as_dict(self) -> dict[str, int]:
        """Counter values keyed by name, in sorted key order.

        Sorted so every serialization (JSON exports, trace manifests,
        ``__repr__`` diffs) is stable regardless of declaration order.
        """
        return {f: getattr(self, f) for f in sorted(_FIELDS)}

    @property
    def read_miss_classified(self) -> int:
        return (
            self.read_miss_cold
            + self.read_miss_coherence
            + self.read_miss_conflict
            + self.read_miss_capacity
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        nz = {k: v for k, v in self.as_dict().items() if v}  # sorted via as_dict
        return f"Counters({nz})"
