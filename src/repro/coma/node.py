"""One cluster node: the shared attraction memory plus its resources.

A node groups ``procs_per_node`` processors behind one node controller and
one attraction memory (Figure 1 of the paper).  The per-processor L1s and
SLCs live in :class:`repro.coma.machine.ComaMachine` (indexed by processor
id); this class owns everything that is per-*node*.
"""

from __future__ import annotations

from repro.common.config import CacheGeometry, MachineConfig
from repro.mem.soa import LineArray
from repro.mem.shadow import ShadowTags
from repro.timing.resource import Resource

#: Reasons a line left a node, for miss classification.
REMOVED_INVALIDATED = "inv"
REMOVED_EVICTED = "evict"


class ComaNode:
    """Per-node state: attraction memory, overflow buffer, resources,
    and the tracking needed for miss classification."""

    def __init__(
        self,
        node_id: int,
        am_geometry: CacheGeometry,
        config: MachineConfig,
    ) -> None:
        self.id = node_id
        self.am = LineArray(am_geometry)
        #: Victim overflow buffer: owner lines that could not be placed
        #: anywhere (machine-wide set conflict).  Maps line -> state.
        self.overflow: dict[int, int] = {}
        #: Non-inclusive hierarchies only: lines resident in local SLCs but
        #: absent from the AM.  Maps line -> [slc_mask, state].
        self.slc_resident: dict[int, list] = {}
        #: Node controller and AM DRAM as contended resources.
        self.nc = Resource(f"nc{node_id}")
        self.dram = Resource(f"dram{node_id}")
        #: Every line ever present in this node (cold-miss detection).
        self.ever: set[int] = set()
        #: Why a currently-absent line last left this node.
        self.removal_reason: dict[int, str] = {}
        #: Fully-associative shadow that classifies node read misses
        #: (a miss it would have hit is a conflict miss).
        self.shadow = ShadowTags(am_geometry.num_lines)

    def has_line(self, line: int) -> bool:
        """Node-level presence: AM, overflow buffer, or (non-inclusive
        hierarchies) a local SLC."""
        return line in self.am or line in self.overflow or line in self.slc_resident

    def note_present(self, line: int) -> None:
        self.ever.add(line)
        self.removal_reason.pop(line, None)

    def note_removed(self, line: int, reason: str) -> None:
        self.removal_reason[line] = reason

    def owned_lines_in_am(self) -> int:
        """Number of owner (E or O) lines held in the AM (tests/metrics)."""
        from repro.coma.states import EXCLUSIVE, OWNER

        return self.am.count_state(OWNER) + self.am.count_state(EXCLUSIVE)
