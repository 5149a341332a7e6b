"""Contended hardware resources with next-free-time semantics.

The memory-system simulator "models contention effects for the node
controllers, attraction memory DRAMs, second-level caches and the shared
bus" (paper section 3.2).  Each such unit is a :class:`Resource`: a request
arriving at time ``t`` on a port begins service at ``max(t, free[port])``
and occupies that port for its occupancy time.  Because the simulation kernel advances
processors in global time order, requests reach each resource in
non-decreasing time order and this models a FIFO queue exactly.
"""

from __future__ import annotations

#: Port indices into :attr:`Resource.free`: the demand port (reads,
#: synchronizing writes) and the posted-write port (write-buffer drains).
DEMAND = 0
POSTED = 1


class Resource:
    """One contended unit (an SLC, a node controller, a DRAM bank, a bus).

    ``free[port]`` is the next-free time of each of the two service
    timelines, indexed by :data:`DEMAND` and :data:`POSTED`.  Demand
    accesses never queue behind posted writes — the read-bypass that every
    real memory system implements — while posted writes still serialize
    among themselves and their completion times reflect back-pressure
    (write-buffer-full stalls, release drains).  ``busy_ns`` and ``uses``
    count both ports.
    """

    __slots__ = ("name", "free", "busy_ns", "uses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.free = [0, 0]
        self.busy_ns = 0
        self.uses = 0

    def acquire(self, now: int, occupancy_ns: int, port: int = DEMAND) -> int:
        """Occupy ``port`` for ``occupancy_ns`` starting no earlier than
        ``now``; returns the service *start* time (>= now)."""
        free = self.free
        start = free[port]
        if start < now:
            start = now
        free[port] = start + occupancy_ns
        self.busy_ns += occupancy_ns
        self.uses += 1
        return start

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the resource was busy."""
        return self.busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, free={self.free}, uses={self.uses})"
