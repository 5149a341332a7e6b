"""A bus-based UMA (symmetric shared-memory) baseline.

The third point of the paper's architecture taxonomy (section 2 discusses
replacement behaviour "in a UMA or NUMA machine").  All main memory sits
behind the shared bus in interleaved central banks: an SLC miss always
crosses the bus, paying the remote latency, regardless of which processor
touched the page first.  Coherence is snooping MSI over the SLCs (the
directory object is simulator bookkeeping for O(sharers) invalidation, as
in the other machines).

UMA is a NUMA with a central-memory home policy: :class:`UmaMachine`
subclasses :class:`repro.numa.machine.NumaMachine` and overrides only its
three home-policy hooks (miss service, the upgrade's hop and the
dirty-victim write-back).  The access paths, the consistency check and
the shared write front (:class:`repro.common.machine.WriteFront`) are
NUMA's; the node controllers and DRAM ports it builds stay idle.
"""

from __future__ import annotations

from repro.bus.transaction import TxKind
from repro.common.config import MachineConfig
from repro.mem.address import AddressSpace
from repro.numa.machine import LEVEL_REMOTE, NumaMachine
from repro.timing.resource import Resource

#: Central memory is interleaved over this many banks.
N_BANKS = 4


class UmaMachine(NumaMachine):
    """Symmetric bus-based multiprocessor with central memory banks."""

    def __init__(self, config: MachineConfig, space: AddressSpace) -> None:
        super().__init__(config, space)
        self.banks = [Resource(f"bank{b}") for b in range(N_BANKS)]

    def _miss(self, node: int, line: int, addr: int, now: int, kind: TxKind,
              owner: int | None) -> tuple[int, str]:
        """Bus request, interleaved central bank, bus reply.  A dirty copy
        in another cache is flushed by the snoop, so ``owner`` costs
        nothing extra."""
        bus = self.bus
        bus.record(kind, self.now, node, line)
        t_req = bus.phase(now, self._port)
        s = self.banks[line % N_BANKS].acquire(t_req, self._t_dram_busy,
                                               self._port)
        t_am = s + self._t_dram_lat
        t = bus.phase(t_am, self._port)
        obs = self.obs
        if obs is not None:
            obs.phase("bus_arb", bus.arb_start(t_req))
            obs.phase("bus_req", t_req)
            obs.phase("remote_am", t_am)
            obs.phase("bus_arb", bus.arb_start(t))
            obs.phase("bus_reply", t)
            obs.phase("nc_ret", t + self._t_nc)
        return t + self._t_nc + self._t_remote, LEVEL_REMOTE

    def _upgrade_hop(self, node: int, now: int) -> int:
        """The invalidation round takes the bus phase alone."""
        t = self.bus.phase(now, self._port)
        if self.obs is not None:
            self.obs.phase("bus_arb", self.bus.arb_start(t))
            self.obs.phase("upgrade_bus", t)
        return t

    def _write_back(self, proc: int, vline: int) -> None:
        """A dirty SLC victim crosses the bus to its central bank."""
        self.bus.record(TxKind.REPLACE_DATA, self.now, self._node_of[proc], vline)
        t = self.bus.phase(self.now, self._port)
        self.banks[vline % N_BANKS].acquire(t, self._t_dram_busy, self._port)
        self.counters.replacements += 1
