"""Hierarchical (DDM-style) COMA machine.

The paper's flat bus-based COMA descends from the Data Diffusion Machine
(Hagersten, Landin & Haridi — the paper's reference [6]), which arranges
nodes under a *hierarchy of buses*: nodes share a group bus, and group
directories connect the groups over a top bus.  A miss first snoops the
group bus; only if no copy exists in the group does the group directory
forward the request over the top bus.

This machine reuses the entire flat protocol (attraction memories, E/O/S/I
states, accept-based replacement) and overrides only the interconnect:

* **remote path** — in-group fetches skip the top bus entirely (they cost
  a shorter latency and no top-bus bandwidth); cross-group fetches pay
  both buses plus a directory lookup each way;
* **replacement receivers** — in-group nodes are scanned first, so evicted
  owners stay close (the DDM's locality argument);
* **traffic metering** — ``machine.bus`` is the *top* bus (the global
  traffic the paper's figures plot); per-group buses are metered
  separately in ``group_buses``.

Group membership bookkeeping (who holds a copy below each directory) is
tracked exactly by the simulator's line table; directory lookup cost is
charged as one node-controller time per level.
"""

from __future__ import annotations

from repro.bus.sharedbus import SharedBus
from repro.bus.transaction import TxKind
from repro.coma.machine import ComaMachine
from repro.coma.node import ComaNode
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.mem.address import AddressSpace


class HierarchicalComaMachine(ComaMachine):
    """Two-level COMA: ``n_groups`` groups of nodes under a top bus."""

    def __init__(
        self, config: MachineConfig, space: AddressSpace, n_groups: int = 4
    ) -> None:
        super().__init__(config, space)
        if n_groups < 1 or config.n_nodes % n_groups:
            raise ConfigError(
                f"n_groups={n_groups} must divide n_nodes={config.n_nodes}"
            )
        self.n_groups = n_groups
        self.nodes_per_group = config.n_nodes // n_groups
        #: self.bus (from the base class) is the top bus; these are the
        #: per-group buses.
        self.group_buses = [
            SharedBus(config.timing, config.line_size, name=f"gbus{g}")
            for g in range(n_groups)
        ]
        self.buses = (self.bus, *self.group_buses)

    # ------------------------------------------------------------------
    def group_of(self, node_id: int) -> int:
        return node_id // self.nodes_per_group

    def same_group(self, a: ComaNode, b: ComaNode) -> bool:
        return self.group_of(a.id) == self.group_of(b.id)

    @property
    def top_bus_bytes(self) -> int:
        return self.bus.total_bytes

    @property
    def group_bus_bytes(self) -> int:
        return sum(b.total_bytes for b in self.group_buses)

    # ------------------------------------------------------------------
    # interconnect overrides
    # ------------------------------------------------------------------

    def _fetch_remote(self, kind: TxKind, local: ComaNode, owner: ComaNode,
                      line: int, now: int) -> int:
        lg = self.group_buses[self.group_of(local.id)]
        lg.record(kind, now, local.id, line)
        if self.same_group(local, owner):
            # Snooped within the group: owner answers over the group bus.
            return self._remote_fetch(local.nc, owner.nc, owner.dram, now,
                                      lg, "gbus_req", "gbus_reply")
        # The request also crosses the top bus and the owner's group bus.
        top = self.bus
        og = self.group_buses[self.group_of(owner.id)]
        top.record(kind, now, local.id, line)
        og.record(kind, now, local.id, line)
        # Group directory forwards over the top bus to the owner group.
        nc_busy = self._t_nc_busy
        nc_ns = self._t_nc
        port = self._port
        s = local.nc.acquire(now, nc_busy, port)
        t_out = s + nc_ns
        t_req = lg.phase(t_out, port)          # group bus request
        t_dir = t_req + nc_ns                  # local group directory lookup
        t_top = top.phase(t_dir, port)         # top bus request
        t_dir2 = t_top + nc_ns                 # remote group directory
        t_og = og.phase(t_dir2, port)          # owner group bus
        s = owner.nc.acquire(t_og, nc_busy, port)
        s = owner.dram.acquire(s + nc_ns, self._t_dram_busy, port)
        t_am = s + self._t_dram_lat
        t_og2 = og.phase(t_am, port)
        t_top2 = top.phase(t_og2, port)        # top bus reply
        t = lg.phase(t_top2 + nc_ns, port)     # back down the local group
        s = local.nc.acquire(t, nc_busy, port)
        obs = self.obs
        if obs is not None:
            obs.phase("nc_out", t_out)
            obs.phase("bus_arb", lg.arb_start(t_req))
            obs.phase("gbus_req", t_req)
            obs.phase("dir_lookup", t_dir)
            obs.phase("bus_arb", top.arb_start(t_top))
            obs.phase("tbus_req", t_top)
            obs.phase("dir_lookup", t_dir2)
            obs.phase("bus_arb", og.arb_start(t_og))
            obs.phase("gbus_req", t_og)
            obs.phase("remote_am", t_am)
            obs.phase("gbus_reply", t_og2)
            obs.phase("bus_arb", top.arb_start(t_top2))
            obs.phase("tbus_reply", t_top2)
            obs.phase("gbus_reply", t)
            obs.phase("nc_ret", s + nc_ns)
        return s + nc_ns

    def _upgrade_broadcast(self, node: ComaNode, line: int, t: int) -> int:
        """Erase goes up only as far as copies exist (DDM's point: the
        directories know whether anything outside the group has a copy)."""
        info = self.lines.maybe(line)
        lg = self.group_buses[self.group_of(node.id)]
        lg.record(TxKind.UPGRADE, t, node.id, line)
        t = lg.phase(t, self._port)
        holder_groups: set[int] = set()
        if info is not None:
            holders = set(info.sharers)
            holders.add(info.owner_node)
            holders.discard(node.id)
            holder_groups = {self.group_of(h) for h in holders}
            holder_groups.discard(self.group_of(node.id))
        if holder_groups:
            # The directories know which groups hold copies: the erase
            # crosses the top bus and descends only into those groups.
            self.bus.record(TxKind.UPGRADE, t, node.id, line)
            t = self.bus.phase(t, self._port)
            for g in holder_groups:
                self.group_buses[g].record(TxKind.UPGRADE, t, node.id, line)
        return t

    def charge_replacement(self, src, dst, now, data: bool, line: int = -1) -> None:
        lg = self.group_buses[self.group_of(src.id)]
        lg.record(TxKind.REPLACE_PROBE, now, src.id, line)
        t = lg.phase(now, self._port)
        if not data:
            return
        assert dst is not None
        if self.same_group(src, dst):
            lg.record(TxKind.REPLACE_DATA, t, src.id, line)
            t = lg.phase(t, self._port)
        else:
            dg = self.group_buses[self.group_of(dst.id)]
            for b, kind in (
                (self.bus, TxKind.REPLACE_PROBE),
                (self.bus, TxKind.REPLACE_DATA),
                (dg, TxKind.REPLACE_DATA),
            ):
                b.record(kind, t, src.id, line)
            t = self.bus.phase(t, self._port)
            t = dg.phase(t, self._port)
        s = dst.nc.acquire(t, self._t_nc_busy, self._port)
        dst.dram.acquire(s + self._t_nc, self._t_dram_busy, self._port)

    def node_scan_order(self, exclude_id: int, rotor: int):
        """In-group receivers first (rotating), then the rest — evicted
        owners stay close to their ejecting node when possible."""
        order = super().node_scan_order(exclude_id, rotor)
        g = self.group_of(exclude_id)
        return sorted(order, key=lambda n: self.group_of(n.id) != g)
