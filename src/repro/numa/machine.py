"""A CC-NUMA machine with the same processors, caches, bus and timing as
the COMA model — but conventional home-based main memory instead of
attraction memories.

Section 2 of the paper contrasts COMA's migration/replication with
NUMA/UMA behaviour; this baseline lets the benchmark suite show the
contrast quantitatively (COMA converts repeated remote accesses into
local AM hits after migration; NUMA pays the remote latency every time a
line falls out of the small SLC).

Model: pages are homed at the first-touch node.  SLCs cache lines under
an invalidation MSI protocol tracked by a full-map directory at the home.
A read that misses the SLC costs a local memory access (148 ns) when the
home is the local node, or a remote access (332 ns) otherwise; dirty
remote data is fetched via the owner with the same remote timing.  It
exposes the same ``read``/``write``/``rmw`` interface as ``ComaMachine``
(``write`` and ``rmw`` come from the shared
:class:`repro.common.machine.WriteFront`), so
:class:`repro.sim.Simulation` drives both.

:class:`repro.uma.machine.UmaMachine` is this machine with central
memory: it overrides the three home-policy hooks, :meth:`_miss`,
:meth:`_upgrade_hop` and :meth:`_write_back`, and shares every other
line of the access paths and the consistency check.
"""

from __future__ import annotations

from repro.bus.sharedbus import SharedBus
from repro.bus.transaction import TxKind
from repro.caches.l1 import L1Cache
from repro.caches.slc import SecondLevelCache
from repro.common.config import MachineConfig
from repro.common.errors import ProtocolError
from repro.common.machine import WriteFront
from repro.mem.address import AddressSpace
from repro.numa.directory import Directory
from repro.timing.accounting import Counters
from repro.timing.resource import DEMAND, Resource

LEVEL_L1 = "l1"
LEVEL_SLC = "slc"
LEVEL_AM = "am"       # local memory (reported in the AM slot for comparability)
LEVEL_REMOTE = "remote"


class NumaMachine(WriteFront):
    """Home-based CC-NUMA memory system."""

    def __init__(self, config: MachineConfig, space: AddressSpace) -> None:
        config._require_sized()
        self.config = config
        self.timing = config.timing
        self.space = space
        self.counters = Counters()
        self.bus = SharedBus(config.timing, config.line_size)
        self.directory = Directory()
        slc_geom = config.slc_geometry
        l1_geom = config.l1_geometry
        n = config.n_processors
        self.slcs = [SecondLevelCache(slc_geom) for _ in range(n)]
        self.l1s = [L1Cache(l1_geom) for _ in range(n)]
        self.slc_res = [Resource(f"slc{p}") for p in range(n)]
        self.nc = [Resource(f"nc{i}") for i in range(config.n_nodes)]
        self.dram = [Resource(f"dram{i}") for i in range(config.n_nodes)]
        self._shift = config.line_shift
        self._node_of = [config.node_of_proc(p) for p in range(n)]
        self.now = 0
        self._port = DEMAND  # the resource port of the access in flight
        #: Timing interned once (the TimingConfig properties recompute the
        #: bandwidth scaling on every read), as on the COMA machine.
        tm = config.timing
        self._t_nc = tm.nc_ns
        self._t_nc_busy = tm.nc_busy_ns
        self._t_dram_lat = tm.dram_latency_ns
        self._t_dram_busy = tm.dram_busy_ns
        self._t_remote = tm.remote_overhead_ns
        #: The observation slot, as on the COMA machine: None or the
        #: sink ``Simulation.attach`` composed; one ``if`` per site.
        self.obs = None
        self.buses = (self.bus,)

    def hit_path(self) -> None:
        """No fused kernel hit path: every access goes through
        :meth:`read`/:meth:`write` (see ``ComaMachine.hit_path``)."""
        return None

    # ------------------------------------------------------------------
    def _home_node(self, addr: int) -> int:
        page = self.space.page_of(addr)
        home = self.space.page_home.get(page)
        if home is None:
            raise ProtocolError(f"page of {addr:#x} not materialized")
        return home

    def _ensure_page(self, addr: int, node_id: int) -> None:
        if self.space.page_of(addr) not in self.space.page_home:
            self.space.ensure_page(addr, node_id)
            self.counters.pages_allocated += 1

    # -- home-policy hooks (overridden by the UMA machine) ---------------

    def _miss(self, node: int, line: int, addr: int, now: int, kind: TxKind,
              owner: int | None) -> tuple[int, str]:
        """Serve an SLC miss from memory; ``owner`` is the processor
        holding the line dirty elsewhere (reads only), else None.

        Dirty data is fetched through the owner's node; otherwise the
        page's home serves it, from local DRAM or across the bus.
        """
        if owner is not None:
            home = self._node_of[owner]
        else:
            home = self._home_node(addr)
            if home == node:
                return (self._node_access(self.nc[node], self.dram[node], now),
                        LEVEL_AM)
        t = self._remote_fetch(self.nc[node], self.nc[home], self.dram[home],
                               now, self.bus, "bus_req", "bus_reply"
                               ) + self._t_dram_lat
        if self.obs is not None:
            self.obs.phase("fill_dram", t)
        self.bus.record(kind, self.now, node, line)
        return t + self._t_remote, LEVEL_REMOTE

    def _upgrade_hop(self, node: int, now: int) -> int:
        """The invalidation round's trip out through the node controller
        and across the bus; returns when it completes."""
        s = self.nc[node].acquire(now, self._t_nc_busy, self._port)
        now = self.bus.phase(s + self._t_nc, self._port)
        if self.obs is not None:
            self.obs.phase("nc_out", s + self._t_nc)
            self.obs.phase("upgrade_bus", now)
        return now

    def _write_back(self, proc: int, vline: int) -> None:
        """A dirty SLC victim travels to its home's DRAM, across the bus
        when the home is remote."""
        node = self._node_of[proc]
        vhome = self.space.page_home.get(
            vline * self.config.line_size // self.space.page_size
        )
        if vhome is not None and vhome != node:
            self.bus.record(TxKind.REPLACE_DATA, self.now, node, vline)
            self.bus.phase(self.now, self._port)
            self.counters.replacements += 1
        self.dram[vhome if vhome is not None else 0].acquire(
            self.now, self._t_dram_busy, self._port)

    # ------------------------------------------------------------------
    def read(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.now = now
        c = self.counters
        c.reads += 1
        line = addr >> self._shift
        node = self._node_of[proc]
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, "r", line, addr)
        self._ensure_page(addr, node)
        if self.l1s[proc].lookup(line):
            c.l1_read_hits += 1
            done = now + self.timing.l1_hit_ns
            if obs is not None:
                obs.access(now, proc, "r", line, LEVEL_L1, done - now, addr)
            return done, LEVEL_L1
        start = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._port)
        if self.slcs[proc].lookup(line):
            c.slc_read_hits += 1
            self.l1s[proc].fill(line)
            done = start + self.timing.slc_hit_ns
            if obs is not None:
                obs.phase("slc_wait", start)
                obs.access(now, proc, "r", line, LEVEL_SLC, done - now, addr)
            return done, LEVEL_SLC
        e = self.directory.entry(line)
        owner = e.owner
        if owner == proc:
            owner = None
        elif owner is not None:
            e.owner = None  # dirty elsewhere: both copies end shared/clean
        done, level = self._miss(node, line, addr, now, TxKind.READ_DATA, owner)
        if level == LEVEL_AM:
            c.am_read_hits += 1
        else:
            c.node_read_misses += 1
        e.sharers.add(proc)
        self._fill(proc, line)
        if obs is not None:
            obs.access(now, proc, "r", line, level, done - now, addr)
        return done, level

    def _write_access(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.now = now
        c = self.counters
        line = addr >> self._shift
        node = self._node_of[proc]
        self._ensure_page(addr, node)
        e = self.directory.entry(line)
        slc_hit = line in self.slcs[proc]

        if e.owner == proc and slc_hit:
            s = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._port)
            self.slcs[proc].mark_dirty(line)
            return s + self.timing.slc_hit_ns, LEVEL_SLC

        # Need exclusivity: invalidate every other cached copy.
        others = [p for p in e.sharers if p != proc]
        if others or (e.owner is not None and e.owner != proc):
            self.bus.record(TxKind.UPGRADE, now, node, line)
            now = self._upgrade_hop(node, now)
            for p in others:
                self.slcs[p].invalidate(line)
                self.l1s[p].invalidate(line)
                c.invalidations_sent += 1
        e.sharers = {proc}
        e.owner = proc

        if slc_hit:
            s = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._port)
            self.slcs[proc].mark_dirty(line)
            return s + self.timing.slc_hit_ns, LEVEL_SLC
        c.node_write_misses += 1
        done, level = self._miss(node, line, addr, now, TxKind.READ_EXCL, None)
        self._fill(proc, line)
        self.slcs[proc].mark_dirty(line)
        return done, level

    # ------------------------------------------------------------------
    def _fill(self, proc: int, line: int) -> None:
        victim = self.slcs[proc].fill(line)
        if victim >= 0:
            vline = victim >> 1
            self.l1s[proc].invalidate(vline)
            ve = self.directory.maybe(vline)
            if ve is not None:
                ve.sharers.discard(proc)
                if ve.owner == proc:
                    ve.owner = None
                    self._write_back(proc, vline)
                    self.counters.slc_writebacks += 1
        self.l1s[proc].fill(line)

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Directory vs cache cross-check (tests)."""
        cached: dict[int, set[int]] = {}
        for p, (slc, l1) in enumerate(zip(self.slcs, self.l1s)):
            slc.array.check_consistency()
            l1.check_consistency(slc.index)
            for line in slc.index:
                cached.setdefault(line, set()).add(p)
        for line, e in self.directory.items():
            assert e.sharers.issuperset(cached.get(line, set())), (
                f"line {line:#x}: cached copies missing from directory"
            )
            if e.owner is not None:
                assert e.owner in e.sharers or line not in cached, (
                    f"line {line:#x}: owner {e.owner} not a sharer"
                )
