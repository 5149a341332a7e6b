"""A bus-based UMA (symmetric shared-memory) baseline.

The third point of the paper's architecture taxonomy (section 2 discusses
replacement behaviour "in a UMA or NUMA machine").  All main memory sits
behind the shared bus in interleaved central banks: an SLC miss always
crosses the bus, paying the remote latency, regardless of which processor
touched the page first.  Coherence is snooping MSI over the SLCs (the
directory object is simulator bookkeeping for O(sharers) invalidation, as
in the other machines).

Exposes the same ``read``/``write``/``rmw`` interface as ``ComaMachine``
and ``NumaMachine`` so :class:`repro.sim.Simulation` drives all three.
"""

from __future__ import annotations

from repro.bus.sharedbus import SharedBus
from repro.bus.transaction import TxKind
from repro.caches.l1 import L1Cache
from repro.caches.slc import SecondLevelCache
from repro.common.config import MachineConfig
from repro.mem.address import AddressSpace
from repro.numa.directory import Directory
from repro.timing.accounting import Counters
from repro.timing.resource import Resource

LEVEL_L1 = "l1"
LEVEL_SLC = "slc"
LEVEL_REMOTE = "remote"

#: Central memory is interleaved over this many banks.
N_BANKS = 4


class UmaMachine:
    """Symmetric bus-based multiprocessor with central memory banks."""

    def __init__(self, config: MachineConfig, space: AddressSpace) -> None:
        config._require_sized()
        self.config = config
        self.timing = config.timing
        self.space = space
        self.counters = Counters()
        self.bus = SharedBus(config.timing, config.line_size)
        self.directory = Directory()
        n = config.n_processors
        slc_geom = config.slc_geometry
        l1_geom = config.l1_geometry
        self.slcs = [SecondLevelCache(slc_geom) for _ in range(n)]
        self.l1s = [L1Cache(l1_geom) for _ in range(n)]
        self.slc_res = [Resource(f"slc{p}") for p in range(n)]
        self.banks = [Resource(f"bank{b}") for b in range(N_BANKS)]
        self._shift = config.line_shift
        self.now = 0
        self._bg = False  # posted-write background port selector
        #: The observation slot, as on the COMA machine: None or the
        #: sink ``Simulation.attach`` composed; one ``if`` per site.
        self.obs = None
        self.buses = (self.bus,)

    def hit_path(self) -> None:
        """No fused kernel hit path: every access goes through
        :meth:`read`/:meth:`write` (see ``ComaMachine.hit_path``)."""
        return None

    # ------------------------------------------------------------------
    def _ensure_page(self, addr: int, node_id: int) -> None:
        if self.space.page_of(addr) not in self.space.page_home:
            self.space.ensure_page(addr, node_id)
            self.counters.pages_allocated += 1

    def _memory_access(self, line: int, now: int) -> int:
        """Bus request, central bank access, bus reply."""
        tm = self.timing
        t = self.bus.phase(now, self._bg)
        bank = self.banks[line % N_BANKS]
        s = bank.acquire(t, tm.dram_busy_ns, self._bg)
        t = self.bus.phase(s + tm.dram_latency_ns, self._bg)
        return t + tm.nc_ns + tm.remote_overhead_ns

    # ------------------------------------------------------------------
    def read(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.now = now
        c = self.counters
        c.reads += 1
        line = addr >> self._shift
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, "r", line, addr)
        self._ensure_page(addr, self.config.node_of_proc(proc))
        if self.l1s[proc].lookup(line):
            c.l1_read_hits += 1
            done = now + self.timing.l1_hit_ns
            if obs is not None:
                obs.access(now, proc, "r", line, LEVEL_L1, done - now, addr)
            return done, LEVEL_L1
        start = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._bg)
        if self.slcs[proc].lookup(line):
            c.slc_read_hits += 1
            self.l1s[proc].fill(line)
            done = start + self.timing.slc_hit_ns
            if obs is not None:
                obs.phase("slc_wait", start)
                obs.access(now, proc, "r", line, LEVEL_SLC, done - now, addr)
            return done, LEVEL_SLC
        e = self.directory.entry(line)
        if e.owner is not None and e.owner != proc:
            e.owner = None  # dirty copy flushed by the snoop
        c.node_read_misses += 1
        self.bus.record(TxKind.READ_DATA)
        done = self._memory_access(line, now)
        e.sharers.add(proc)
        self._fill(proc, line)
        if obs is not None:
            obs.access(now, proc, "r", line, LEVEL_REMOTE, done - now, addr)
        return done, LEVEL_REMOTE

    def write(self, proc: int, addr: int, now: int) -> int:
        self.counters.writes += 1
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, "w", addr >> self._shift, addr)
        self._bg = True
        try:
            done, level = self._write_access(proc, addr, now)
        finally:
            self._bg = False
        if obs is not None:
            obs.access(now, proc, "w", addr >> self._shift, level,
                       done - now, addr)
        return done

    def rmw(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.counters.atomics += 1
        return self._stalling(proc, addr, now, "rmw")

    def write_stalling(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        """A write the processor waits for (sequential-consistency mode)."""
        self.counters.writes += 1
        return self._stalling(proc, addr, now, "w")

    def _stalling(self, proc: int, addr: int, now: int,
                  op: str) -> tuple[int, str]:
        """A write-class access the processor waits for, observed."""
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, op, addr >> self._shift, addr)
        done, level = self._write_access(proc, addr, now)
        if obs is not None:
            obs.access(now, proc, op, addr >> self._shift, level,
                       done - now, addr)
        return done, level

    def _write_access(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.now = now
        c = self.counters
        line = addr >> self._shift
        self._ensure_page(addr, self.config.node_of_proc(proc))
        e = self.directory.entry(line)
        slc_hit = line in self.slcs[proc]
        if e.owner == proc and slc_hit:
            s = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._bg)
            self.slcs[proc].mark_dirty(line)
            return s + self.timing.slc_hit_ns, LEVEL_SLC
        others = [p for p in e.sharers if p != proc]
        if others or (e.owner is not None and e.owner != proc):
            self.bus.record(TxKind.UPGRADE)
            now = self.bus.phase(now, self._bg)
            for p in others:
                self.slcs[p].invalidate(line)
                self.l1s[p].invalidate(line)
                c.invalidations_sent += 1
        e.sharers = {proc}
        e.owner = proc
        if slc_hit:
            s = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._bg)
            self.slcs[proc].mark_dirty(line)
            return s + self.timing.slc_hit_ns, LEVEL_SLC
        c.node_write_misses += 1
        self.bus.record(TxKind.READ_EXCL)
        done = self._memory_access(line, now)
        self._fill(proc, line)
        self.slcs[proc].mark_dirty(line)
        return done, LEVEL_REMOTE

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
                    # Dirty write-back crosses the bus to central memory.
                    self.bus.record(TxKind.REPLACE_DATA)
                    t = self.bus.phase(self.now, self._bg)
                    self.banks[vline % N_BANKS].acquire(
                        t, self.timing.dram_busy_ns
                    , self._bg)
                    self.counters.replacements += 1
                    self.counters.slc_writebacks += 1
        self.l1s[proc].fill(line)

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        cached: dict[int, set[int]] = {}
        for p, (slc, l1) in enumerate(zip(self.slcs, self.l1s)):
            slc.array.check_consistency()
            l1.check_consistency(slc.index)
            for line in slc.index:
                cached.setdefault(line, set()).add(p)
        for line, e in self.directory.items():
            assert e.sharers.issuperset(cached.get(line, set()))
