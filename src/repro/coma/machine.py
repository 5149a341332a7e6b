"""The bus-based COMA memory system (paper sections 2-3).

:class:`ComaMachine` wires together the per-processor L1s and SLCs, the
per-node attraction memories with their node controllers and DRAM banks,
the global snooping bus, the four-state invalidation protocol and the
accept-based replacement engine.  The simulation kernel drives it through
three entry points:

* :meth:`ComaMachine.read`  — processor load; returns completion time and
  the level that satisfied it (``l1``/``slc``/``am``/``remote``);
* :meth:`ComaMachine.write` — one write drained from a write buffer;
* :meth:`ComaMachine.rmw`   — atomic read-modify-write (lock/barrier ops).

``write`` and ``rmw`` are inherited from
:class:`repro.common.machine.WriteFront`, which every machine shares;
this module supplies the ``_write_access`` they bracket.

:meth:`ComaMachine.hit_path` hands the kernel the arrays it needs to
retire L1 read hits and writes to owned SLC-resident lines itself,
without calling :meth:`read`/:meth:`write`.

All times are integer nanoseconds.  The machine never looks at data
values — workloads keep real data on the Python side — so coherence here
is about *where copies live*, which is all the paper's metrics need.

At build time the machine binds what its per-access paths read as plain
ints: the timing constants from ``config.timing`` (``_t_*``), the
resolutions it needs from the protocol table in :mod:`repro.coma.protocol`
(``_st_degrade``, ``_inj_*``) and the interned victim policy.  Line state
is addressed as way numbers into the attraction memory's arrays-of-structs.
``coma-sim verify``'s cross-check (C001/C002) drives this machine against
the declarative table, so the executable protocol cannot silently diverge
from its source.  Functions marked ``@hotpath`` are held to the HOT
lint rules (no interpreted dispatch, no per-access allocation).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.bus.sharedbus import SharedBus
from repro.bus.transaction import TxKind
from repro.caches.l1 import L1Cache
from repro.caches.slc import SLC_PRESENT, SecondLevelCache
from repro.coma.linetable import LOC_AM, LOC_OVERFLOW, LOC_SLC, LineTable
from repro.coma.node import (
    REMOVED_EVICTED,
    REMOVED_INVALIDATED,
    ComaNode,
)
from repro.coma.protocol import TRANSITIONS, resolved_next, validate_table
from repro.coma.replacement import ReplacementEngine
from repro.coma.states import (
    EXCLUSIVE,
    INVALID,
    OWNER,
    SHARED,
    is_owning,
    state_name,
)
from repro.common.config import MachineConfig
from repro.common.errors import ProtocolError
from repro.common.hotpath import hotpath
from repro.common.machine import WriteFront
from repro.mem import soa
from repro.mem.address import AddressSpace
from repro.timing.accounting import Counters
from repro.timing.resource import DEMAND, Resource

# repro.mem.soa cannot import repro.coma (the caches load it while this
# package is still initializing), so it repeats the two state codes its
# victim policies read.  Tie them together where both sides are loaded.
assert soa.INVALID == INVALID and soa._SHARED == SHARED, (
    "repro.mem.soa state encoding diverged from repro.coma.states"
)

#: Levels reported to the processor model for stall accounting.
LEVEL_L1 = "l1"
LEVEL_SLC = "slc"
LEVEL_AM = "am"
LEVEL_REMOTE = "remote"


class HitPath(NamedTuple):
    """What the simulation kernel's fused hit path needs, pre-bound.

    ``procs[p]`` is processor ``p``'s tuple ``(l1_tags, slc, slc_index,
    slc_dirty, slc_lru, slc_port, slc_free, am, am_index, am_state,
    am_lru, shadow)``: the L1 tag vector, the SLC and node-AM line arrays
    with their raw list columns, the SLC's :class:`Resource` and its
    ``free`` list, and the node's shadow tags.  Bare and observed runs
    take the same fused branches: the kernel reports each fused event to
    an attached observer itself.  See :meth:`ComaMachine.hit_path`.
    """

    procs: list
    l1_sets: int
    l1_ns: int
    slc_ns: int
    slc_occ_ns: int
    #: The one AM state in which a write completes with no protocol action.
    exclusive: int


class ComaMachine(WriteFront):
    """A 16-processor (configurable) cluster-based COMA memory system."""

    def __init__(self, config: MachineConfig, space: AddressSpace) -> None:
        config._require_sized()
        if space.page_size != config.page_size:
            raise ProtocolError(
                f"address space page size {space.page_size} != config {config.page_size}"
            )
        self.config = config
        self.timing = config.timing
        self.space = space
        self.counters = Counters()
        self.lines = LineTable()
        #: The line table's dict, for the read miss's in-line lookup.
        self._infos = self.lines._lines
        self.bus = SharedBus(config.timing, config.line_size)
        am_geom = config.am_geometry
        self.nodes: list[ComaNode] = [
            ComaNode(i, am_geom, config) for i in range(config.n_nodes)
        ]
        slc_geom = config.slc_geometry
        l1_geom = config.l1_geometry
        self.slcs: list[SecondLevelCache] = [
            SecondLevelCache(slc_geom) for _ in range(config.n_processors)
        ]
        self.l1s: list[L1Cache] = [L1Cache(l1_geom) for _ in range(config.n_processors)]
        self.slc_res: list[Resource] = [
            Resource(f"slc{p}") for p in range(config.n_processors)
        ]
        # A timing config that leaves a bus action's parameter unset or
        # negative would miscount simulated time: refuse it at build.
        validate_table(TRANSITIONS, timing=config.timing)
        tm = config.timing
        self._t_l1 = tm.l1_hit_ns
        self._t_slc = tm.slc_hit_ns
        self._t_slc_occ = tm.slc_occupancy_ns
        self._t_nc = tm.nc_ns
        self._t_nc_busy = tm.nc_busy_ns
        self._t_dram_lat = tm.dram_latency_ns
        self._t_dram_busy = tm.dram_busy_ns
        self._t_remote = tm.remote_overhead_ns
        #: Supplier-side degradation on a snooped remote read (E -> O).
        self._st_degrade = resolved_next(EXCLUSIVE, "remote_read", False)
        if config.am_victim_policy == "lru":
            self._victim_mode = soa.VICTIM_LRU
        elif config.inclusive:
            self._victim_mode = soa.VICTIM_SHARED_FIRST
        else:
            self._victim_mode = soa.VICTIM_NONINCLUSIVE
        #: (no-surviving-sharers, sharers-survive) inject resolutions.
        self._inj_invalid = (resolved_next(INVALID, "inject", False),
                             resolved_next(INVALID, "inject", True))
        self._inj_shared = (resolved_next(SHARED, "inject", False),
                            resolved_next(SHARED, "inject", True))
        self._inclusive = config.inclusive
        self._ppn = config.procs_per_node
        self._page_home = space.page_home
        self._page_size = space.page_size
        self.repl = ReplacementEngine(self)
        self._shift = config.line_shift
        self._node_of = [config.node_of_proc(p) for p in range(config.n_processors)]
        #: L1 probes are opened in line: the tag vectors are pre-bound
        #: per processor.
        self._l1_nsets = l1_geom.num_sets
        self._l1_tags = [l1.tags for l1 in self.l1s]
        #: Time of the operation currently being processed; used by
        #: background actions (back-invalidations, relocations) so they
        #: charge resource occupancy at a sensible instant.
        self.now = 0
        #: The resource port of the access in flight (see ``WriteFront``).
        self._port = DEMAND
        #: The observation slot: None (the default) or the one
        #: :class:`repro.obs.sink.TraceSink` that ``Simulation.attach``
        #: composed (a span builder when span trees are on).  Every
        #: emission site is one ``if obs is not None``, allocation-free
        #: when nothing is attached.
        self.obs = None
        #: Every bus this machine meters; each shares the ``obs`` slot.
        self.buses = (self.bus,)

    def hit_path(self) -> HitPath:
        """Bindings for the kernel's fused hit path.

        With them the kernel retires two events without calling
        :meth:`read` or :meth:`write`: a read that hits the L1, and a
        posted write to a line that is EXCLUSIVE in the node's AM and
        present in the writer's SLC.  Both have exactly the effects the
        full methods would have (``tests/test_fastpath.py`` runs them in
        lockstep), and an observer in the ``obs`` slot sees each as one
        :meth:`~repro.obs.sink.TraceSink.hit` call, the ``begin`` +
        ``access`` pair these methods emit.
        """
        procs = []
        for p in range(self.config.n_processors):
            slc = self.slcs[p].array
            node = self.nodes[self._node_of[p]]
            am = node.am
            res = self.slc_res[p]
            procs.append((
                self._l1_tags[p],
                slc, slc.index, slc.dirty_a, slc.lru_a, res, res.free,
                am, am.index, am.state_a, am.lru_a, node.shadow,
            ))
        return HitPath(procs, self._l1_nsets, self._t_l1,
                       self._t_slc, self._t_slc_occ, EXCLUSIVE)

    # ------------------------------------------------------------------
    # processor-facing operations
    # ------------------------------------------------------------------

    @hotpath
    def read(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        """Processor ``proc`` loads ``addr`` at time ``now``.

        Returns ``(completion_time, level)``.
        """
        self.now = now
        c = self.counters
        c.reads += 1
        obs = self.obs
        line = addr >> self._shift
        if obs is not None:
            obs.begin(now, proc, "r", line, addr)
        if (addr // self._page_size) not in self._page_home:
            self._materialize_page(addr, self.nodes[self._node_of[proc]], now)

        if self._l1_tags[proc][line % self._l1_nsets] == line:
            c.l1_read_hits += 1
            done = now + self._t_l1
            if obs is not None:
                obs.access(now, proc, "r", line, LEVEL_L1, done - now, addr)
            return done, LEVEL_L1

        node = self.nodes[self._node_of[proc]]
        shadow = node.shadow
        slc = self.slcs[proc]
        r = self.slc_res[proc]
        occ = self._t_slc_occ
        free = r.free
        port = self._port
        start = free[port]
        if start < now:
            start = now
        free[port] = start + occ
        r.busy_ns += occ
        r.uses += 1
        sw = slc.index.get(line)
        if sw is not None:
            sa = slc.array
            sa.tick += 1
            sa.lru_a[sw] = sa.tick
            c.slc_read_hits += 1
            self._l1_tags[proc][line % self._l1_nsets] = line
            done = start + self._t_slc
            if obs is not None:
                obs.phase("slc_wait", start)
                obs.access(now, proc, "r", line, LEVEL_SLC, done - now, addr)
            return done, LEVEL_SLC

        # Node level: the attraction memory (or the overflow buffer).
        am = node.am
        way = am.index.get(line)
        if way is not None:
            done = self._node_access(node.nc, node.dram, now)
            am.tick += 1
            am.lru_a[way] = am.tick
            shadow.access(line)
            c.am_read_hits += 1
            self._fill_hierarchy(proc, node, line, way)
            if obs is not None:
                obs.access(now, proc, "r", line, LEVEL_AM, done - now, addr)
            return done, LEVEL_AM
        if line in node.overflow:
            done = self._node_access(node.nc, node.dram, now)
            shadow.access(line)
            c.overflow_read_hits += 1
            if obs is not None:
                obs.access(now, proc, "r", line, LEVEL_AM, done - now, addr)
            return done, LEVEL_AM
        if not self._inclusive:
            sr = node.slc_resident.get(line)
            if sr is not None:
                # Another local SLC supplies the line through the node
                # controller (intra-node cache-to-cache).
                done = self._node_access(node.nc, node.dram, now)
                shadow.access(line)
                c.slc_neighbor_hits += 1
                self._fill_slc_resident(proc, node, line, sr)
                if obs is not None:
                    obs.access(now, proc, "r", line, LEVEL_AM, done - now,
                               addr)
                return done, LEVEL_AM

        # Read node miss, in line (tests/test_lockstep.py runs it beside
        # the methods): classify it, update the shadow tags, fetch, degrade
        # an AM supplier E -> O, take a free way or drop a Shared victim
        # under inclusion, fill the way and hold the local DRAM.
        c.node_read_misses += 1
        removal = node.removal_reason
        tags = shadow._lines
        seen = line in tags
        if line not in node.ever:
            c.read_miss_cold += 1
        elif removal.get(line) == REMOVED_INVALIDATED:
            c.read_miss_coherence += 1
        elif seen:
            c.read_miss_conflict += 1
        else:
            c.read_miss_capacity += 1
        if seen:
            tags.move_to_end(line)
        else:
            tags[line] = None
            if len(tags) > shadow.capacity:
                tags.popitem(last=False)
        infos = self._infos
        info = infos.get(line)
        if info is None:
            raise ProtocolError(f"line {line:#x} accessed before materialization")
        owner = self.nodes[info.owner_node]
        t = self._fetch_remote(TxKind.READ_DATA, node, owner, line, now)

        # Supplier side: E degrades to O (a shared copy now exists).
        oam = owner.am
        ow = oam.index.get(line)
        if ow is None:
            self._owner_to_shared_state(owner, line, info)
        elif oam.state_a[ow] == EXCLUSIVE:
            oam.state_a[ow] = self._st_degrade
            if obs is not None:
                obs.transition(now, owner.id, line, "remote_read", "E",
                               state_name(self._st_degrade))

        # make_room: the first free way, else under the default victim
        # policy (inclusive) the least recently used Shared way.
        index = am.index
        line_a = am.line_a
        state_a = am.state_a
        lru_a = am.lru_a
        aux_a = am.aux_a
        way = (line % am.num_sets) * am.assoc
        end = way + am.assoc
        shared = -1
        while way < end:
            st = state_a[way]
            if not st:
                break
            if st == SHARED and (shared < 0 or lru_a[way] < lru_a[shared]):
                shared = way
            way += 1
        else:
            if shared >= 0 and self._victim_mode == soa.VICTIM_SHARED_FIRST:
                # drop_shared_copy and strip_node_copy; the fill below
                # overwrites the way's columns.
                way = shared
                victim = line_a[way]
                infos[victim].sharers.discard(node.id)
                c.shared_drops += 1
                if obs is not None:
                    obs.transition(now, node.id, victim, "drop", "S", "I")
                if aux_a[way]:
                    self._invalidate_mask(node, victim, aux_a[way])
                removal[victim] = REMOVED_EVICTED
                del index[victim]
            else:
                way = self.repl.make_room(node, line, t, mandatory=False)
                if way is None:
                    # Uncached read: data delivered, no local copy retained.
                    done = t + self._t_remote
                    if obs is not None:
                        obs.access(now, proc, "r", line, LEVEL_REMOTE,
                                   done - now, addr)
                    return done, LEVEL_REMOTE
        # fill_way (the way is invalid), note_present, the DRAM hold.
        line_a[way] = line
        state_a[way] = SHARED
        am.dirty_a[way] = 0
        aux_a[way] = 0
        index[line] = way
        tick = am.tick + 1
        am.tick = tick
        lru_a[way] = tick
        node.ever.add(line)
        removal.pop(line, None)
        info.sharers.add(node.id)
        if obs is not None:
            obs.transition(t, node.id, line, "fill", "I", "S")
        dram = node.dram
        busy = self._t_dram_busy
        df = dram.free
        s = df[port]
        if s < t:
            s = t
        df[port] = s + busy
        dram.busy_ns += busy
        dram.uses += 1
        done = s + self._t_dram_lat + self._t_remote
        self._fill_hierarchy(proc, node, line, way)
        if obs is not None:
            obs.phase("fill_dram", s + self._t_dram_lat)
            obs.access(now, proc, "r", line, LEVEL_REMOTE, done - now, addr)
        return done, LEVEL_REMOTE

    # ------------------------------------------------------------------
    # write machinery
    # ------------------------------------------------------------------

    @hotpath
    def _write_access(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.now = now
        c = self.counters
        line = addr >> self._shift
        obs = self.obs
        if (addr // self._page_size) not in self._page_home:
            self._materialize_page(addr, self.nodes[self._node_of[proc]], now)

        # The write-through, no-write-allocate L1 has nothing to update.
        node = self.nodes[self._node_of[proc]]
        shadow = node.shadow
        slc = self.slcs[proc]
        slc_hit = line in slc.index
        info = self.lines.get(line)

        am = node.am
        way = am.index.get(line)
        sr = None
        if way is not None:
            local_state = am.state_a[way]
            where = LOC_AM
        elif line in node.overflow:
            local_state = node.overflow[line]
            where = LOC_OVERFLOW
            way = -1
        else:
            sr = node.slc_resident.get(line) if not self._inclusive else None
            local_state = sr[1] if sr is not None else INVALID
            where = LOC_SLC
            way = -1

        if local_state == EXCLUSIVE:
            shadow.access(line)
            if way >= 0:
                am.tick += 1
                am.lru_a[way] = am.tick
            return self._local_write_finish(proc, node, line, way, sr, slc_hit, now)

        if local_state == OWNER or local_state == SHARED:
            # Upgrade: erase every other copy, take exclusive ownership.
            c.upgrades += 1
            s = node.nc.acquire(now, self._t_nc_busy, self._port)
            t = self._upgrade_broadcast(node, line, s + self._t_nc)
            self._invalidate_others(line, node)
            if obs is not None:
                obs.phase("nc_out", s + self._t_nc)
                obs.phase("upgrade_bus", t)
                obs.transition(t, node.id, line, "upgrade",
                               state_name(local_state), "E")
            if way >= 0:
                am.state_a[way] = EXCLUSIVE
                am.tick += 1
                am.lru_a[way] = am.tick
            elif where == LOC_OVERFLOW:
                node.overflow[line] = EXCLUSIVE
            else:
                assert sr is not None
                sr[1] = EXCLUSIVE
            info.owner_node = node.id
            info.owner_loc = where
            # One clear() per exclusive branch; hoisting would tax the
            # branches that never touch it.
            info.sharers.clear()  # noqa: HOT003
            shadow.access(line)
            return self._local_write_finish(proc, node, line, way, sr, slc_hit, t)

        # Write node miss: read-exclusive on the bus.
        c.node_write_misses += 1
        c.read_exclusive += 1
        owner = self.nodes[info.owner_node]
        t = self._fetch_remote(TxKind.READ_EXCL, node, owner, line, now)
        self._invalidate_others(line, node)
        way = self.repl.make_room(node, line, t, mandatory=True)
        assert way is not None, "mandatory make_room returned None"
        if obs is not None:
            obs.transition(t, node.id, line, "read_exclusive", "I", "E")
        am.fill_way(way, line, EXCLUSIVE)
        node.note_present(line)
        info.owner_node = node.id
        info.owner_loc = LOC_AM
        info.sharers.clear()
        shadow.access(line)
        s = node.dram.acquire(t, self._t_dram_busy, self._port)
        t = s + self._t_dram_lat
        self._fill_hierarchy(proc, node, line, way)
        self.slcs[proc].mark_dirty(line)
        if obs is not None:
            obs.phase("fill_dram", t)
        return t + self._t_remote, LEVEL_REMOTE

    @hotpath
    def _local_write_finish(
        self,
        proc: int,
        node: ComaNode,
        line: int,
        way: int,
        sr: Optional[list],
        slc_hit: bool,
        t: int,
    ) -> tuple[int, str]:
        """Complete a write whose node already holds exclusive ownership.

        ``way`` is the line's way in the node's AM, or -1 when the owner
        copy sits in the overflow buffer or (non-inclusive) a local SLC.
        """
        slc = self.slcs[proc]
        if slc_hit:
            s = self.slc_res[proc].acquire(t, self._t_slc_occ, self._port)
            slc.mark_dirty(line)
            return s + self._t_slc, LEVEL_SLC
        if way >= 0:
            done = self._node_access(node.nc, node.dram, t)
            self._fill_hierarchy(proc, node, line, way)
            slc.mark_dirty(line)
            return done, LEVEL_AM
        if sr is not None:
            # Fetched from a neighbour SLC within the node (non-inclusive).
            done = self._node_access(node.nc, node.dram, t)
            self._fill_slc_resident(proc, node, line, sr)
            slc.mark_dirty(line)
            return done, LEVEL_AM
        # Owner copy parked in overflow: write at AM level, no SLC fill.
        return self._node_access(node.nc, node.dram, t), LEVEL_AM

    # ------------------------------------------------------------------
    # protocol helpers
    # ------------------------------------------------------------------

    def _owner_to_shared_state(self, owner: ComaNode, line: int, info) -> None:
        """After supplying a read copy, the owner snoops ``remote_read``
        and degrades per the protocol table (E -> O; O stays O)."""
        degraded = self._st_degrade
        changed = False
        am = owner.am
        ow = am.index.get(line)
        if ow is not None:
            if am.state_a[ow] == EXCLUSIVE:
                am.state_a[ow] = degraded
                changed = True
        elif line in owner.overflow:
            if owner.overflow[line] == EXCLUSIVE:
                owner.overflow[line] = degraded
                changed = True
        elif line in owner.slc_resident:
            if owner.slc_resident[line][1] == EXCLUSIVE:
                owner.slc_resident[line][1] = degraded
                changed = True
        else:
            raise ProtocolError(
                f"owner node {owner.id} does not hold line {line:#x}"
            )
        if changed and self.obs is not None:
            self.obs.transition(self.now, owner.id, line, "remote_read",
                                  "E", state_name(degraded))

    def _invalidate_others(self, line: int, writer: ComaNode) -> None:
        """Erase every copy of ``line`` outside ``writer`` (upgrade or
        read-exclusive).  The line table is updated by the caller."""
        info = self.lines.get(line)
        c = self.counters
        for sid in list(info.sharers):
            if sid == writer.id:
                continue
            n = self.nodes[sid]
            w = n.am.index.get(line)
            if w is not None:
                self.strip_node_copy(n, w, REMOVED_INVALIDATED)
            else:
                sr = n.slc_resident.pop(line, None)
                if sr is None:
                    raise ProtocolError(f"sharer {sid} lost line {line:#x}")
                self._invalidate_mask(n, line, sr[0])
                n.note_removed(line, REMOVED_INVALIDATED)
                n.shadow.remove(line)
            c.invalidations_sent += 1
            if self.obs is not None:
                self.obs.transition(self.now, sid, line, "invalidate",
                                    "S", "I")
        if info.owner_node != writer.id:
            onode = self.nodes[info.owner_node]
            if info.owner_loc == LOC_AM:
                w = onode.am.index.get(line)
                if w is None:
                    raise ProtocolError(f"owner {onode.id} lost line {line:#x}")
                prev = onode.am.state_a[w]
                self.strip_node_copy(onode, w, REMOVED_INVALIDATED)
            elif info.owner_loc == LOC_OVERFLOW:
                prev = onode.overflow.pop(line)
                onode.note_removed(line, REMOVED_INVALIDATED)
                onode.shadow.remove(line)
            else:  # LOC_SLC
                sr = onode.slc_resident.pop(line)
                prev = sr[1]
                self._invalidate_mask(onode, line, sr[0])
                onode.note_removed(line, REMOVED_INVALIDATED)
                onode.shadow.remove(line)
            c.invalidations_sent += 1
            if self.obs is not None:
                self.obs.transition(self.now, onode.id, line, "invalidate",
                                    state_name(prev), "I")

    def drop_shared_copy(self, node: ComaNode, way: int) -> None:
        """Silently drop the Shared replica held in ``way`` of ``node``'s
        AM (safe: an owner exists elsewhere).

        In a non-inclusive hierarchy, local SLC copies keep the node a
        sharer: only the AM way is surrendered.
        """
        am = node.am
        assert am.state_a[way] == SHARED
        line = am.line_a[way]
        aux = am.aux_a[way]
        if not self._inclusive and aux:
            node.slc_resident[line] = [aux, SHARED]
            am.aux_a[way] = 0
            am.invalidate_way(way)
            return
        info = self.lines.get(line)
        info.sharers.discard(node.id)
        self.counters.shared_drops += 1
        if self.obs is not None:
            self.obs.transition(self.now, node.id, line, "drop", "S", "I")
        self.strip_node_copy(node, way, REMOVED_EVICTED)

    def strip_node_copy(self, node: ComaNode, way: int, reason: str) -> None:
        """Remove the valid AM ``way`` from ``node``: back-invalidate the
        local SLCs (inclusion), record why the line left (and drop it from
        the shadow tags when invalidated), invalidate the way
        (``LineArray.invalidate_way``, in line)."""
        am = node.am
        line = am.line_a[way]
        aux = am.aux_a[way]
        if aux:
            self._invalidate_mask(node, line, aux)
        node.removal_reason[line] = reason
        if reason == REMOVED_INVALIDATED:
            node.shadow.remove(line)
        del am.index[line]
        am.line_a[way] = -1
        am.state_a[way] = INVALID
        am.dirty_a[way] = 0
        am.aux_a[way] = 0

    def _invalidate_mask(self, node: ComaNode, line: int, mask: int) -> None:
        base = node.id * self._ppn
        idx = 0
        while mask:
            if mask & 1:
                p = base + idx
                self.slcs[p].invalidate(line)
                self.l1s[p].invalidate(line)
                self.slc_res[p].acquire(self.now, self._t_slc_occ, self._port)
                self.counters.back_invalidations += 1
            mask >>= 1
            idx += 1

    # ------------------------------------------------------------------
    # fills, paging, timing
    # ------------------------------------------------------------------

    @hotpath
    def _fill_hierarchy(
        self, proc: int, node: ComaNode, line: int, way: int
    ) -> None:
        """Install ``line`` into ``proc``'s SLC and L1 after an AM-level hit
        or a remote fill, handling the SLC victim's write-back.

        The presence bit is recorded *before* the victim's consequences
        are processed: in a non-inclusive hierarchy the victim handling
        can displace ``line`` itself from the AM (owner reinsertion picks
        a victim in the same set), and the displacement machinery then
        sees an accurate picture and migrates the bit to
        ``slc_resident``.  The L1 fill happens only if the line survived
        in this SLC.
        """
        am = node.am
        bit = 1 << (proc % self._ppn)
        am.aux_a[way] |= bit
        slc = self.slcs[proc]
        idx = slc.index
        tags = self._l1_tags[proc]
        if line not in idx:
            # SecondLevelCache.fill, in line: the first invalid way, else
            # the first least-recently-used one.
            a = slc.array
            state_a = a.state_a
            line_a = a.line_a
            lru_a = a.lru_a
            dirty_a = a.dirty_a
            assoc = a.assoc
            base = (line % a.num_sets) * assoc
            end = base + assoc
            victim = -1
            w = base
            while w < end:
                if not state_a[w]:
                    break
                w += 1
            else:
                w = base
                best_lru = lru_a[base]
                k = base + 1
                while k < end:
                    if lru_a[k] < best_lru:
                        w = k
                        best_lru = lru_a[k]
                    k += 1
                victim = line_a[w]
                dirty = dirty_a[w]
                del idx[victim]
            line_a[w] = line
            state_a[w] = SLC_PRESENT
            dirty_a[w] = 0
            a.aux_a[w] = 0
            idx[line] = w
            tick = a.tick + 1
            a.tick = tick
            lru_a[w] = tick
            if victim >= 0:
                # _handle_slc_victim, in line for a victim this node's AM
                # holds (every victim, under inclusion).
                lw = victim % self._l1_nsets
                if tags[lw] == victim:
                    tags[lw] = -1
                vw = am.index.get(victim)
                if vw is None:
                    self._handle_slc_victim(proc, node, victim << 1 | dirty)
                else:
                    am.aux_a[vw] &= ~bit
                    if dirty:
                        node.dram.acquire(self.now, self._t_dram_busy, self._port)
                        self.counters.slc_writebacks += 1
        if line in idx:
            tags[line % self._l1_nsets] = line

    @hotpath
    def _fill_slc_resident(
        self, proc: int, node: ComaNode, line: int, sr: list
    ) -> None:
        """Non-inclusive: install a line that lives only in local SLCs."""
        sr[0] |= 1 << (proc % self._ppn)
        slc = self.slcs[proc]
        if line not in slc.index:
            packed = slc.fill(line)
            if packed >= 0:
                self._handle_slc_victim(proc, node, packed)
        if line in slc.index:
            self.l1s[proc].fill(line)

    @hotpath
    def _handle_slc_victim(self, proc: int, node: ComaNode, packed: int) -> None:
        """Consequences of an SLC eviction (``packed = line << 1 | dirty``).

        Inclusive hierarchy: clear the AM entry's presence bit and write
        back dirty data.  Non-inclusive hierarchy: the evicted line may
        exist *only* in SLCs; when the last SLC copy of an owner line goes,
        the line is written back into the AM (which may displace another
        owner through the normal replacement machinery) so the datum is
        never lost.
        """
        line = packed >> 1
        bit = 1 << (proc % self._ppn)
        tags = self._l1_tags[proc]
        w = line % self._l1_nsets
        if tags[w] == line:
            tags[w] = -1
        am = node.am
        vw = am.index.get(line)
        if vw is not None:
            am.aux_a[vw] &= ~bit
            if packed & 1:
                # Dirty-writeback branches are exclusive; each resolves
                # node.dram once, so there is no prefix worth hoisting.
                node.dram.acquire(self.now, self._t_dram_busy, self._port)  # noqa: HOT003
                self.counters.slc_writebacks += 1
            return
        sr = node.slc_resident.get(line)
        if sr is None:
            return  # line already left the node at AM level
        sr[0] &= ~bit
        if sr[0]:
            return  # other local SLCs still hold it
        state = sr[1]
        del node.slc_resident[line]
        info = self.lines.get(line)
        if state == SHARED:
            info.sharers.discard(node.id)
            node.note_removed(line, REMOVED_EVICTED)
            self.counters.shared_drops += 1
            if self.obs is not None:
                self.obs.transition(self.now, node.id, line, "drop",
                                    "S", "I")
            return
        # Last copy of an owner line: reinsert into the attraction memory.
        way = self.repl.make_room(node, line, self.now, mandatory=True)
        assert way is not None
        am.fill_way(way, line, state)
        node.note_present(line)
        info.owner_loc = LOC_AM
        node.dram.acquire(self.now, self._t_dram_busy, self._port)
        self.counters.slc_owner_reinserts += 1

    def _materialize_page(self, addr: int, node: ComaNode, now: int) -> None:
        """Materialize the page on first touch: its lines appear in the
        toucher's AM in Exclusive state, instantly and with no processor
        delay (paper section 3)."""
        page = self.space.page_of(addr)
        self.space.ensure_page(addr, node.id)
        self.counters.pages_allocated += 1
        for line in self.space.lines_of_page(page, self.config.line_size):
            self.lines.materialize(line, node.id)
            way = self.repl.make_room(node, line, now, mandatory=True)
            assert way is not None
            node.am.fill_way(way, line, EXCLUSIVE)
            node.note_present(line)
            if self.obs is not None:
                self.obs.transition(now, node.id, line, "materialize",
                                    "I", "E")

    # -- interconnect hooks (overridden by the hierarchical machine) -----

    @hotpath
    def _fetch_remote(self, kind: TxKind, local: ComaNode, owner: ComaNode,
                      line: int, now: int) -> int:
        """Meter one remote data transaction of ``kind`` on the
        interconnect and charge the fetch up to data arrival at the local
        controller (:meth:`_remote_fetch` over the one bus).  The local
        allocate/fill and fixed overhead are added by the caller (they
        differ between cached and uncached reads)."""
        # The owner holds the line and the local node does not.
        assert local is not owner
        bus = self.bus
        # SharedBus.record, in line.
        k = kind.slot
        cls = bus._kind_class[k]
        nbytes = bus._kind_bytes[k]
        bus._counts[cls] += 1
        bus._bytes[cls] += nbytes
        if bus.obs is not None:
            bus.obs.bus(now, bus.name, kind.name, kind.tx_class.value,
                        nbytes, local.id, line)
        return self._remote_fetch(local.nc, owner.nc, owner.dram, now,
                                  bus, "bus_req", "bus_reply")

    def _upgrade_broadcast(self, node: ComaNode, line: int, t: int) -> int:
        """Broadcast an upgrade/erase; returns its completion time."""
        self.bus.record(TxKind.UPGRADE, t, node.id, line)
        return self.bus.phase(t, self._port)

    def charge_replacement(
        self,
        src: ComaNode,
        dst: Optional[ComaNode],
        now: int,
        data: bool,
        line: int = -1,
    ) -> None:
        """Meter and time a replacement transaction (probe, and the data
        transfer into ``dst`` when ``data``)."""
        bus = self.bus
        br = bus.resource
        bus_busy = bus._busy_ns
        port = self._port
        obs = self.obs
        # SharedBus.phase and Resource.acquire, in line: the probe phase,
        # then with data the data phase and the receiver's NC and DRAM.
        bus.record(TxKind.REPLACE_PROBE, now, src.id, line)
        bf = br.free
        b = bf[port]
        if b < now:
            b = now
        free = b + bus_busy
        if obs is not None:
            obs.bus_phase(bus.name, b - now, bus_busy)
        phases = 1
        if data:
            t = b + bus._phase_ns
            bus.record(TxKind.REPLACE_DATA, t, src.id, line)
            b = free if free > t else t
            free = b + bus_busy
            phases = 2
            if obs is not None:
                obs.bus_phase(bus.name, b - t, bus_busy)
        bf[port] = free
        br.busy_ns += phases * bus_busy
        br.uses += phases
        if not data:
            return
        assert dst is not None
        t = b + bus._phase_ns
        nc = dst.nc
        dram = dst.dram
        nc_busy = self._t_nc_busy
        dram_busy = self._t_dram_busy
        nf = nc.free
        s = nf[port]
        if s < t:
            s = t
        nf[port] = s + nc_busy
        t = s + self._t_nc
        df = dram.free
        s = df[port]
        if s < t:
            s = t
        df[port] = s + dram_busy
        nc.busy_ns += nc_busy
        nc.uses += 1
        dram.busy_ns += dram_busy
        dram.uses += 1

    def node_scan_order(self, exclude_id: int, rotor: int) -> list[ComaNode]:
        """Receiver scan order for the replacement engine: rotating round
        robin over all other nodes."""
        n = len(self.nodes)
        return [
            self.nodes[(rotor + k) % n]
            for k in range(n)
            if (rotor + k) % n != exclude_id
        ]

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Machine-wide invariant check (used heavily by the test suite).

        Verifies each cache array's own index and set mapping, the line
        table against the per-node arrays, the single-owner invariant,
        sharer bookkeeping, and inclusion (every L1 line in the SLC; every
        SLC line present in its node's AM with the aux bit set).
        """
        for node in self.nodes:
            node.am.check_consistency()
        for slc, l1 in zip(self.slcs, self.l1s):
            slc.array.check_consistency()
            l1.check_consistency(slc.index)
        for line, info in self.lines.items():
            onode = self.nodes[info.owner_node]
            if info.owner_loc == LOC_AM:
                st = onode.am.state_of(line)
                assert is_owning(st), (
                    f"line {line:#x}: owner copy missing in node {onode.id}"
                )
                if info.sharers:
                    assert st == OWNER, f"line {line:#x}: E with sharers"
            elif info.owner_loc == LOC_OVERFLOW:
                assert line in onode.overflow, (
                    f"line {line:#x}: overflow owner missing in node {onode.id}"
                )
            else:  # LOC_SLC
                sr = onode.slc_resident.get(line)
                assert sr is not None and is_owning(sr[1]) and sr[0], (
                    f"line {line:#x}: SLC-resident owner missing in node {onode.id}"
                )
            for sid in info.sharers:
                n = self.nodes[sid]
                st = n.am.state_of(line)
                if st != INVALID:
                    assert st == SHARED, (
                        f"line {line:#x}: sharer {sid} inconsistent"
                    )
                else:
                    sr = n.slc_resident.get(line)
                    assert sr is not None and sr[1] == SHARED and sr[0], (
                        f"line {line:#x}: sharer {sid} holds no copy"
                    )
        # Reverse direction: every valid AM entry is registered.
        for node in self.nodes:
            state_a = node.am.state_a
            for line, w in node.am.index.items():
                info = self.lines.maybe(line)
                assert info is not None, f"unregistered line {line:#x}"
                if state_a[w] == SHARED:
                    assert node.id in info.sharers
                else:
                    assert info.owner_node == node.id and info.owner_loc == LOC_AM
            for line, sr in node.slc_resident.items():
                info = self.lines.maybe(line)
                assert info is not None and sr[0], f"bad slc_resident {line:#x}"
                assert line not in node.am, f"slc_resident line {line:#x} also in AM"
                if sr[1] == SHARED:
                    assert node.id in info.sharers
                else:
                    assert info.owner_node == node.id and info.owner_loc == LOC_SLC
        # Hierarchy relations.
        ppn = self.config.procs_per_node
        for p in range(self.config.n_processors):
            node = self.nodes[self._node_of[p]]
            am = node.am
            bit = 1 << (p % ppn)
            for line in self.slcs[p].index:
                aw = am.index.get(line)
                if aw is not None:
                    assert am.aux_a[aw] & bit, (
                        f"aux bit missing for SLC{p} line {line:#x}"
                    )
                elif self.config.inclusive:
                    raise AssertionError(
                        f"inclusion violated: SLC{p} holds {line:#x} not in AM"
                    )
                else:
                    sr = node.slc_resident.get(line)
                    assert sr is not None and sr[0] & bit, (
                        f"SLC{p} line {line:#x} untracked at node level"
                    )

    # ------------------------------------------------------------------
    def owned_line_count(self) -> int:
        """Total owner lines machine-wide (equals materialized lines)."""
        total = 0
        for n in self.nodes:
            total += n.owned_lines_in_am() + len(n.overflow)
            total += sum(1 for sr in n.slc_resident.values() if is_owning(sr[1]))
        return total
