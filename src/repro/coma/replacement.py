"""Accept-based replacement (paper section 3.1).

"Upon replacement of a cache line in state Exclusive or Owner, a
snooping-based mechanism is used to find a receiving node that can store
the replaced cache line without causing further avalanching replacements.
When choosing what local line to replace, entries in state Shared are
prioritized over entries in the Owner and Exclusive states.  When choosing
a receiver of the replacement, nodes with Invalid entries are prioritized
over those with Shared entries."

Receiver search order implemented here:

1. a node already holding a *Shared copy of the same line* — ownership
   simply moves there (no data transfer needed);
2. a node with an Invalid way in the line's set;
3. a node with a Shared way in the line's set (the S replica is dropped —
   always safe, an owner exists elsewhere);
4. *forced cascade* (only when the machine-wide set is full of owners,
   which is exactly the conflict regime of section 4.2): displace the
   least-recently-used owner way of another node and relocate it
   recursively, up to ``relocation_max_hops`` hops;
5. park the line in the source node's victim overflow buffer (a datum may
   never be dropped — COMA has no backing memory).

Steps 4-5 are only taken for *mandatory* allocations (gaining write
ownership, page materialization).  An optional allocation (caching a
Shared replica on a read miss) that reaches step 4 is abandoned instead:
the read completes uncached, which is the pressure-valve behaviour that
produces the read-traffic blow-up the paper observes at 87.5 % memory
pressure.

Ways are addressed as plain ints into each AM's
:class:`repro.mem.soa.LineArray`, the local victim-class policy is the
machine's interned ``victim_mode``, and the two ``inject`` resolutions
are the ``(alone, sharers)`` pairs the machine binds from the protocol
table at build time, so no relocation does string dispatch.
"""

from __future__ import annotations

import random
import weakref
from typing import TYPE_CHECKING, Optional

from repro.common.rng import derive_seed

from repro.coma.linetable import LOC_AM, LOC_OVERFLOW, LOC_SLC
from repro.coma.node import REMOVED_EVICTED, ComaNode
from repro.coma.states import SHARED, is_owning, state_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.coma.machine import ComaMachine


class ReplacementEngine:
    """Implements victim selection and owner relocation for one machine."""

    def __init__(self, machine: "ComaMachine") -> None:
        #: A proxy, not a reference: the machine owns the engine, and a
        #: strong back-reference would make the pair a cycle that only the
        #: cyclic collector frees, keeping every finished machine's arrays
        #: alive until its next full pass.
        self.m = weakref.proxy(machine)
        #: Rotating start point so relocations spread over nodes.
        self._rotor = 0
        #: Seeded shuffler for the "random" receiver-policy ablation.
        self._rng = random.Random(derive_seed(machine.config.seed, "replacement"))
        cfg = machine.config
        self._victim_mode = machine._victim_mode
        self._random_receiver = cfg.replacement_receiver_policy == "random"
        self._inclusive = cfg.inclusive
        self._max_hops = cfg.relocation_max_hops
        #: Receiver scan orders, built on first use: the list for
        #: ``(rotor, exclude)`` sits at ``rotor * n_nodes + exclude``.
        #: Shared and never mutated (the random ablation shuffles a copy).
        self._n_nodes = len(machine.nodes)
        self._orders: list = [None] * (self._n_nodes * self._n_nodes)

    # ------------------------------------------------------------------
    def make_room(
        self, node: ComaNode, line: int, now: int, mandatory: bool
    ) -> Optional[int]:
        """Return an invalid way (as a way number) of ``line``'s set in
        ``node``'s AM, evicting/relocating as needed.  Returns None when
        an optional allocation should be abandoned (see module
        docstring)."""
        am = node.am
        set_idx = line % am.num_sets
        free = am.free_way_idx(set_idx)
        if free >= 0:
            return free
        victim = am.victim_way(set_idx, self._victim_mode)
        if am.state_a[victim] == SHARED:
            self.m.drop_shared_copy(node, victim)
            return victim
        # Victim is an owner: it must be relocated, never dropped.
        ok = self.relocate_owner(node, victim, now, mandatory=mandatory, hops=0)
        if ok:
            return victim
        if not mandatory:
            self.m.counters.uncached_reads += 1
            if self.m.obs is not None:
                self.m.obs.replacement(now, node.id, -1, line, "uncached", 0)
            return None
        # Mandatory and nowhere to go: park the victim in overflow.
        self._park_in_overflow(node, victim)
        return victim

    # ------------------------------------------------------------------
    def relocate_owner(
        self, src: ComaNode, src_way: int, now: int, mandatory: bool, hops: int
    ) -> bool:
        """Move the owner line held in ``src_way`` of ``src``'s AM out.

        On success the way has been invalidated in ``src`` (with SLC
        back-invalidation) and the line table updated.  Traffic and
        resource occupancy for the relocation transaction are charged; no
        processor latency is added (replacements proceed in the background
        of the access that triggered them).
        """
        m = self.m
        am = src.am
        line = am.line_a[src_way]
        state = am.state_a[src_way]
        assert is_owning(state), f"relocating non-owner way {src_way}"
        info = m.lines.get(line)
        assert info.owner_node == src.id and info.owner_loc == LOC_AM

        m.counters.replacements += 1

        # 0. Non-inclusive hierarchy: if a local SLC still holds the line,
        # ownership simply falls back to the SLC — no traffic at all.
        # This is the replication-space win of breaking inclusion ([9,2]).
        aux = am.aux_a[src_way]
        if not self._inclusive and aux:
            src.slc_resident[line] = [aux, state]
            info.owner_loc = LOC_SLC
            am.aux_a[src_way] = 0
            am.invalidate_way(src_way)
            m.counters.replace_to_slc += 1
            if m.obs is not None:
                m.obs.replacement(now, src.id, src.id, line, "to_slc", hops)
            return True

        # 1. A sharer node can take over ownership without a data transfer:
        # S + inject resolves to E when the taker held the last replica.
        if info.sharers:
            dst_id = min(info.sharers)
            dst = m.nodes[dst_id]
            sw = dst.am.index.get(line)
            info.sharers.discard(dst_id)
            new_state = m._inj_shared[1 if info.sharers else 0]
            if sw is not None:
                assert dst.am.state_a[sw] == SHARED
                dst.am.state_a[sw] = new_state
                dst.am.tick += 1
                dst.am.lru_a[sw] = dst.am.tick
                info.owner_loc = LOC_AM
            else:
                # Non-inclusive: the sharer holds it in an SLC only.
                sr = dst.slc_resident[line]
                sr[1] = new_state
                info.owner_loc = LOC_SLC
            info.owner_node = dst_id
            m.charge_replacement(src, None, now, data=False, line=line)
            m.counters.replace_to_sharer += 1
            if m.obs is not None:
                m.obs.replacement(now, src.id, dst_id, line, "to_sharer", hops)
                m.obs.transition(now, dst_id, line, "inject", "S",
                                 state_name(new_state))
            m.strip_node_copy(src, src_way, REMOVED_EVICTED)
            return True

        set_idx = src_way // am.assoc
        order = self._node_order(src.id)

        if self._random_receiver:
            # Ablation: first receiver in a random order that has *any*
            # capacity, with no Invalid-before-Shared preference.
            shuffled = list(order)
            self._rng.shuffle(shuffled)
            for dst in shuffled:
                way = dst.am.free_way_idx(set_idx)
                if way >= 0:
                    self._transfer(src, src_way, dst, way, now, "to_invalid", hops)
                    m.counters.replace_to_invalid += 1
                    return True
                base = set_idx * dst.am.assoc
                for way in range(base, base + dst.am.assoc):
                    if dst.am.state_a[way] == SHARED:
                        m.drop_shared_copy(dst, way)
                        self._transfer(src, src_way, dst, way, now,
                                       "to_shared", hops)
                        m.counters.replace_to_shared += 1
                        return True
        else:
            # 2. A node with an Invalid way accepts the line.
            for dst in order:
                way = dst.am.free_way_idx(set_idx)
                if way >= 0:
                    self._transfer(src, src_way, dst, way, now, "to_invalid", hops)
                    m.counters.replace_to_invalid += 1
                    return True

            # 3. A node with a Shared way accepts it, dropping the S replica.
            for dst in order:
                base = set_idx * dst.am.assoc
                for way in range(base, base + dst.am.assoc):
                    if dst.am.state_a[way] == SHARED:
                        m.drop_shared_copy(dst, way)
                        self._transfer(src, src_way, dst, way, now,
                                       "to_shared", hops)
                        m.counters.replace_to_shared += 1
                        return True

        # 4. Forced cascade: every way of this set, machine-wide, holds an
        # owner.  Displace another node's LRU owner recursively.
        if mandatory and hops < self._max_hops:
            dst, way = self._oldest_owner_way(order, set_idx)
            if dst is not None:
                m.counters.replace_forced_hops += 1
                if self.relocate_owner(dst, way, now, mandatory=True, hops=hops + 1):
                    self._transfer(src, src_way, dst, way, now, "cascade", hops + 1)
                    return True
        return False

    # ------------------------------------------------------------------
    def _transfer(
        self,
        src: ComaNode,
        src_way: int,
        dst: ComaNode,
        dst_way: int,
        now: int,
        outcome: str = "to_invalid",
        hops: int = 0,
    ) -> None:
        """Move the owner line in ``src_way`` of ``src`` into ``dst_way``
        of ``dst``.

        The receiver applies I + inject from the table: the replacement
        probe is snooped machine-wide, so the receiver learns whether any
        Shared replica survives and installs E when it now holds the only
        copy (even if the evicted copy had degraded to O after its last
        sharer silently dropped).
        """
        m = self.m
        line = src.am.line_a[src_way]
        info = m.lines.get(line)
        state = m._inj_invalid[1 if info.sharers else 0]
        # Charge the replacement transaction: probe + data transfer into
        # the receiving node (controller + DRAM occupancy).
        m.charge_replacement(src, dst, now, data=True, line=line)
        if m.obs is not None:
            m.obs.replacement(now, src.id, dst.id, line, outcome, hops)
            m.obs.transition(now, dst.id, line, "inject", "I",
                             state_name(state))
        m.strip_node_copy(src, src_way, REMOVED_EVICTED)
        dst.am.fill_way(dst_way, line, state)
        dst.note_present(line)
        info.owner_node = dst.id
        info.owner_loc = LOC_AM

    def _park_in_overflow(self, node: ComaNode, way: int) -> None:
        m = self.m
        am = node.am
        line = am.line_a[way]
        info = m.lines.get(line)
        node.overflow[line] = am.state_a[way]
        info.owner_loc = LOC_OVERFLOW
        m.counters.overflow_parks += 1
        if m.obs is not None:
            m.obs.replacement(m.now, node.id, -1, line, "overflow_park", 0)
        # The line is still present in the node (overflow), so strip only
        # the AM way (and the local SLC copies), not the node-level
        # tracking.
        aux = am.aux_a[way]
        if aux:
            m._invalidate_mask(node, line, aux)
        am.invalidate_way(way)

    # ------------------------------------------------------------------
    def _node_order(self, exclude_id: int) -> list[ComaNode]:
        """Candidate receivers in scan order, excluding ``exclude_id``,
        from the next rotor position."""
        rotor = self._rotor = (self._rotor + 1) % self._n_nodes
        return self.scan_order(exclude_id, rotor)

    def scan_order(self, exclude_id: int, rotor: int) -> list[ComaNode]:
        """The cached ``machine.node_scan_order(exclude_id, rotor)``.

        Delegated to the machine so topology-aware variants (the
        hierarchical machine prefers in-group receivers) can reorder it;
        every variant is a pure function of its two arguments, so one
        list per pair serves every relocation.  Callers must not mutate
        it.
        """
        i = rotor * self._n_nodes + exclude_id
        order = self._orders[i]
        if order is None:
            order = self._orders[i] = self.m.node_scan_order(exclude_id, rotor)
        return order

    @staticmethod
    def _oldest_owner_way(order: list[ComaNode], set_idx: int):
        """LRU owner way across the candidate nodes, as ``(node, way)``.

        Scan order (node order, then way order, strict ``<``) reproduces
        the object-based implementation's tie-breaks exactly.
        """
        best_node, best_way, best_lru = None, -1, 0
        for dst in order:
            am = dst.am
            base = set_idx * am.assoc
            for way in range(base, base + am.assoc):
                if am.state_a[way] > SHARED and (
                    best_node is None or am.lru_a[way] < best_lru
                ):
                    best_node, best_way, best_lru = dst, way, am.lru_a[way]
        return best_node, best_way
