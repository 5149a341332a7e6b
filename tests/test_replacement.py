"""Tests for the accept-based replacement machinery (paper section 3.1)."""

from __future__ import annotations

from repro.coma.linetable import LOC_AM, LOC_OVERFLOW
from repro.coma.states import EXCLUSIVE, SHARED
from tests.conftest import make_machine

LINE = 64


def tiny_machine(nodes=2, assoc=1, sets=1, page_lines=1):
    """One-set machines make set pressure easy to construct."""
    return make_machine(
        n_processors=nodes,
        procs_per_node=1,
        am_sets=sets,
        am_assoc=assoc,
        slc_lines=4,
        l1_lines=2,
        page_size=page_lines * LINE,
    )


class TestVictimPriority:
    def test_shared_evicted_before_owner(self):
        # Node 0: one set, 2 ways. Fill with one owner + one S copy, then
        # materialize a new page -> the S copy must be the victim.
        m = tiny_machine(nodes=2, assoc=2)
        m.read(1, 0, 0)          # node 1 owns page 0 (line 0)
        m.read(0, LINE, 100)     # node 0 owns page 1 (line 1)
        m.read(0, 0, 200)        # node 0 caches line 0 Shared
        assert m.nodes[0].am.state_of(0) == SHARED
        m.read(0, 2 * LINE, 300)  # new page: set full -> drop the S copy
        assert 0 not in m.nodes[0].am, "Shared victim dropped"
        assert 1 in m.nodes[0].am, "owner kept"
        assert m.counters.shared_drops == 1
        assert m.lines.get(0).sharers == set()
        m.check_consistency()

    def test_shared_drop_is_silent_on_the_bus(self):
        m = tiny_machine(nodes=2, assoc=2)
        m.read(1, 0, 0)
        m.read(0, LINE, 100)
        m.read(0, 0, 200)
        before = m.bus.total_transactions
        m.read(0, 2 * LINE, 300)
        assert m.bus.total_transactions == before, "S drop needs no bus"


class TestRelocation:
    def test_accept_to_invalid_way(self):
        # Node 0's single way holds an owner; allocating a second owner
        # relocates the first into node 1's invalid way.
        m = tiny_machine(nodes=2, assoc=1)
        m.write(0, 0, 0)            # node 0 owns line 0
        m.write(0, LINE, 1000)      # displaces it
        assert m.counters.replacements == 1
        assert m.counters.replace_to_invalid == 1
        assert m.nodes[1].am.state_of(0) == EXCLUSIVE
        assert m.lines.get(0).owner_node == 1
        assert m.bus.traffic_breakdown()["replace"] == 72 + 8
        m.check_consistency()

    def test_receiver_with_invalid_preferred_over_shared(self):
        # Node 3 has an invalid way, node 2's way holds a Shared copy of
        # an unrelated line: the paper prioritizes the Invalid receiver.
        m = tiny_machine(nodes=4, assoc=1)
        m.write(0, 0, 0)         # node 0 owns line 0 (no sharers)
        m.write(1, LINE, 100)    # node 1 owns line 1
        m.read(2, LINE, 200)     # node 2: S copy of line 1 (its only way)
        m.write(0, 2 * LINE, 300)  # node 0 must relocate line 0
        assert m.counters.replace_to_invalid == 1
        assert m.counters.replace_to_shared == 0
        assert 0 in m.nodes[3].am, "invalid way accepted it"
        assert m.nodes[2].am.state_of(1) == SHARED, "S copy untouched"
        m.check_consistency()

    def test_sharer_takeover_without_data_transfer(self):
        # When a sharer of the very line exists, ownership just moves.
        m = tiny_machine(nodes=2, assoc=1)
        m.write(0, 0, 0)         # node 0 owns line 0
        m.read(1, 0, 100)        # node 1 shares line 0
        data_before = m.bus.tx_bytes
        replace_data_before = m.bus.traffic_breakdown()["replace"]
        m.write(0, LINE, 200)    # node 0 must evict line 0
        assert m.counters.replace_to_sharer == 1
        info = m.lines.get(0)
        assert info.owner_node == 1
        assert m.nodes[1].am.state_of(0) == EXCLUSIVE, "sole copy now"
        # Only a probe (8 bytes), no 64-byte data transfer.
        assert m.bus.traffic_breakdown()["replace"] == replace_data_before + 8
        m.check_consistency()

    def test_accept_displacing_shared(self):
        # Every other way holds S copies only -> receiver drops one.
        m = tiny_machine(nodes=2, assoc=2)
        m.write(0, 0, 0)          # node 0: owner line 0
        m.write(0, LINE, 100)     # node 0: owner line 1 (set full)
        m.read(1, 0, 200)         # node 1: S of line 0
        m.read(1, LINE, 300)      # node 1: S of line 1 (set full)
        m.write(0, 2 * LINE, 400)  # evict an owner from node 0
        assert m.counters.replace_to_shared + m.counters.replace_to_sharer >= 1
        m.check_consistency()


class TestOverflowAndUncached:
    def test_overflow_park_when_machine_wide_set_full(self):
        # 2 nodes x 1 way: two owner lines fill the machine-wide set;
        # a third owner line has nowhere to go -> overflow buffer.
        m = tiny_machine(nodes=2, assoc=1)
        m.write(0, 0, 0)
        m.write(1, LINE, 100)
        m.write(0, 2 * LINE, 200)  # forces a park somewhere
        assert m.counters.overflow_parks >= 1
        total_ovf = sum(len(n.overflow) for n in m.nodes)
        assert total_ovf >= 1
        assert m.owned_line_count() == len(m.lines), "no datum lost"
        m.check_consistency()

    def test_overflow_line_still_readable(self):
        m = tiny_machine(nodes=2, assoc=1)
        m.write(0, 0, 0)
        m.write(1, LINE, 100)
        m.write(0, 2 * LINE, 200)
        # Find a parked line and read it from its owner node.
        for node in m.nodes:
            for line in node.overflow:
                done, level = m.read(
                    node.id * m.config.procs_per_node, line * LINE, 10_000
                )
                assert level == "am"
                assert m.counters.overflow_read_hits == 1
                return
        raise AssertionError("expected a parked line")

    def test_uncached_read_when_no_replication_space(self):
        # Both single-way sets hold owners; a remote read cannot allocate
        # a Shared copy and completes uncached.
        m = tiny_machine(nodes=2, assoc=1)
        m.write(0, 0, 0)          # node 0 owns line 0
        m.write(1, LINE, 100)     # node 1 owns line 1
        m.read(0, LINE, 200)      # node 0 reads node 1's line
        assert m.counters.uncached_reads == 1
        assert 1 not in m.nodes[0].am, "no S copy allocated"
        assert m.lines.get(1).sharers == set()
        # The read is repeatable (stays uncached, keeps costing traffic).
        m.read(0, LINE, 300)
        assert m.counters.node_read_misses == 2
        m.check_consistency()

    def test_forced_cascade_counts_hops(self):
        # 3 nodes x 1 way, all owners; a mandatory allocation (write miss)
        # must displace someone via the forced cascade.
        m = tiny_machine(nodes=3, assoc=1)
        m.write(0, 0, 0)
        m.write(1, LINE, 100)
        m.write(2, 2 * LINE, 200)
        m.write(0, LINE, 300)   # write miss: node 0 takes line 1 ownership
        # Line 1's old copy is erased (invalidation), so no cascade there,
        # but node 0 then holds 2 owners for 1 way -> relocation pressure.
        assert m.owned_line_count() == len(m.lines)
        m.check_consistency()


class TestLineTableIntegrity:
    def test_owner_loc_tracks_overflow(self):
        m = tiny_machine(nodes=2, assoc=1)
        m.write(0, 0, 0)
        m.write(1, LINE, 100)
        m.write(0, 2 * LINE, 200)
        locs = {m.lines.get(l).owner_loc for l in (0, 1, 2)}
        assert LOC_OVERFLOW in locs
        assert LOC_AM in locs


class TestScanOrderCache:
    """The engine keeps one receiver list per ``(rotor, exclude)`` pair;
    it must be exactly the machine's scan order for that pair."""

    @staticmethod
    def machines():
        from tests.test_hierarchy import make_hier

        return {"coma": tiny_machine(nodes=4), "hcoma": make_hier(n_groups=2)}

    def test_cached_order_matches_machine(self):
        for kind, m in self.machines().items():
            n = len(m.nodes)
            for rotor in range(n):
                for exclude in range(n):
                    cached = m.repl.scan_order(exclude, rotor)
                    fresh = m.node_scan_order(exclude, rotor)
                    assert [d.id for d in cached] == [d.id for d in fresh], (
                        kind, rotor, exclude)
                    assert exclude not in {d.id for d in cached}
                    assert m.repl.scan_order(exclude, rotor) is cached

    def test_random_receiver_leaves_cached_orders_unchanged(self):
        m = make_machine(
            n_processors=4, procs_per_node=1, am_sets=1, am_assoc=1,
            slc_lines=4, l1_lines=2, page_size=LINE,
            replacement_receiver_policy="random",
        )
        n = len(m.nodes)
        cached = {(r, x): m.repl.scan_order(x, r)
                  for r in range(n) for x in range(n)}
        before = {k: [d.id for d in v] for k, v in cached.items()}
        for i in range(n):
            m.write(0, i * LINE, 100 * i)  # node 0 relocates each owner
        assert m.counters.replacements == n - 1
        for (rotor, exclude), order in cached.items():
            assert m.repl.scan_order(exclude, rotor) is order
            assert [d.id for d in order] == before[rotor, exclude]
        m.check_consistency()
