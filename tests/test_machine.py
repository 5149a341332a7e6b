"""Protocol and timing tests for the COMA machine's read/write paths."""

from __future__ import annotations

from repro.coma.states import EXCLUSIVE, OWNER, SHARED
from tests.conftest import make_machine

LINE = 64
PAGE = 256  # 4 lines per page in the test machine


class TestReadPath:
    def test_first_touch_materializes_page_locally(self, machine):
        done, level = machine.read(0, 0, 0)
        assert level == "am", "first toucher finds the page in its own AM"
        node0 = machine.nodes[0]
        for line in range(4):
            assert node0.am.state_of(line) == EXCLUSIVE
        assert machine.counters.pages_allocated == 1

    def test_am_hit_latency_is_148ns(self, machine):
        done, level = machine.read(0, 0, 0)
        assert done == 148, "24 NC + 100 DRAM + 24 NC (paper section 3.2)"

    def test_l1_hit_after_fill(self, machine):
        machine.read(0, 0, 0)
        done, level = machine.read(0, 8, 10_000)  # same line
        assert level == "l1"
        assert done == 10_000, "L1 hits cost 0 ns"

    def test_slc_private_per_processor(self, machine):
        machine.read(0, 0, 0)
        # Processor 1 (same node) misses its own L1/SLC but hits the AM.
        done, level = machine.read(1, 0, 10_000)
        assert level == "am"

    def test_slc_hit_latency(self, machine):
        machine.read(0, 0, 0)
        # Evict line 0 from L1 only: L1 has 4 lines; lines 0 and 4 conflict.
        machine.read(0, 4 * LINE, 10_000)
        done, level = machine.read(0, 0, 20_000)
        assert level == "slc"
        assert done == 20_032

    def test_remote_read_latency_is_332ns(self, machine):
        machine.read(0, 0, 0)  # node 0 owns the page
        done, level = machine.read(2, 0, 10_000)  # proc 2 is in node 1
        assert level == "remote"
        assert done == 10_332, "remote access 332 ns (paper section 3.2)"

    def test_remote_read_creates_shared_copy(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 10_000)
        assert machine.nodes[1].am.state_of(0) == SHARED
        assert machine.nodes[0].am.state_of(0) == OWNER, "owner E -> O"
        info = machine.lines.get(0)
        assert info.owner_node == 0
        assert info.sharers == {1}
        machine.check_consistency()

    def test_read_counters(self, machine):
        machine.read(0, 0, 0)
        machine.read(0, 0, 1000)
        machine.read(2, 0, 2000)
        c = machine.counters
        assert c.reads == 3
        assert c.am_read_hits == 1
        assert c.l1_read_hits == 1
        assert c.node_read_misses == 1

    def test_cold_miss_classification(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)
        assert machine.counters.read_miss_cold == 1

    def test_coherence_miss_classification(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)       # node 1 now shares line 0
        machine.write(0, 0, 2000)      # upgrade invalidates node 1
        machine.read(2, 0, 3000)       # -> coherence miss
        c = machine.counters
        assert c.read_miss_coherence == 1
        assert c.upgrades == 1

    def test_bus_traffic_recorded_for_remote_read(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)
        assert machine.bus.tx_bytes[list(machine.bus.tx_bytes)[0]] >= 0
        assert machine.bus.traffic_breakdown()["read"] == 72


class TestWritePath:
    def test_write_to_exclusive_is_silent(self, machine):
        machine.read(0, 0, 0)
        before = machine.bus.total_transactions
        machine.write(0, 0, 1000)
        assert machine.bus.total_transactions == before
        assert machine.counters.writes == 1

    def test_write_marks_slc_dirty(self, machine):
        machine.read(0, 0, 0)
        machine.write(0, 0, 1000)
        slc = machine.slcs[0]
        assert slc.array.dirty_a[slc.index[0]] == 1

    def test_upgrade_invalidates_sharers(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)      # node 1 shares
        machine.write(0, 0, 2000)     # node 0 upgrades O -> E
        assert 0 not in machine.nodes[1].am
        assert machine.nodes[0].am.state_of(0) == EXCLUSIVE
        assert machine.lines.get(0).sharers == set()
        assert machine.counters.invalidations_sent == 1
        machine.check_consistency()

    def test_upgrade_from_shared_takes_ownership(self, machine):
        machine.read(0, 0, 0)          # node 0 owner
        machine.read(2, 0, 1000)       # node 1 sharer
        machine.write(2, 0, 2000)      # sharer writes: takes ownership
        info = machine.lines.get(0)
        assert info.owner_node == 1
        assert machine.nodes[1].am.state_of(0) == EXCLUSIVE
        assert 0 not in machine.nodes[0].am, "old owner erased"
        machine.check_consistency()

    def test_write_miss_read_exclusive(self, machine):
        machine.read(0, 0, 0)
        machine.write(2, 0, 1000)      # node 1 never had the line
        c = machine.counters
        assert c.node_write_misses == 1
        assert c.read_exclusive == 1
        info = machine.lines.get(0)
        assert info.owner_node == 1
        assert 0 not in machine.nodes[0].am
        assert machine.bus.traffic_breakdown()["write"] == 72
        machine.check_consistency()

    def test_back_invalidation_purges_l1_and_slc(self, machine):
        machine.read(2, PAGE, 0)       # node 1 first-touches page 1
        machine.read(0, PAGE, 1000)    # node 0 caches it (S + SLC + L1)
        assert machine.l1s[0].lookup(PAGE // LINE)
        machine.write(2, PAGE, 2000)   # upgrade erases node 0's copies
        assert machine.l1s[0].lookup(PAGE // LINE) is False
        assert PAGE // LINE not in machine.slcs[0]
        assert machine.counters.back_invalidations >= 1

    def test_rmw_counts_atomics(self, machine):
        machine.read(0, 0, 0)
        done, level = machine.rmw(0, 0, 1000)
        assert machine.counters.atomics == 1
        assert machine.counters.writes == 0, "atomics are not plain writes"
        assert level in ("slc", "am", "remote")


class TestDirtyWriteback:
    def test_slc_dirty_eviction_writes_back(self):
        # SLC with a single line: the second fill evicts the first.
        m = make_machine(slc_lines=1, l1_lines=1, slc_assoc=1)
        m.read(0, 0, 0)
        m.write(0, 0, 1000)  # line 0 dirty in SLC
        m.read(0, LINE, 2000)  # fills line 1, evicting dirty line 0
        assert m.counters.slc_writebacks == 1
        m.check_consistency()


class TestPageMaterialization:
    def test_working_set_tracks_touched_pages(self, machine):
        machine.read(0, 0, 0)
        machine.read(0, PAGE, 100)
        assert machine.space.touched_bytes == 2 * PAGE
        assert len(machine.lines) == 8

    def test_owned_lines_equals_materialized(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, PAGE, 100)
        machine.read(0, PAGE, 200)
        assert machine.owned_line_count() == len(machine.lines)

    def test_write_can_materialize(self, machine):
        machine.write(1, 2 * PAGE, 0)
        assert machine.space.page_home[2] == 0, "proc 1 lives in node 0"
        machine.check_consistency()
