"""Tests for the non-inclusive hierarchy extension (paper section 4.2:
"A way to overcome this limitation is to break the inclusion in the cache
hierarchy as studied in [9, 2]")."""

from __future__ import annotations

from repro.coma.linetable import LOC_SLC
from repro.coma.states import OWNER, SHARED
from tests.conftest import make_machine

LINE = 64


def ni_machine(**kw):
    defaults = dict(
        n_processors=4,
        procs_per_node=2,
        am_sets=1,
        am_assoc=1,
        slc_lines=4,
        l1_lines=2,
        page_size=64,
        inclusive=False,
    )
    defaults.update(kw)
    return make_machine(**defaults)


class TestOwnershipFallsBackToSlc:
    def test_am_eviction_keeps_line_in_slc(self):
        m = ni_machine()
        m.read(0, 0, 0)          # node 0 owns line 0, cached in SLC0
        m.read(0, LINE, 1000)    # line 1 displaces line 0 from the AM way
        node0 = m.nodes[0]
        assert 0 not in node0.am
        assert 0 in node0.slc_resident, "ownership fell back to the SLC"
        assert m.lines.get(0).owner_loc == LOC_SLC
        assert m.counters.replace_to_slc == 1
        m.check_consistency()

    def test_slc_fallback_is_free_on_the_bus(self):
        m = ni_machine()
        m.read(0, 0, 0)
        before = m.bus.total_transactions
        m.read(0, LINE, 1000)
        assert m.bus.total_transactions == before

    def test_inclusive_machine_relocates_instead(self):
        m = make_machine(
            n_processors=4, procs_per_node=2, am_sets=1, am_assoc=1,
            slc_lines=4, l1_lines=2, page_size=64, inclusive=True,
        )
        m.read(0, 0, 0)
        m.read(0, LINE, 1000)
        assert m.counters.replace_to_slc == 0
        assert 0 not in m.nodes[0].slc_resident


class TestSlcResidentAccess:
    def test_local_read_still_hits_node(self):
        m = ni_machine()
        m.read(0, 0, 0)
        m.read(0, LINE, 1000)   # line 0 now SLC-resident only
        # Processor 0 still has it in its own SLC: L1/SLC hit.
        done, level = m.read(0, 0, 2000)
        assert level in ("l1", "slc")

    def test_neighbour_slc_supplies_line(self):
        m = ni_machine()
        m.read(0, 0, 0)
        m.read(0, LINE, 1000)
        # Processor 1 (same node) misses everywhere but the neighbour SLC.
        done, level = m.read(1, 0, 2000)
        assert level == "am"
        assert m.counters.slc_neighbor_hits == 1
        assert m.counters.node_read_misses == 0
        sr = m.nodes[0].slc_resident[0]
        assert sr[0] & 0b11 == 0b11, "both SLCs now hold the line"
        m.check_consistency()

    def test_remote_read_from_slc_owner(self):
        m = ni_machine()
        m.read(0, 0, 0)
        m.read(0, LINE, 1000)
        done, level = m.read(2, 0, 2000)  # proc 2 = node 1
        assert level == "remote"
        assert m.nodes[1].am.state_of(0) == SHARED
        assert m.nodes[0].slc_resident[0][1] == OWNER, "E -> O in the SLC"
        m.check_consistency()

    def test_write_to_slc_resident_exclusive(self):
        m = ni_machine()
        m.read(0, 0, 0)
        m.read(0, LINE, 1000)
        m.write(0, 0, 2000)
        slc = m.slcs[0]
        assert slc.array.dirty_a[slc.index[0]]
        m.check_consistency()


class TestLastCopyEviction:
    def test_owner_reinserted_into_am(self):
        # SLC of 1 line: evicting the only SLC copy of an owner line must
        # write it back into the AM (never lose the datum).  With one AM
        # way + one SLC line the node juggles two owner lines: each access
        # swaps which one lives in the SLC (the extra effective capacity
        # non-inclusion buys).
        m = ni_machine(slc_lines=1, slc_assoc=1, l1_lines=1)
        m.read(0, 0, 0)          # line 0: AM owner + SLC0
        m.read(0, LINE, 1000)    # the node now juggles lines 0 and 1
        node0 = m.nodes[0]
        assert len(node0.slc_resident) == 1, "one line lives in the SLC"
        assert node0.am.occupancy == 1, "the other kept its AM way"
        assert m.counters.replace_to_slc >= 1
        assert m.counters.slc_owner_reinserts >= 1
        m.read(0, 2 * LINE, 2000)  # a third owner forces a real relocation
        assert m.owned_line_count() == len(m.lines), "no datum ever lost"
        for line in (0, 1, 2):
            assert m.lines.get(line) is not None
        m.check_consistency()


class TestInvalidationOfSlcResident:
    def test_remote_write_invalidates_slc_owner(self):
        m = ni_machine()
        m.read(0, 0, 0)
        m.read(0, LINE, 1000)    # line 0 SLC-resident in node 0
        m.write(2, 0, 2000)      # node 1 takes exclusive ownership
        assert 0 not in m.nodes[0].slc_resident
        assert 0 not in m.slcs[0]
        info = m.lines.get(0)
        assert info.owner_node == 1
        m.check_consistency()

    def test_coherence_miss_classified_after_slc_invalidation(self):
        m = ni_machine()
        m.read(0, 0, 0)
        m.read(0, LINE, 1000)
        m.write(2, 0, 2000)
        m.read(0, 0, 3000)
        assert m.counters.read_miss_coherence >= 1


class TestNonInclusiveReducesPressure:
    def test_more_node_hits_than_inclusive_under_conflict(self):
        """The extension's point: with AM sets full of owners, the SLCs
        provide extra effective associativity."""

        def run(inclusive: bool) -> int:
            m = make_machine(
                n_processors=2,
                procs_per_node=1,
                am_sets=1,
                am_assoc=1,
                slc_lines=8,
                l1_lines=2,
                page_size=64,
                inclusive=inclusive,
            )
            t = 0
            # Two lines ping-ponged through one AM way by one processor.
            for rep in range(6):
                for line in (0, 1):
                    t, _ = m.read(0, line * LINE, t + 500)
            return m.counters.node_read_misses + m.counters.uncached_reads

        assert run(inclusive=False) <= run(inclusive=True)
