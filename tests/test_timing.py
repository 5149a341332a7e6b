"""Unit tests for repro.timing: resources and stall accounting."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing.accounting import STALL_CATEGORIES, StallAccounting, TimeBreakdown
from repro.timing.resource import Resource


class TestResource:
    def test_uncontended(self):
        r = Resource("x")
        assert r.acquire(100, 50) == 100
        assert r.next_free == 150

    def test_queueing(self):
        r = Resource("x")
        r.acquire(0, 100)
        assert r.acquire(30, 100) == 100, "second request waits for the first"
        assert r.acquire(500, 100) == 500, "idle gap: starts immediately"

    def test_wait_time(self):
        r = Resource("x")
        r.acquire(0, 100)
        assert r.wait_time(40) == 60
        assert r.wait_time(100) == 0

    def test_busy_accounting_and_utilization(self):
        r = Resource("x")
        r.acquire(0, 100)
        r.acquire(0, 100)
        assert r.busy_ns == 200
        assert r.uses == 2
        assert r.utilization(400) == 0.5
        assert r.utilization(0) == 0.0

    def test_reset(self):
        r = Resource("x")
        r.acquire(0, 10)
        r.reset()
        assert r.next_free == 0 and r.busy_ns == 0 and r.uses == 0

    def test_background_port_independent(self):
        """Posted writes (bg) never delay demand accesses (fg), and vice
        versa — the read-bypass the memory system implements."""
        r = Resource("x")
        r.acquire(0, 1000, bg=True)   # a big posted-write burst
        assert r.acquire(10, 50) == 10, "demand access sails past it"
        r.acquire(10, 50)
        assert r.acquire(20, 50, bg=True) == 1000, "writes still serialize"

    def test_background_port_counts_busy(self):
        r = Resource("x")
        r.acquire(0, 100, bg=True)
        r.acquire(0, 100)
        assert r.busy_ns == 200 and r.uses == 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(1, 50)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_service_order_fifo(self, reqs):
        """Property: with non-decreasing arrival times, service intervals
        never overlap and never start before arrival."""
        reqs.sort()
        r = Resource("x")
        prev_end = 0
        for arrival, occ in reqs:
            start = r.acquire(arrival, occ)
            assert start >= arrival
            assert start >= prev_end
            prev_end = start + occ
        assert r.busy_ns == sum(o for _, o in reqs)


class TestStallAccounting:
    def test_total_sums_categories(self):
        a = StallAccounting(busy=10, remote=5)
        a.sync += 2
        assert a.total == 17

    def test_as_dict_covers_categories(self):
        a = StallAccounting()
        assert set(a.as_dict()) == set(STALL_CATEGORIES)

    def test_merged(self):
        a = StallAccounting(busy=1, am=2)
        b = StallAccounting(busy=3, slc=4)
        m = a.merged(b)
        assert m.busy == 4 and m.am == 2 and m.slc == 4
        assert a.busy == 1, "merge does not mutate"

    def test_time_breakdown_average(self):
        accts = [StallAccounting(busy=10), StallAccounting(busy=30)]
        bd = TimeBreakdown.from_processors(accts, elapsed_ns=100)
        assert bd.per_category["busy"] == 20
        assert bd.elapsed_ns == 100
