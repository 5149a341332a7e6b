"""Unit tests for repro.timing: resources and stall accounting."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.sharedbus import SharedBus
from repro.common.config import TimingConfig
from repro.sim.results import SimulationResult
from repro.timing.accounting import STALL_CATEGORIES, StallAccounting
from repro.timing.resource import DEMAND, POSTED, Resource
from tests.conftest import make_machine


class TestResource:
    def test_uncontended(self):
        r = Resource("x")
        assert r.acquire(100, 50) == 100
        assert r.free[DEMAND] == 150

    def test_queueing(self):
        r = Resource("x")
        r.acquire(0, 100)
        assert r.acquire(30, 100) == 100, "second request waits for the first"
        assert r.acquire(500, 100) == 500, "idle gap: starts immediately"

    def test_busy_accounting_and_utilization(self):
        r = Resource("x")
        r.acquire(0, 100)
        r.acquire(0, 100)
        assert r.busy_ns == 200
        assert r.uses == 2
        assert r.utilization(400) == 0.5
        assert r.utilization(0) == 0.0

    def test_background_port_independent(self):
        """Posted writes never delay demand accesses, and vice versa —
        the read-bypass the memory system implements."""
        r = Resource("x")
        r.acquire(0, 1000, port=POSTED)   # a big posted-write burst
        assert r.acquire(10, 50) == 10, "demand access sails past it"
        r.acquire(10, 50)
        assert r.acquire(20, 50, port=POSTED) == 1000, "writes still serialize"

    def test_background_port_counts_busy(self):
        r = Resource("x")
        r.acquire(0, 100, port=POSTED)
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


_STATE = st.tuples(st.integers(0, 3000), st.integers(0, 3000),
                   st.integers(0, 10**6), st.integers(0, 1000))


class _Recorder:
    """Collects the bus waits an access reports (their order is free)."""

    def __init__(self) -> None:
        self.bus_phases: list[tuple] = []

    def phase(self, name, t):
        pass

    def bus_phase(self, bus, wait_ns, busy_ns):
        self.bus_phases.append((bus, wait_ns, busy_ns))


class TestSharedTimelines:
    """``_node_access`` and ``_remote_fetch`` are the chains of
    ``Resource.acquire`` and ``SharedBus.phase`` calls they open in line."""

    @staticmethod
    def _machine(timing, port, states, same):
        """A machine whose resources start at ``states``; returns it with
        (local NC, owner NC, owner DRAM, bus resource).  ``same`` makes
        the owner's controller the local one."""
        m = make_machine(timing=timing)
        m._port = port
        m.obs = m.bus.obs = _Recorder()
        lnc, onc, odram = m.nodes[0].nc, m.nodes[1].nc, m.nodes[1].dram
        if same:
            onc = lnc
        for r, (f0, f1, busy, uses) in zip((lnc, onc, odram, m.bus.resource),
                                           states):
            r.free = [f0, f1]
            r.busy_ns = busy
            r.uses = uses
        return m, lnc, onc, odram

    @staticmethod
    def _snap(m, *rs):
        return ([(list(r.free), r.busy_ns, r.uses) for r in rs],
                sorted(m.obs.bus_phases))

    @given(
        port=st.sampled_from([DEMAND, POSTED]),
        factors=st.tuples(*[st.sampled_from([0.5, 1.0, 2.0, 3.0])] * 3),
        states=st.lists(_STATE, min_size=4, max_size=4),
        now=st.integers(0, 4000),
        same=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_timelines_match_the_call_chain(self, port, factors, states, now,
                                            same):
        tm = TimingConfig(nc_bandwidth_factor=factors[0],
                          dram_bandwidth_factor=factors[1],
                          bus_bandwidth_factor=factors[2])
        nc_busy, dram_busy = tm.nc_busy_ns, tm.dram_busy_ns

        m, lnc, _, odram = self._machine(tm, port, states, same)
        got = m._node_access(lnc, odram, now)
        ref, rnc, _, rdram = self._machine(tm, port, states, same)
        s = rnc.acquire(now, nc_busy, port)
        s = rdram.acquire(s + tm.nc_ns, dram_busy, port)
        s = rnc.acquire(s + tm.dram_latency_ns, nc_busy, port)
        assert got == s + tm.nc_ns
        assert self._snap(m, lnc, odram) == self._snap(ref, rnc, rdram)

        m, lnc, onc, odram = self._machine(tm, port, states, same)
        got = m._remote_fetch(lnc, onc, odram, now, m.bus, "bus_req",
                              "bus_reply")
        ref, rl, ro, rd = self._machine(tm, port, states, same)
        bus = ref.bus
        s = rl.acquire(now, nc_busy, port)
        t = bus.phase(s + tm.nc_ns, port)
        s = ro.acquire(t, nc_busy, port)
        s = rd.acquire(s + tm.nc_ns, dram_busy, port)
        t = bus.phase(s + tm.dram_latency_ns, port)
        s = rl.acquire(t, nc_busy, port)
        assert got == s + tm.nc_ns
        assert (self._snap(m, lnc, onc, odram, m.bus.resource)
                == self._snap(ref, rl, ro, rd, bus.resource))

        # On another bus (hcoma's group bus): that bus is charged as
        # the chain charges it, and the machine's own bus is untouched.
        m, lnc, onc, odram = self._machine(tm, port, states, same)
        gbus = SharedBus(tm, m.config.line_size, name="gbus0")
        gbus.obs = m.obs
        before = self._snap(m, m.bus.resource)
        got = m._remote_fetch(lnc, onc, odram, now, gbus, "gbus_req",
                              "gbus_reply")
        ref, rl, ro, rd = self._machine(tm, port, states, same)
        rbus = SharedBus(tm, ref.config.line_size, name="gbus0")
        rbus.obs = ref.obs
        s = rl.acquire(now, nc_busy, port)
        t = rbus.phase(s + tm.nc_ns, port)
        s = ro.acquire(t, nc_busy, port)
        s = rd.acquire(s + tm.nc_ns, dram_busy, port)
        t = rbus.phase(s + tm.dram_latency_ns, port)
        s = rl.acquire(t, nc_busy, port)
        assert got == s + tm.nc_ns
        assert (self._snap(m, lnc, onc, odram, gbus.resource)
                == self._snap(ref, rl, ro, rd, rbus.resource))
        assert self._snap(m, m.bus.resource)[0] == before[0]


class TestStallAccounting:
    def test_total_sums_categories(self):
        a = StallAccounting(busy=10, remote=5)
        a.sync += 2
        assert a.total == 17

    def test_as_dict_covers_categories(self):
        a = StallAccounting()
        assert set(a.as_dict()) == set(STALL_CATEGORIES)

    def test_time_breakdown_average(self):
        """``SimulationResult.mean_stalls`` averages each category over
        the processors' accounts."""
        accts = [StallAccounting(busy=10), StallAccounting(busy=30, am=4)]
        result = SimulationResult(
            elapsed_ns=100, counters={}, traffic_bytes={}, traffic_counts={},
            stalls=[a.as_dict() for a in accts], allocated_bytes=0,
            touched_bytes=0, bus_utilization=0.0)
        assert result.mean_stalls["busy"] == 20
        assert result.mean_stalls["am"] == 2
