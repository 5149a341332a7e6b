"""Tests for the UMA baseline machine."""

from __future__ import annotations

from fractions import Fraction

from repro.common.config import MachineConfig
from repro.mem.address import AddressSpace
from repro.obs.sink import TraceSink
from repro.obs.spans import SpanBuilder
from repro.uma.machine import UmaMachine

LINE = 64


def make_uma(n_processors=4):
    cfg = MachineConfig(
        n_processors=n_processors,
        procs_per_node=1,
        page_size=256,
        memory_pressure=Fraction(1, 2),
        am_bytes_per_node=8 * 4 * 64,
        slc_bytes=4 * 64,
        l1_bytes=2 * 64,
    )
    space = AddressSpace(page_size=256)
    space.alloc(1 << 20, "test")
    return UmaMachine(cfg, space)


class TestUmaTiming:
    def test_every_slc_miss_crosses_the_bus(self):
        """UMA has no locality: the first toucher pays the same as anyone."""
        m = make_uma()
        _, level0 = m.read(0, 0, 0)
        assert level0 == "remote"
        _, level1 = m.read(3, 0, 10_000)
        assert level1 == "remote"
        assert m.counters.node_read_misses == 2

    def test_slc_hit_is_cheap(self):
        m = make_uma()
        m.read(0, 0, 0)
        done, level = m.read(0, LINE, 10_000)  # line 1 (same page)
        assert level == "remote"
        m.l1s[0].invalidate(0)
        done, level = m.read(0, 0, 20_000)
        assert level == "slc"

    def test_banks_interleave(self):
        m = make_uma()
        m.read(0, 0, 0)
        m.read(0, LINE, 1)
        # Lines 0 and 1 hit different banks: both DRAM accesses uncontended.
        assert m.banks[0].uses == 1
        assert m.banks[1].uses == 1


class TestUmaCoherence:
    def test_write_invalidates_sharers(self):
        m = make_uma()
        m.read(0, 0, 0)
        m.read(1, 0, 1000)
        m.write(0, 0, 2000)
        assert 0 not in m.slcs[1]
        assert m.directory.entry(0).owner == 0
        m.check_consistency()

    def test_dirty_writeback_on_eviction(self):
        m = make_uma()
        m.write(0, 0, 0)
        # Thrash the 4-line SLC with same-set lines (4 sets x 1... geometry
        # is 1 set x 4 ways for 256 B at 4-way): fill 4 more lines.
        t = 1000
        for ln in range(1, 6):
            t = m.write(0, ln * LINE, t + 500)
        assert m.counters.slc_writebacks >= 1
        assert m.bus.traffic_breakdown()["replace"] > 0
        m.check_consistency()

    def test_rmw_counts(self):
        m = make_uma()
        m.rmw(0, 0, 0)
        assert m.counters.atomics == 1


class Trees(TraceSink):
    """Each access's span-tree phases as ``(op, level, names, durations)``."""

    wants_spans = True

    def __init__(self) -> None:
        self.trees = []

    def tree(self, t0, t, trace_id, root_id, proc, line, op, level, relocs,
             names, starts, ends):
        self.trees.append((op, level, list(names),
                           [e - s for s, e in zip(starts, ends)]))


def traced_uma():
    m = make_uma()
    sink = Trees()
    m.obs = SpanBuilder(sink)
    for bus in m.buses:
        bus.obs = m.obs
    return m, sink


class TestUmaPhases:
    """UMA's accesses are cut into phases named as NUMA's are, so
    attribution splits a miss and an upgrade the same way."""

    def test_miss_phases(self):
        m, sink = traced_uma()
        done, level = m.read(0, 0, 0)
        t = m.timing
        assert sink.trees == [(
            "r", "remote",
            ["bus_req", "remote_am", "bus_reply", "nc_ret", "remote"],
            [t.bus_phase_ns, t.dram_latency_ns, t.bus_phase_ns, t.nc_ns,
             t.remote_overhead_ns],
        )]
        assert sum(sink.trees[0][3]) == done

    def test_queued_miss_splits_bus_arbitration(self):
        m, sink = traced_uma()
        m.read(0, 0, 0)
        m.read(1, 8 * LINE, 0)     # waits for the first request's phase
        names = sink.trees[1][2]
        assert names[:2] == ["bus_arb", "bus_req"]

    def test_upgrade_phases(self):
        m, sink = traced_uma()
        m.read(0, 0, 0)
        m.read(1, 0, 1000)
        sink.trees.clear()
        m.write(0, 0, 2000)
        op, level, names, _ = sink.trees[0]
        assert (op, level) == ("w", "slc")
        assert names == ["upgrade_bus", "slc"]


class TestUmaViaRunner:
    def test_runs_under_simulation(self):
        from repro.experiments.runner import RunSpec, build_simulation

        sim = build_simulation(
            RunSpec(workload="synth_private", machine="uma", scale=0.25)
        )
        res = sim.run()
        assert res.counters["reads"] > 0
        sim.machine.check_consistency()

    def test_coma_traffic_beats_uma_on_private_data(self):
        """After first touch, COMA serves private data from the node; UMA
        keeps crossing the bus for everything the SLC can't hold."""
        from repro.experiments.runner import RunSpec, run_spec

        coma = run_spec(
            RunSpec(workload="synth_private", machine="coma", scale=0.5),
            use_cache=False,
        )
        uma = run_spec(
            RunSpec(workload="synth_private", machine="uma", scale=0.5),
            use_cache=False,
        )
        assert coma.total_traffic_bytes < 0.5 * uma.total_traffic_bytes
