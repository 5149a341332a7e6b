"""Tests for the simulation kernel: event dispatch, synchronization,
determinism, deadlock detection, and stall-accounting conservation."""

from __future__ import annotations

import gc

import pytest

from repro.common.errors import SimulationError
from repro.experiments.runner import RunSpec, build_simulation
from repro.sim.simulator import Simulation
from repro.sync.primitives import SyncSpace
from tests.conftest import make_machine

LINE = 64


def build(programs, n_locks=2, n_barriers=2, **machine_kw):
    machine = make_machine(
        n_processors=max(4, len(programs)), procs_per_node=2, **machine_kw
    )
    sync = SyncSpace(machine.space, LINE, n_locks, n_barriers)
    return Simulation(machine, programs, sync)


class TestBasics:
    def test_compute_advances_clock_and_busy(self):
        sim = build([iter([("c", 400)])])
        res = sim.run()
        assert sim.procs[0].clock == 400
        assert res.stalls[0]["busy"] == 400

    def test_read_charges_level(self):
        sim = build([iter([("r", 0)])])
        res = sim.run()
        assert res.stalls[0]["am"] == 148

    def test_write_is_buffered_not_stalling(self):
        sim = build([iter([("w", 0), ("c", 4)])])
        res = sim.run()
        # The write costs the processor nothing; only the compute shows.
        assert res.stalls[0]["busy"] == 4
        assert res.counters["writes"] == 1

    def test_unknown_event_raises(self):
        sim = build([iter([("zz", 1)])])
        with pytest.raises(SimulationError):
            sim.run()

    def test_event_budget(self):
        def forever():
            while True:
                yield ("c", 1)

        sim = build([forever()])
        sim.max_events = 100
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_result_elapsed_is_max_clock(self):
        sim = build([iter([("c", 100)]), iter([("c", 900)])])
        res = sim.run()
        assert res.elapsed_ns == 900


class TestDeterminism:
    def test_same_programs_same_result(self):
        def prog(tid):
            def gen():
                for k in range(50):
                    yield ("r", (tid * 64 + k % 8) * LINE)
                    yield ("c", 10)
                    yield ("w", (tid * 64 + k % 8) * LINE)
                yield ("b", 0)

            return gen()

        r1 = build([prog(t) for t in range(4)]).run()
        r2 = build([prog(t) for t in range(4)]).run()
        assert r1.elapsed_ns == r2.elapsed_ns
        assert r1.counters == r2.counters
        assert r1.traffic_bytes == r2.traffic_bytes


class TestLocks:
    def test_mutual_exclusion_orders_critical_sections(self):
        order = []

        def prog(tid):
            def gen():
                yield ("c", 10 * (tid + 1))
                yield ("l", 0)
                order.append(("in", tid))
                yield ("c", 100)
                order.append(("out", tid))
                yield ("u", 0)

            return gen()

        build([prog(t) for t in range(4)]).run()
        # Critical sections never interleave.
        for k in range(0, len(order), 2):
            assert order[k][0] == "in" and order[k + 1][0] == "out"
            assert order[k][1] == order[k + 1][1]

    def test_lock_waiters_wake_in_fifo_order(self):
        entered = []

        def prog(tid):
            def gen():
                yield ("c", 32 * tid)  # strictly staggered arrival: 0 first
                yield ("l", 0)
                entered.append(tid)
                yield ("c", 500)
                yield ("u", 0)

            return gen()

        build([prog(t) for t in range(4)]).run()
        assert entered == [0, 1, 2, 3]

    def test_release_without_hold_raises(self):
        sim = build([iter([("u", 0)])])
        with pytest.raises(SimulationError):
            sim.run()

    def test_lock_traffic_recorded(self):
        def prog(tid):
            def gen():
                yield ("l", 0)
                yield ("c", 50)
                yield ("u", 0)

            return gen()

        sim = build([prog(t) for t in range(4)])
        res = sim.run()
        assert res.counters["lock_acquires"] == 4
        assert res.counters["atomics"] >= 4


class TestBarriers:
    def test_barrier_synchronizes_clocks(self):
        def prog(tid):
            def gen():
                yield ("c", 100 * (tid + 1))
                yield ("b", 0)
                yield ("c", 10)

            return gen()

        sim = build([prog(t) for t in range(4)])
        sim.run()
        # Everyone resumed at or after the slowest arrival (400 ns busy).
        assert min(p.clock for p in sim.procs) > 400

    def test_barrier_reusable_across_episodes(self):
        def prog(tid):
            def gen():
                for _ in range(5):
                    yield ("c", 10 + tid)
                    yield ("b", 0)

            return gen()

        sim = build([prog(t) for t in range(4)])
        res = sim.run()
        assert res.counters["barrier_episodes"] == 5

    def test_single_thread_barrier_is_nonblocking(self):
        sim = build([iter([("b", 0), ("c", 5)])])
        res = sim.run()
        assert res.counters["barrier_episodes"] == 1


class TestAccountingConservation:
    def test_stall_categories_sum_to_clock(self):
        """Each processor's category times must add up to its final clock
        (nothing double-counted, nothing lost)."""

        def prog(tid):
            def gen():
                for k in range(40):
                    yield ("r", ((tid * 16 + k) % 64) * LINE)
                    yield ("c", 17)
                    yield ("w", ((tid * 16 + k) % 64) * LINE)
                    if k % 10 == 0:
                        yield ("l", 0)
                        yield ("c", 5)
                        yield ("u", 0)
                yield ("b", 0)

            return gen()

        sim = build([prog(t) for t in range(4)])
        sim.run()
        for p in sim.procs:
            assert p.acct.total == p.clock, (
                f"proc {p.pid}: accounted {p.acct.total} != clock {p.clock}"
            )

    def test_consistency_checks_during_run(self):
        def prog(tid):
            def gen():
                for k in range(60):
                    yield ("r", ((tid * 7 + k) % 48) * LINE)
                    yield ("w", ((k * 3 + tid) % 48) * LINE)
                yield ("b", 0)

            return gen()

        sim = build([prog(t) for t in range(4)])
        sim.check_every = 25
        sim.run()
        sim.machine.check_consistency()


class TestTeardown:
    @pytest.mark.parametrize("machine", ["coma", "hcoma", "numa"])
    def test_finished_run_is_freed_by_reference_counting(self, machine):
        # A machine caught in a reference cycle lives until the next full
        # cyclic collection, so back-to-back runs pile machines up and the
        # peak footprint depends on how many ran before that collection.
        sim = build_simulation(RunSpec(workload="synth_migratory", machine=machine,
                                       scale=0.05, memory_pressure=0.875))
        sim.run()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            del sim
            gc.collect()
            cyclic = sorted({type(o).__qualname__ for o in gc.garbage
                             if type(o).__module__.startswith("repro.")})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert cyclic == []
