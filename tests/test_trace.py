"""Tests for trace capture, persistence and replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import RunSpec, build_simulation
from repro.mem.address import AddressSpace
from repro.sim.simulator import Simulation
from repro.sync.primitives import SyncSpace
from repro.trace.capture import OP_CHARS, OP_CODES, capture_trace
from repro.trace.replay import replay_programs
from repro.trace.store import load_trace, save_trace
from repro.workloads.registry import get_workload


def captured(name="synth_private", scale=0.25):
    wl = get_workload(name, scale=scale)
    space = AddressSpace(page_size=2048)
    wl.allocate(space)
    return wl, space, capture_trace(wl, space)


class TestCapture:
    def test_opcode_tables_inverse(self):
        for ch, code in OP_CODES.items():
            assert OP_CHARS[code] == ch

    def test_capture_counts(self):
        wl, space, tr = captured()
        assert tr.n_threads == 16
        assert tr.total_events > 0
        assert tr.meta["workload"] == "synth_private"
        assert tr.meta["allocated_bytes"] == space.allocated_bytes

    def test_arrays_compact(self):
        _, _, tr = captured()
        assert tr.ops[0].dtype == np.uint8
        assert tr.args[0].dtype == np.int64

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_radix_failure_names_workload_and_thread(self, scale):
        """Sequential capture cannot run radix: thread 0's permutation
        indexes with prefix sums the later threads have not produced."""
        with pytest.raises(ValueError, match="radix .* thread 0") as info:
            captured("radix", scale)
        assert isinstance(info.value.__cause__, IndexError)


class TestStore:
    def test_round_trip(self, tmp_path):
        _, _, tr = captured()
        path = tmp_path / "trace.npz"
        save_trace(tr, path)
        back = load_trace(path)
        assert back.n_threads == tr.n_threads
        assert back.meta == tr.meta
        for t in range(tr.n_threads):
            assert np.array_equal(back.ops[t], tr.ops[t])
            assert np.array_equal(back.args[t], tr.args[t])


class TestReplay:
    def test_replay_equals_program_driven_for_barrier_workload(self, tmp_path):
        """For a barrier-only workload the interleaving freedom doesn't
        change the reference stream, so trace-driven and program-driven
        runs produce identical counters."""
        name, scale = "synth_private", 0.25
        direct = build_simulation(RunSpec(workload=name, scale=scale)).run()

        wl, space, tr = captured(name, scale)
        path = tmp_path / "t.npz"
        save_trace(tr, path)
        tr2 = load_trace(path)

        # Build an identical machine over a *fresh* identical address space.
        wl2 = get_workload(name, scale=scale)
        space2 = AddressSpace(page_size=2048)
        wl2.allocate(space2)
        sync = SyncSpace(space2, 64, wl2.n_locks, wl2.n_barriers)
        from repro.common.config import MachineConfig

        cfg = MachineConfig().sized_for(space2.allocated_bytes)
        from repro.coma.machine import ComaMachine

        machine = ComaMachine(cfg, space2)
        sim = Simulation(machine, replay_programs(tr2), sync)
        replayed = sim.run()

        assert replayed.counters["reads"] == direct.counters["reads"]
        assert replayed.counters["writes"] == direct.counters["writes"]
        assert (
            replayed.counters["node_read_misses"]
            == direct.counters["node_read_misses"]
        )
        assert replayed.traffic_bytes == direct.traffic_bytes

    def test_replay_different_clustering(self):
        """A captured trace replays against any machine configuration —
        the trace-driven frontend's whole point."""
        wl, space, tr = captured()
        from repro.common.config import MachineConfig
        from repro.coma.machine import ComaMachine

        wl2 = get_workload("synth_private", scale=0.25)
        space2 = AddressSpace(page_size=2048)
        wl2.allocate(space2)
        sync = SyncSpace(space2, 64, wl2.n_locks, wl2.n_barriers)
        cfg = MachineConfig(procs_per_node=4).sized_for(space2.allocated_bytes)
        machine = ComaMachine(cfg, space2)
        res = Simulation(machine, replay_programs(tr), sync).run()
        assert res.counters["reads"] > 0
        machine.check_consistency()
