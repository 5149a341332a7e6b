"""Tests for the consistency-model ablation (RC vs SC) and write-buffer
coalescing."""

from __future__ import annotations

import pytest

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.cpu.writebuffer import WriteBuffer
from repro.experiments.runner import RunSpec, build_simulation
from repro.sim.simulator import Simulation
from repro.sync.primitives import SyncSpace
from tests.conftest import make_machine


class TestConfigValidation:
    def test_consistency_values(self):
        MachineConfig(consistency="rc")
        MachineConfig(consistency="sc")
        with pytest.raises(ConfigError):
            MachineConfig(consistency="tso")


class TestCoalescingBuffer:
    def test_coalesces_same_line(self):
        wb = WriteBuffer(capacity=4, coalescing=True)
        wb.push(1000, line=7)
        assert wb.try_coalesce(7, now=0) is True
        assert wb.coalesced == 1
        assert wb.try_coalesce(8, now=0) is False

    def test_no_coalesce_after_retire(self):
        wb = WriteBuffer(capacity=4, coalescing=True)
        wb.push(100, line=7)
        assert wb.try_coalesce(7, now=200) is False, "write already completed"

    def test_disabled_by_default(self):
        wb = WriteBuffer(capacity=4)
        wb.push(1000, line=7)
        assert wb.try_coalesce(7, now=0) is False

    def test_drain_clears_line_tracking(self):
        wb = WriteBuffer(capacity=4, coalescing=True)
        wb.push(1000, line=7)
        wb.drain(0)
        assert wb.try_coalesce(7, now=0) is False

    def test_outstanding_line(self):
        wb = WriteBuffer(capacity=4, coalescing=True)
        wb.push(500, line=3)
        wb.push(900, line=3)
        assert wb.outstanding_line(3) == 900
        wb.prune(600)
        assert wb.outstanding_line(3) == 900, "newest write still pending"


class TestSequentialConsistency:
    def test_sc_slower_than_rc(self):
        """SC stalls on every write: the whole reason the paper assumes
        release consistency."""
        rc = build_simulation(
            RunSpec(workload="synth_private", scale=0.25, consistency="rc")
        ).run()
        sc = build_simulation(
            RunSpec(workload="synth_private", scale=0.25, consistency="sc")
        ).run()
        assert sc.elapsed_ns > rc.elapsed_ns * 1.2
        assert sc.counters["writes"] == rc.counters["writes"]

    def test_sc_charges_write_latency_to_levels(self):
        sc = build_simulation(
            RunSpec(workload="synth_private", scale=0.25, consistency="sc")
        ).run()
        m = sc.mean_stalls
        assert m["write"] == 0, "no buffered-write stalls under SC"
        # The write latency lands in the hit-level categories instead.
        assert m["slc"] + m["am"] + m["remote"] > 0


class TestCoalescedSimulation:
    def test_coalescing_reduces_memory_writes(self):
        """Repeated stores to a line inside the buffer window merge."""
        plain = build_simulation(
            RunSpec(workload="synth_private", scale=0.25)
        ).run()
        merged = build_simulation(
            RunSpec(workload="synth_private", scale=0.25,
                    write_buffer_coalescing=True)
        ).run()
        assert merged.counters["wb_coalesced"] > 0
        assert (
            merged.counters["writes"] + merged.counters["wb_coalesced"]
            == plain.counters["writes"]
        ), "every store is either issued or coalesced"

    def test_consistency_checks_still_pass(self):
        sim = build_simulation(
            RunSpec(workload="radix", scale=0.3, write_buffer_coalescing=True)
        )
        sim.check_every = 20_000
        sim.run()
        sim.machine.check_consistency()

    def test_one_prune_per_write(self, monkeypatch):
        """A coalescing write prunes its buffer once at issue, and once
        more only when it waits for a slot."""
        machine = make_machine(write_buffer_coalescing=True)
        stores = [("w", (k % 32) * 64) for k in range(400)]
        sim = Simulation(machine, [iter(stores)] + [iter(()) for _ in range(3)],
                         SyncSpace(machine.space, 64, 1, 1))
        writes = []  # per store reaching the buffer: [prunes, stall_ns]
        prune = WriteBuffer.prune
        try_coalesce = WriteBuffer.try_coalesce
        wait_for_slot = WriteBuffer.wait_for_slot

        def counted_prune(wb, now):
            writes[-1][0] += 1
            prune(wb, now)

        def counted_try(wb, line, now):
            writes.append([0, 0])
            return try_coalesce(wb, line, now)

        def counted_wait(wb, now):
            now, writes[-1][1] = wait_for_slot(wb, now)
            return now, writes[-1][1]

        monkeypatch.setattr(WriteBuffer, "prune", counted_prune)
        monkeypatch.setattr(WriteBuffer, "try_coalesce", counted_try)
        monkeypatch.setattr(WriteBuffer, "wait_for_slot", counted_wait)
        sim.run()
        free = [n for n, stall in writes if stall == 0]
        waited = [n for n, stall in writes if stall > 0]
        assert free and waited, "the stream must both fill and free the buffer"
        assert set(free) == {1}
        assert max(waited) <= 2
