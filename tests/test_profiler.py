"""Tests for the sharing/replication profiler."""

from __future__ import annotations

import pytest

from repro.analytic.replication import max_replication_degree
from repro.experiments.runner import RunSpec, build_simulation
from repro.obs import SharingProfiler, format_profile
from tests.conftest import make_machine

LINE = 64


class TestProfilerMechanics:
    def test_degree_tracking(self):
        m = make_machine(n_processors=4, procs_per_node=1, am_sets=8)
        prof = SharingProfiler()
        m.read(0, 0, 0)
        prof.sample(m)
        for proc in (1, 2, 3):
            m.read(proc, 0, 1000 * proc)
        prof.sample(m)
        rep = prof.report()
        assert rep.max_degree == 4, "owner + three sharers"
        assert rep.samples == 2

    def test_migration_tracking(self):
        m = make_machine(n_processors=4, procs_per_node=1, am_sets=8)
        prof = SharingProfiler()
        m.read(0, 0, 0)
        prof.sample(m)
        m.write(3, 0, 1000)  # ownership moves node 0 -> node 3
        prof.sample(m)
        rep = prof.report()
        assert rep.migrations == 1
        assert rep.top_migrators[0][0] == 0  # line 0

    def test_am_composition_fractions_sum(self):
        m = make_machine()
        m.read(0, 0, 0)
        prof = SharingProfiler()
        prof.sample(m)
        rep = prof.report()
        assert sum(rep.am_composition.values()) == pytest.approx(1.0)

    def test_degree_fraction_at_least(self):
        prof = SharingProfiler()
        prof._degree_hist[1] = 3
        prof._degree_hist[4] = 1
        rep = prof.report()
        assert rep.degree_fraction_at_least(2) == pytest.approx(0.25)
        assert rep.degree_fraction_at_least(1) == pytest.approx(1.0)

    def test_format(self):
        prof = SharingProfiler()
        m = make_machine()
        m.read(0, 0, 0)
        prof.sample(m)
        text = format_profile(prof.report())
        assert "replication degree" in text
        assert "AM way composition" in text


class TestProfiledSimulation:
    def _profiled_run(self, memory_pressure: float):
        prof = SharingProfiler()
        sim = build_simulation(
            RunSpec(
                workload="synth_hotspot",
                memory_pressure=memory_pressure,
                scale=0.5,
            )
        )
        sim.attach(prof, every=2000)
        sim.run()
        prof.sample(sim.machine)  # final snapshot
        return prof.report(), sim.machine.config

    def test_hotspot_replicates_widely_at_low_pressure(self):
        rep, cfg = self._profiled_run(1 / 16)
        assert rep.max_degree >= cfg.n_nodes // 2, (
            "hot lines replicate into many nodes when space is plentiful"
        )

    def test_replication_capped_at_high_pressure(self):
        """Empirical replication degree respects the analytic cap of
        section 4.2 (with slack for the victim overflow machinery)."""
        rep_low, cfg = self._profiled_run(1 / 16)
        rep_high, _ = self._profiled_run(14 / 16)
        assert rep_high.mean_degree <= rep_low.mean_degree, (
            "high pressure suppresses replication on average"
        )
        cap = max_replication_degree(cfg.n_nodes, cfg.am_assoc, 14 / 16)
        # The cap is a per-set average argument; allow generous slack but
        # require the qualitative squeeze relative to low pressure.
        assert rep_high.max_degree <= cfg.n_nodes
        assert rep_high.degree_fraction_at_least(cap + 2) <= (
            rep_low.degree_fraction_at_least(cap + 2) + 0.05
        )
