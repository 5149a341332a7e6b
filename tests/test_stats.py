"""Tests for counters, metrics, results serialization and reporting."""

from __future__ import annotations

import pytest

from repro.experiments.figure2 import Figure2Row
from repro.experiments.runner import RunSpec, build_simulation
from repro.sim.results import SimulationResult, render_run_report
from repro.timing.accounting import Counters


class TestCounters:
    def test_start_at_zero(self):
        c = Counters()
        assert all(v == 0 for v in c.as_dict().values())

    def test_as_dict_keys_sorted(self):
        keys = list(Counters().as_dict())
        assert keys == sorted(keys)

    def test_repr_uses_sorted_nonzero_keys(self):
        c = Counters()
        c.writes = 3
        c.reads = 9
        assert repr(c) == "Counters({'reads': 9, 'writes': 3})"

    def test_read_miss_classified(self):
        c = Counters()
        c.read_miss_cold = 1
        c.read_miss_conflict = 2
        assert c.read_miss_classified == 3


@pytest.fixture(scope="module")
def small_result() -> SimulationResult:
    sim = build_simulation(
        RunSpec(workload="synth_private", scale=0.25, memory_pressure=0.5)
    )
    return sim.run()


class TestResults:
    def test_round_trip(self, small_result):
        d = small_result.to_dict()
        back = SimulationResult.from_dict(d)
        assert back.elapsed_ns == small_result.elapsed_ns
        assert back.counters == small_result.counters
        assert back.read_node_miss_rate == small_result.read_node_miss_rate

    def test_json_serializable(self, small_result):
        import json

        json.dumps(small_result.to_dict())

    def test_rnmr_bounds(self, small_result):
        assert 0.0 <= small_result.read_node_miss_rate <= 1.0

    def test_mean_stalls_keys(self, small_result):
        assert set(small_result.mean_stalls) == {
            "busy", "slc", "am", "remote", "sync", "write",
        }

    def test_miss_class_fractions_sum(self, small_result):
        fr = small_result.miss_class_fractions
        assert sum(fr.values()) == pytest.approx(1.0, abs=1e-9)


class TestMetrics:
    def test_relative_rnmr(self, small_result):
        """Figure 2's relative RNMr lives on ``Figure2Row``: a run against
        itself is 1.0, and a zero base reads as no change."""
        rnmr = small_result.read_node_miss_rate
        row = Figure2Row("synth_private", rnmr, rnmr, rnmr)
        assert row.relative_2 == pytest.approx(1.0)
        assert row.relative_4 == pytest.approx(1.0)
        assert Figure2Row("x", 0.0, 0.5, 0.0).relative_2 == 1.0

    def test_figure5_breakdown_folds_sync_into_busy(self, small_result):
        bd = small_result.figure5_breakdown
        m = small_result.mean_stalls
        assert bd["busy"] == pytest.approx(m["busy"] + m["sync"] + m["write"])
        assert set(bd) == {"busy", "slc", "am", "remote"}


class TestReport:
    def test_render_contains_key_metrics(self, small_result):
        text = render_run_report(small_result)
        assert "RNMr" in text
        assert "traffic" in text
        assert "time split" in text
        assert "working set" in text
