"""Tests for the simulated-time timeline sampler as a kernel profiler."""

from __future__ import annotations

import pytest
from tests.conftest import make_machine

from repro.experiments.runner import RunSpec, build_simulation
from repro.obs.profiler import SharingProfiler
from repro.obs.sink import TeeSink
from repro.obs.timeline import TimelineSampler, format_timeline_series


def _sampler(t, busy, nbytes, accesses=None, misses=None) -> TimelineSampler:
    tl = TimelineSampler()
    n = len(t)
    tl.t = list(t)
    tl.cols = {
        "bus_busy_ns": list(busy),
        "bus_bytes": list(nbytes),
        "accesses": list(accesses or range(0, 10 * n, 10)),
        "node_misses": list(misses or [0] * n),
    }
    return tl


class TestWindows:
    def test_differencing(self):
        tl = _sampler([0, 1000, 3000], [0, 500, 1500], [0, 120, 328],
                      accesses=[0, 10, 30], misses=[0, 5, 8])
        ws = tl.series()
        assert len(ws) == 2
        assert ws[0]["bus_utilization"] == pytest.approx(0.5)
        assert ws[1]["bus_utilization"] == pytest.approx(0.5)
        assert ws[0]["miss_rate"] == pytest.approx(0.5)
        assert ws[1]["miss_rate"] == pytest.approx(0.15)
        assert ws[1]["start_ns"] == 1000 and ws[1]["end_ns"] == 3000

    def test_non_advancing_samples_skipped(self):
        m = make_machine()
        tl = TimelineSampler()
        for now in (1000, 500, 1000, 2000):  # a wakeup can rewind now
            m.now = now
            tl.sample(m)
        assert tl.t == [1000, 2000]
        assert len(tl.series()) == 1

    def test_bandwidth(self):
        tl = _sampler([0, 1000], [0, 0], [0, 2048])
        (w,) = tl.series()
        assert w["bandwidth_bytes_per_us"] == pytest.approx(2048.0)


class TestAttachedToSimulation:
    def test_captures_phases(self):
        tl = TimelineSampler()
        sim = build_simulation(RunSpec(workload="fft", scale=0.5))
        sim.attach(tl, every=3000)
        res = sim.run()
        tl.sample(sim.machine)  # closing sample
        ws = tl.series()
        assert len(ws) >= 3, "several sample windows over the run"
        assert tl.cols["bus_bytes"][-1] <= res.total_traffic_bytes
        assert max(w["bandwidth_bytes_per_us"] for w in ws) > 0

    def test_composite_profiler(self):
        tl = TimelineSampler()
        sp = SharingProfiler()
        sim = build_simulation(RunSpec(workload="synth_private", scale=0.25))
        sim.attach(tl, every=2000)
        sim.attach(sp)
        assert isinstance(sim.profiler, TeeSink)
        sim.run()
        assert len(tl.t) > 0
        assert sp.samples >= len(tl.t)

    def test_format(self):
        tl = TimelineSampler()
        sim = build_simulation(RunSpec(workload="synth_private", scale=0.25))
        sim.attach(tl, every=2000)
        sim.run()
        tl.sample(sim.machine)
        text = format_timeline_series(tl)
        assert "bus utilization over simulated time" in text
