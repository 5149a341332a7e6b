#!/usr/bin/env python3
"""Phase-resolved traffic: watch a workload's communication structure.

Run with::

    python examples/phase_timeline.py [workload]

Attaches a :class:`repro.obs.timeline.TimelineSampler` and renders bus
bandwidth over simulated time.  FFT shows its transpose bursts separated
by quiet compute phases; radix shows the histogram / permute
alternation; ocean shows the steady heartbeat of stencil sweeps with
multigrid dips.
"""

import sys

from repro.experiments.runner import RunSpec, build_simulation
from repro.obs import SharingProfiler, TimelineSampler, format_profile


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "fft"
    timeline = TimelineSampler()
    sharing = SharingProfiler()
    sim = build_simulation(RunSpec(workload=workload, memory_pressure=0.5))
    sim.attach(timeline, every=4000)
    sim.attach(sharing, every=4000)
    result = sim.run()
    timeline.sample(sim.machine)
    sharing.sample(sim.machine)

    print(f"workload: {workload}  (elapsed {result.elapsed_ns / 1e6:.3f} ms, "
          f"traffic {result.total_traffic_bytes / 1024:.1f} KiB)\n")

    # Difference adjacent samples of the cumulative bus_bytes column
    # into per-window bandwidth, rendered as a strip chart.
    t, total = timeline.t, timeline.cols.get("bus_bytes", [])
    windows = [
        (t[i - 1], t[i], total[i] - total[i - 1])
        for i in range(1, len(t))
        if t[i] > t[i - 1]
    ]
    if windows:
        peak_bw = max(
            1000.0 * nbytes / (end - start) for start, end, nbytes in windows
        )
        print(f"{'window (ms)':>21}  {'B/us':>8}  bandwidth")
        for start, end, nbytes in windows:
            bw = 1000.0 * nbytes / (end - start)
            bar = "#" * int(round(40 * bw / peak_bw)) if peak_bw else ""
            print(f"{start / 1e6:9.3f}-{end / 1e6:9.3f}  {bw:8.1f}  {bar}")
        best = max(windows, key=lambda w: 1000.0 * w[2] / (w[1] - w[0]))
        print(f"\npeak bandwidth window: {best[0] / 1e6:.3f}-"
              f"{best[1] / 1e6:.3f} ms at "
              f"{1000.0 * best[2] / (best[1] - best[0]):.1f} B/us")
    print()
    print(format_profile(sharing.report()))


if __name__ == "__main__":
    main()
