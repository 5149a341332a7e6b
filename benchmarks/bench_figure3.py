"""Figure 3: bus traffic vs memory pressure for the eight applications
where clustering stays effective.

Paper shape: traffic grows with memory pressure (reads + replacements);
4-processor nodes show consistently lower global traffic; no replacements
at 6.25 % MP.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.experiments.common import FIGURE3_APPS, MP_SWEEP
from repro.experiments.figure3 import format_figure3, run_figure3


def test_figure3(benchmark, bench_scale, results_dir):
    sweep = benchmark.pedantic(
        run_figure3, kwargs={"scale": bench_scale}, rounds=1, iterations=1
    )
    text = format_figure3(sweep)
    write_result(results_dir, "figure3.txt", text)
    print()
    print(text)

    for app in FIGURE3_APPS:
        # No replacement traffic at 6.25% MP (caches effectively infinite).
        low = sweep.get(app, 1, "6%")
        assert low.traffic_bytes["replace"] == 0, f"{app}: replacements at 6% MP"
        # Traffic grows from 6% to 87% MP for single-processor nodes.
        high = sweep.get(app, 1, "87%")
        assert high.total >= low.total, f"{app}: traffic should grow with MP"

    # Clustering reduces traffic for the large majority of (app, MP) points
    # up to 81% MP (the paper: all of them for this app group).
    wins = total = 0
    for app in FIGURE3_APPS:
        for label, _ in MP_SWEEP:
            if label == "87%":
                continue
            total += 1
            if sweep.get(app, 4, label).total <= sweep.get(app, 1, label).total * 1.05:
                wins += 1
    assert wins >= int(0.8 * total), f"clustering won only {wins}/{total} points"
