#!/usr/bin/env python3
"""The section-4.2 replication thresholds, analytically and empirically.

Run with::

    python examples/replication_thresholds.py

The paper's key arithmetic: a line can be replicated in all N nodes only
while the machine-wide ways of its set have room for N copies, i.e. up to
memory pressure (W - N + 1)/W where W = nodes x associativity.  This
script prints the closed-form thresholds for the paper's configurations,
then *measures* them: it runs a hotspot workload (every processor reads a
hot shared set) across the pressure sweep with the sharing profiler
attached and reports the observed maximum replication degree next to the
analytic cap.
"""

from repro.analytic.replication import (
    max_replication_degree,
    paper_thresholds,
    replication_threshold,
)
from repro.experiments.runner import RunSpec, build_simulation
from repro.obs import SharingProfiler


def main() -> None:
    print("Analytic thresholds (paper section 4.2):")
    for label, frac in paper_thresholds().items():
        print(f"  {label:18s} {str(frac):>8s} = {100 * float(frac):5.1f}%")
    print()

    print("Clustering moves the wall: 4-processor clusters keep full")
    print("replication feasible up to "
          f"{100 * float(replication_threshold(4, 4)):.2f}% MP vs "
          f"{100 * float(replication_threshold(16, 4)):.2f}% for 16 nodes.\n")

    print("Empirical check (synth_hotspot, 16 x 1-processor nodes, 4-way AMs):")
    print(f"{'MP':>7s} {'analytic cap':>13s} {'observed max':>13s} {'mean degree':>12s}")
    for mp in (1 / 16, 8 / 16, 12 / 16, 13 / 16, 14 / 16):
        prof = SharingProfiler()
        sim = build_simulation(
            RunSpec(workload="synth_hotspot", memory_pressure=mp, scale=0.75)
        )
        sim.attach(prof, every=2000)
        sim.run()
        prof.sample(sim.machine)
        rep = prof.report()
        cfg = sim.machine.config
        cap = max_replication_degree(cfg.n_nodes, cfg.am_assoc, mp)
        print(
            f"{100 * mp:6.2f}% {cap:13d} {rep.max_degree:13d} "
            f"{rep.mean_degree:12.2f}"
        )
    print("\nThe observed maximum tracks the closed-form cap: the paper's")
    print("conflict-miss story at 87.5% MP is exactly this wall.")


if __name__ == "__main__":
    main()
