#!/usr/bin/env python3
"""Everything the paper says about one application, in one run matrix.

Run with::

    python examples/clustering_deep_dive.py [workload]

For a single application this reproduces, side by side: the Figure-2
RNMr effect, the Figure-3/4 traffic story across the pressure sweep, the
Figure-5 execution-time recovery, the 8-way associativity fix, and the
non-inclusive-hierarchy fix.
"""

import sys

from repro import RunSpec, run_spec

MPS = [("6%", 1 / 16), ("50%", 8 / 16), ("81%", 13 / 16), ("87%", 14 / 16)]


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "volrend"
    base = RunSpec(workload=app, dram_bandwidth_factor=2.0)

    print(f"=== {app}: the paper's story in numbers ===\n")

    # Figure 2: RNMr at low pressure.
    r1 = run_spec(base.with_(memory_pressure=1 / 16))
    r4 = run_spec(base.with_(memory_pressure=1 / 16, procs_per_node=4))
    print("Figure 2 — relative RNMr at 6.25% MP:")
    print(f"  1p {100 * r1.read_node_miss_rate:6.2f}%   "
          f"4p {100 * r4.read_node_miss_rate:6.2f}%   "
          f"(relative {100 * r4.read_node_miss_rate / max(1e-12, r1.read_node_miss_rate):5.1f}%)\n")

    # Figures 3/4: traffic sweep.
    print("Figures 3/4 — bus traffic (KiB) across memory pressure:")
    print(f"{'MP':>5s} {'1p total':>9s} {'4p total':>9s} {'4p read':>8s} {'4p repl':>8s}")
    for label, mp in MPS:
        t1 = run_spec(base.with_(memory_pressure=mp))
        t4 = run_spec(base.with_(memory_pressure=mp, procs_per_node=4))
        print(
            f"{label:>5s} {t1.total_traffic_bytes / 1024:9.1f} "
            f"{t4.total_traffic_bytes / 1024:9.1f} "
            f"{t4.traffic_bytes['read'] / 1024:8.1f} "
            f"{t4.traffic_bytes['replace'] / 1024:8.1f}"
        )

    # The two fixes at 87.5% MP.
    t4 = run_spec(base.with_(memory_pressure=14 / 16, procs_per_node=4))
    t8 = run_spec(base.with_(memory_pressure=14 / 16, procs_per_node=4, am_assoc=8))
    tni = run_spec(
        base.with_(memory_pressure=14 / 16, procs_per_node=4, inclusive=False)
    )
    print("\nAt 87.5% MP (4p nodes):")
    print(f"  4-way AM        : {t4.total_traffic_bytes / 1024:9.1f} KiB  "
          f"(conflict misses {100 * t4.miss_class_fractions['conflict']:4.1f}% of read misses)")
    print(f"  8-way AM        : {t8.total_traffic_bytes / 1024:9.1f} KiB")
    print(f"  non-inclusive   : {tni.total_traffic_bytes / 1024:9.1f} KiB")

    # Figure 5: execution-time recovery.
    e50 = run_spec(base.with_(memory_pressure=8 / 16))
    e81 = run_spec(base.with_(memory_pressure=13 / 16))
    c81 = run_spec(base.with_(memory_pressure=13 / 16, procs_per_node=4))
    ref = sum(e50.figure5_breakdown.values())
    print("\nFigure 5 — execution time (normalized to 1p @ 50% MP):")
    for label, r in (("1p 50%", e50), ("1p 81%", e81), ("4p 81%", c81)):
        bd = r.figure5_breakdown
        total = sum(bd.values())
        print(
            f"  {label:7s} {100 * total / ref:6.1f}%   "
            f"(remote stall {100 * bd['remote'] / total:4.1f}% of it)"
        )


if __name__ == "__main__":
    main()
