#!/usr/bin/env python3
"""Quickstart: simulate one workload on the paper's machine and inspect
the headline metrics.

Run with::

    python examples/quickstart.py

What it shows
-------------
* building a :class:`repro.RunSpec` (workload + machine shape),
* the read node miss rate (RNMr) — the paper's attraction-memory
  efficiency metric,
* the global bus traffic split (read / write / replacement),
* the execution-time breakdown of Figure 5.
"""

from repro import RunSpec, run_spec
from repro.sim.results import render_run_report


def main() -> None:
    # The paper's baseline: 16 processors, one per node, 50% memory
    # pressure, 4-way set-associative attraction memories.
    spec = RunSpec(workload="fft", procs_per_node=1, memory_pressure=8 / 16)
    result = run_spec(spec)
    print(render_run_report(result))

    # Now cluster 4 processors behind each attraction memory and compare.
    clustered = run_spec(spec.with_(procs_per_node=4))
    print()
    print("=== clustering effect (FFT, 50% memory pressure) ===")
    print(f"RNMr     1 proc/node : {100 * result.read_node_miss_rate:6.2f}%")
    print(f"RNMr     4 proc/node : {100 * clustered.read_node_miss_rate:6.2f}%")
    print(f"traffic  1 proc/node : {result.total_traffic_bytes / 1024:8.1f} KiB")
    print(f"traffic  4 proc/node : {clustered.total_traffic_bytes / 1024:8.1f} KiB")

    bd = clustered.figure5_breakdown
    total = sum(bd.values())
    print("time split (4 proc/node): " + ", ".join(
        f"{k} {100 * v / total:.1f}%" for k, v in bd.items()
    ))


if __name__ == "__main__":
    main()
