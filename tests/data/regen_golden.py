#!/usr/bin/env python3
"""Regenerate tests/data/golden_runs.json after an intentional semantic
change.  Keep SPECS in sync with tests/test_golden.py, and bump
``repro.experiments.runner.CACHE_VERSION`` in the same commit."""

import json
from pathlib import Path

from repro.experiments.runner import RunSpec, build_simulation

SPECS = {
    "fft_1p_50": RunSpec(
        workload="fft", scale=0.5, procs_per_node=1, memory_pressure=0.5
    ),
    "barnes_4p_87": RunSpec(
        workload="barnes", scale=0.4, procs_per_node=4, memory_pressure=14 / 16
    ),
    "radix_2p_75_noninc": RunSpec(
        workload="radix",
        scale=0.3,
        procs_per_node=2,
        memory_pressure=0.75,
        inclusive=False,
    ),
    "hotspot_hcoma": RunSpec(workload="synth_hotspot", scale=0.3, machine="hcoma"),
    "fft_2p_sc": RunSpec(
        workload="fft", scale=0.25, procs_per_node=2, consistency="sc"
    ),
    "fft_2p_wb_coalescing": RunSpec(
        workload="fft", scale=0.25, procs_per_node=2, write_buffer_coalescing=True
    ),
    "fft_2p_87_am_lru": RunSpec(
        workload="fft",
        scale=0.25,
        procs_per_node=2,
        memory_pressure=14 / 16,
        am_victim_policy="lru",
    ),
    "fft_2p_87_random_receiver": RunSpec(
        workload="fft",
        scale=0.25,
        procs_per_node=2,
        memory_pressure=14 / 16,
        replacement_receiver_policy="random",
    ),
}


def main() -> None:
    golden = {}
    for name, spec in SPECS.items():
        r = build_simulation(spec).run()
        golden[name] = {
            "elapsed_ns": r.elapsed_ns,
            "counters": r.counters,
            "traffic_bytes": r.traffic_bytes,
        }
    out = Path(__file__).parent / "golden_runs.json"
    out.write_text(json.dumps(golden, indent=1, sort_keys=True))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
