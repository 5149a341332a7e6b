"""Golden regression tests: bit-exact results for fixed configurations.

The simulator is deterministic, so these runs must reproduce the stored
counters, traffic and elapsed time exactly.  Any legitimate change to the
timing or protocol semantics will trip them — that is the point: it makes
behavioural drift a conscious decision.

To regenerate after an intentional change (and bump
``repro.experiments.runner.CACHE_VERSION`` at the same time!)::

    python tests/data/regen_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.runner import RunSpec, build_simulation

DATA = Path(__file__).parent / "data" / "golden_runs.json"

#: Must match tests/data/regen_golden.py exactly.
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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_run(name: str, golden: dict) -> None:
    r = build_simulation(SPECS[name]).run()
    expect = golden[name]
    assert r.counters == expect["counters"], (
        f"{name}: counters drifted — if intentional, regenerate the golden "
        "data and bump CACHE_VERSION"
    )
    assert r.traffic_bytes == expect["traffic_bytes"], f"{name}: traffic drifted"
    assert r.elapsed_ns == expect["elapsed_ns"], f"{name}: timing drifted"
