"""SPLASH-2-like workloads driving the program-driven simulation.

Each workload is a genuine parallel kernel: it allocates arrays in the
simulated shared address space, runs real computation on real data (kept
on the Python side), and emits the resulting loads/stores/synchronization
as events.  See DESIGN.md section 4 for the per-application mapping to the
paper's Table 1.
"""

from repro.workloads.base import SharedArray, Workload
from repro.workloads.registry import (
    register,
    get_workload,
    workload_names,
    paper_workloads,
)

# Import the concrete workloads so registration happens on package import.
from repro.workloads import (  # noqa: F401  (registration side effects)
    barnes,
    cholesky,
    fft,
    fmm,
    lu,
    ocean,
    radiosity,
    radix,
    raytrace,
    synth,
    volrend,
    water,
)

__all__ = [
    "SharedArray",
    "Workload",
    "register",
    "get_workload",
    "workload_names",
    "paper_workloads",
]
