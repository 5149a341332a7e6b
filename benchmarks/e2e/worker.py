"""Child processes of the end-to-end benchmark: one fresh process per job.

    python3 benchmarks/e2e/worker.py MODE --workload NAME [--seed N]
                                     [--seconds S] [--scale F]

with ``src`` on ``PYTHONPATH``.  ``run.py`` starts these; MODE is one of

``setup``         build the workload's (first) simulation and print the
                  monotonic clock, so the parent can time interpreter
                  start, imports and ``build_simulation``
``measure``       run the workload back to back for ``--seconds`` (at least
                  three times), checking every result
``trace``         one untraced and one traced pass, the latter with the
                  host-time layer tracer installed; writes ``layers.json``
                  and ``trace.json`` under ``out/<workload>/``
``price``         price each observer on the ``observed`` spec against the
                  bare loop
``fingerprints``  rewrite ``fingerprints.json`` at the held-in and
                  held-out seeds (after a deliberate ``CACHE_VERSION`` bump)

Each mode prints one JSON object as the last line of its standard output.
Only the stable public API is used: ``RunSpec``, ``build_simulation``,
``Simulation.run``/``attach``, ``run_specs``, ``run_traffic_sweep``, the
observer classes and ``CACHE_VERSION``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from repro.experiments import runner
from repro.experiments.runner import CACHE_VERSION, RunSpec

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"

#: The four single-simulation workloads, all on the ``coma`` machine with
#: 16 processors; BENCHMARK.json and README.md say why each was chosen.
SIM_WORKLOADS: dict[str, dict] = {
    "local_hits": dict(workload="ocean_contig", scale=2.0, procs_per_node=4,
                       memory_pressure=13 / 16),
    "remote_reads": dict(workload="barnes", scale=0.5, procs_per_node=1,
                         memory_pressure=14 / 16),
    "replace_writes": dict(workload="radix", scale=1.0, procs_per_node=1,
                           memory_pressure=14 / 16),
    "observed": dict(workload="fft", scale=1.0, procs_per_node=4,
                     memory_pressure=13 / 16),
}
OBSERVED = "observed"
#: A Figure 3 slice: these apps x {1, 4} procs/node x 5 pressures.
FIGURE = "figure_cold"
FIGURE_APPS = ["fft", "radix", "water_n2"]
FIGURE_SCALE = 0.25
WORKLOADS = (*SIM_WORKLOADS, FIGURE)

DEFAULT_SEED = 1997
#: Fingerprints are stored for the seed the benchmark was written at and a
#: held-out seed that later gain claims must also pass.
FINGERPRINT_SEEDS = (1997, 4242)
MIN_REPEATS = 3
PRICE_ROUNDS = 3
PRICED = ("metrics", "attribution", "bounds", "sanitizer", "timeline")


def figure_jobs() -> int:
    """Pool workers for ``figure_cold``: two, or fewer on a smaller host."""
    return min(2, len(os.sched_getaffinity(0)))


def sim_spec(name: str, seed: int, scale: float = 1.0) -> RunSpec:
    fields = SIM_WORKLOADS[name]
    return RunSpec(seed=seed, **{**fields, "scale": fields["scale"] * scale})


def figure_specs(seed: int, scale: float = 1.0) -> list[RunSpec]:
    """The sweep's points in ``run_traffic_sweep``'s order."""
    from repro.experiments.common import MP_SWEEP

    return [
        RunSpec(workload=app, procs_per_node=ppn, memory_pressure=mp,
                scale=FIGURE_SCALE * scale, seed=seed)
        for app in FIGURE_APPS for ppn in (1, 4) for _label, mp in MP_SWEEP
    ]


def sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def workload_key(name: str, seed: int, scale: float) -> str:
    """The ``RunSpec.key()`` the workload runs (for ``figure_cold``, a hash
    of its points' keys); it changes with seed, scale and CACHE_VERSION."""
    if name == FIGURE:
        return sha256([s.key() for s in figure_specs(seed, scale)])[:24]
    return sim_spec(name, seed, scale).key()


def load_fingerprints() -> dict:
    if not FINGERPRINTS.exists():
        return {}
    return json.loads(FINGERPRINTS.read_text())


def expected_fingerprint(table: dict, name: str, seed: int,
                         scale: float) -> str | None:
    """The stored fingerprint for this run, or None when none applies."""
    entry = table.get("fingerprints", {}).get(f"{name}@{seed}")
    if (table.get("cache_version") != CACHE_VERSION or entry is None
            or entry["key"] != workload_key(name, seed, scale)):
        return None
    return entry["sha256"]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for
    (``figure_cold``'s pool workers), in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


# ----------------------------------------------------------------------
# one pass of a workload
# ----------------------------------------------------------------------

def attach_observed(sim):
    """What ``run --record`` and ``coma-sim attribute`` attach."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import StallAttribution

    att = StallAttribution(top_spans=4)
    sim.attach(MetricsRegistry())
    sim.attach(att)
    return att


def run_sim(name: str, spec: RunSpec) -> dict:
    """Build and run one simulation; ``wall_s`` covers both, the rate
    only ``Simulation.run``."""
    t0 = time.perf_counter()
    sim = runner.build_simulation(spec)
    att = attach_observed(sim) if name == OBSERVED else None
    t1 = time.perf_counter()
    result = sim.run()
    t2 = time.perf_counter()
    return {
        "results": [result],
        "fingerprint": sha256(result.to_dict()),
        "events": sim.events_processed,
        "events_per_s": sim.events_processed / (t2 - t1),
        "wall_s": t2 - t0,
        "problems": att.conservation_errors() if att is not None else [],
    }


def run_figure(seed: int, scale: float, jobs: int, collect: bool = True) -> dict:
    """Regenerate the figure slice cold: a fresh disk cache and a cleared
    memory cache.  ``collect`` re-reads the full results from the memory
    cache afterwards (untimed) to count the simulated references."""
    from repro.experiments import figure3
    from repro.experiments.parallel import run_specs

    specs = figure_specs(seed, scale)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    os.environ["REPRO_CACHE_DIR"] = cache
    runner.clear_memory_cache()
    problems = []
    try:
        with runner.tally_cache_stats() as tally:
            t0 = time.perf_counter()
            sweep = figure3.run_traffic_sweep(
                FIGURE_APPS, scale=FIGURE_SCALE * scale, seed=seed, jobs=jobs)
            wall = time.perf_counter() - t0
        if tally.misses != len(specs):
            problems.append(f"{tally.misses} cache misses, want {len(specs)}")
        results = []
        if collect:
            with runner.tally_cache_stats() as again:
                results = run_specs(specs, progress=False)
            if again.memory_hits != len(specs):
                problems.append("the sweep ran other points than figure_specs()")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    # Every point's simulated memory references stand in for its kernel
    # events: the sweep API returns results, not simulations.
    refs = sum(r.counters["reads"] + r.counters["writes"] + r.counters["atomics"]
               for r in results)
    return {
        "results": results,
        "fingerprint": sha256([asdict(p) for p in sweep.points]),
        "events": refs,
        "events_per_s": refs / wall,
        "wall_s": wall,
        "cache_misses": tally.misses,
        "problems": problems,
    }


def run_once(name: str, seed: int, scale: float, jobs: int | None = None,
             collect: bool = True) -> dict:
    if name == FIGURE:
        return run_figure(seed, scale, figure_jobs() if jobs is None else jobs,
                          collect)
    return run_sim(name, sim_spec(name, seed, scale))


def simulated_counts(results: list, events: int) -> dict[str, float]:
    """Exact simulated per-layer counts, summed over a sweep's points."""
    c: dict[str, int] = {}
    for r in results:
        for k, v in r.counters.items():
            c[k] = c.get(k, 0) + v
    reads, writes = c["reads"], c["writes"]
    accesses = reads + writes + c["atomics"]
    return {
        "sim.events": events,
        "sim.elapsed_ns": sum(r.elapsed_ns for r in results),
        "coma.l1_hit_frac": c["l1_read_hits"] / reads,
        "coma.slc_hit_frac": c["slc_read_hits"] / reads,
        "coma.am_hit_frac": (c["am_read_hits"] + c["overflow_read_hits"]) / reads,
        "coma.node_miss_frac": c["node_read_misses"] / reads,
        "coma.write_node_miss_frac": c["node_write_misses"] / writes,
        "coma.replacement.per_kaccess": 1000 * c["replacements"] / accesses,
        "bus.transactions": sum(sum(r.traffic_counts.values()) for r in results),
        "bus.utilization": statistics.fmean(r.bus_utilization for r in results),
    }


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def setup(name: str, seed: int, scale: float) -> dict:
    spec = figure_specs(seed, scale)[0] if name == FIGURE else sim_spec(name, seed, scale)
    runner.build_simulation(spec)
    return {"t": time.monotonic()}


def measure(name: str, seed: int, seconds: float, scale: float = 1.0,
            fingerprints: dict | None = None) -> dict:
    """Closed loop, one caller: passes back to back until ``seconds`` have
    passed and at least :data:`MIN_REPEATS` were attempted.

    A pass fails when it raises, when its fingerprint differs from the
    stored one (or, with none stored, from the first pass), when the
    ``observed`` result differs from the bare result of the same spec,
    when span attribution does not conserve, or when ``figure_cold``
    simulated other than every point.  Failed passes give no samples.
    """
    table = load_fingerprints() if fingerprints is None else fingerprints
    want = expected_fingerprint(table, name, seed, scale)
    bare = None
    if name == OBSERVED:  # untimed reference for observer invariance
        bare = sha256(runner.build_simulation(sim_spec(name, seed, scale)).run().to_dict())
    first = None
    failures: list[str] = []
    samples: dict[str, list[float]] = {"events_per_s": [], "wall_s": []}
    counts = None
    attempted = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_REPEATS or time.perf_counter() < deadline:
        attempted += 1
        try:
            run = run_once(name, seed, scale)
        except Exception as exc:  # a failed pass is a result, not a crash
            traceback.print_exc()
            failures.append(f"pass {attempted} raised {type(exc).__name__}: {exc}")
            break
        fp = run["fingerprint"]
        problems = list(run["problems"])
        if want is not None and fp != want:
            problems.append(f"fingerprint {fp[:12]} != stored {want[:12]}")
        if bare is not None and fp != bare:
            problems.append("observers changed the result")
        if first is None:
            first = fp
        elif fp != first:
            problems.append(f"fingerprint {fp[:12]} != first pass {first[:12]}")
        if problems:
            failures.append(f"pass {attempted}: " + "; ".join(problems))
            continue
        samples["events_per_s"].append(run["events_per_s"])
        samples["wall_s"].append(run["wall_s"])
        if counts is None:
            counts = simulated_counts(run["results"], run["events"])
            if "cache_misses" in run:
                counts["experiments.cache_misses"] = run["cache_misses"]
    return {
        "workload": name, "seed": seed, "scale": scale, "cache_version": CACHE_VERSION,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "verified": want is not None, "fingerprint": first,
        "samples": samples, "counts": counts, "peak_rss_mb": peak_rss_mb(),
    }


def trace(name: str, seed: int, scale: float) -> dict:
    """An untraced pass, then the same pass with the layer tracer.

    ``figure_cold`` runs serially here so every layer is in this process.
    The traced result must equal the untraced one, and the layer shares
    must sum to 100 % +- 0.5.
    """
    from layers import HostTracer

    plain = run_once(name, seed, scale, jobs=1, collect=False)
    tracer = HostTracer()
    tracer.install()
    traced = run_once(name, seed, scale, jobs=1, collect=False)
    problems = list(traced["problems"])
    if traced["fingerprint"] != plain["fingerprint"]:
        problems.append("tracing changed the result")
    table = tracer.table()
    shares = sum(row["share"] for row in table.values())
    if abs(shares - 1) > 0.005:
        problems.append(f"layer shares sum to {100 * shares:.2f} %")
    run = tracer.call("sim", "run")
    experiments = {
        "experiments.build_s": tracer.call("experiments", "build_simulation")["total_s"],
        "experiments.simulate_s": run["total_s"],
        "experiments.overhead_s": tracer.call("experiments", "run_spec")["self_s"],
        "experiments.points": run["calls"],
    }
    files = tracer.write(OUT_DIR / name, {"workload": name, "seed": seed,
                                          "scale": scale, "wall_s": traced["wall_s"]})
    return {
        "attempted": 1, "failed": int(bool(problems)), "failures": problems,
        "layers": table, "share_sum": shares, "experiments": experiments,
        "wall_s": traced["wall_s"], "untraced_wall_s": plain["wall_s"],
        "root_s": tracer.root_ns[0] / 1e9,
        "files": [str(f.relative_to(HERE.parents[1])) for f in files],
    }


def _attach_priced(kind: str, sim, spec: RunSpec):
    """Attach one observer; return a callable listing what it found wrong."""
    if kind == "metrics":
        from repro.obs.metrics import MetricsRegistry

        sim.attach(MetricsRegistry())
    elif kind == "attribution":
        from repro.obs.spans import StallAttribution

        att = StallAttribution(top_spans=4)
        sim.attach(att)
        return att.conservation_errors
    elif kind == "bounds":
        from repro.analysis.bounds import BoundsCertifier, envelope_for

        cert = BoundsCertifier(envelope_for(spec.machine, sim.machine.config.timing))
        sim.attach(cert)

        def bounds_problems():
            cert.finalize()
            return [] if cert.ok() else [f"bounds violations {cert.counts()}"]

        return bounds_problems
    elif kind == "sanitizer":
        from repro.analysis.sanitize import sanitizer_for

        san = sanitizer_for(sim)
        sim.attach(san)
        return lambda: [f"sanitizer {f.rule}: {f.message}" for f in san.finish().findings]
    elif kind == "timeline":
        from repro.obs.timeline import TimelineSampler

        sim.attach(TimelineSampler(), every=500)  # the CLI's cadence
    elif kind == "observed":
        return attach_observed(sim).conservation_errors
    return list


def price(seed: int, scale: float) -> dict:
    """Median of :data:`PRICE_ROUNDS` runs of the ``observed`` spec bare,
    with each observer alone, and with the ``observed`` pair, in
    interleaved rounds.  Every observed result must equal the bare one."""
    spec = sim_spec(OBSERVED, seed, scale)
    kinds = ("bare", *PRICED, "observed")
    walls: dict[str, list[float]] = {k: [] for k in kinds}
    failures: list[str] = []
    bare_fp = events = None
    for _ in range(PRICE_ROUNDS):
        for kind in kinds:
            sim = runner.build_simulation(spec)
            check = _attach_priced(kind, sim, spec)
            t0 = time.perf_counter()
            result = sim.run()
            walls[kind].append(time.perf_counter() - t0)
            fp = sha256(result.to_dict())
            if kind == "bare":
                bare_fp, events = fp, sim.events_processed
            problems = list(check())
            if fp != bare_fp:
                problems.append("observer changed the result")
            if problems:
                failures.append(f"{kind}: " + "; ".join(problems))
    med = {k: statistics.median(v) for k, v in walls.items()}
    prices = {f"obs.{k}.ns_per_event": (med[k] - med["bare"]) / events * 1e9
              for k in PRICED}
    prices["obs.share"] = (med["observed"] - med["bare"]) / med["observed"]
    return {"attempted": PRICE_ROUNDS * len(kinds), "failed": len(failures),
            "failures": failures, "prices": prices, "bare_s": med["bare"]}


def write_fingerprints() -> dict:
    """Fingerprint every workload at :data:`FINGERPRINT_SEEDS`."""
    entries = {}
    for name in WORKLOADS:
        for seed in FINGERPRINT_SEEDS:
            run = run_once(name, seed, 1.0, jobs=1, collect=False)
            entries[f"{name}@{seed}"] = {"key": workload_key(name, seed, 1.0),
                                         "sha256": run["fingerprint"]}
    table = {"cache_version": CACHE_VERSION, "fingerprints": entries}
    FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return table


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("setup", "measure", "trace", "price", "fingerprints"))
    p.add_argument("--workload", choices=WORKLOADS, default=OBSERVED)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)
    a = p.parse_args(argv)
    if a.mode == "setup":
        out = setup(a.workload, a.seed, a.scale)
    elif a.mode == "measure":
        out = measure(a.workload, a.seed, a.seconds, a.scale)
    elif a.mode == "trace":
        out = trace(a.workload, a.seed, a.scale)
    elif a.mode == "price":
        out = price(a.seed, a.scale)
    else:
        out = write_fingerprints()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
