"""End-to-end host-time benchmark of the COMA simulator.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--scale F] [--out FILE]

Runs each workload named in ``BENCHMARK.json`` (default: all of them) in
fresh subprocesses: five that only start Python and build the simulation
(``setup_s``), then one that runs the workload back to back for
``--seconds`` and checks every result (``events_per_s``, ``wall_s``,
``peak_rss_mb``).  Load is a closed loop with one caller; only
``figure_cold`` uses a process pool, of at most two workers.  ``--trace``
adds a traced subprocess, which splits host time across the simulator's
layers, and one that prices each observer.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object, ``{"correct", "attempted", "failed",
"metrics"}``, holding the end-to-end metrics (with ``--trace``, the
per-layer metrics instead); ``--out`` writes every sample as JSON for
``compare.py``.  The source tree is found beside this file; the exit code
is 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_PROBES = 5
#: Wall-clock budget of one workload, subprocesses included.
WORKLOAD_BUDGET_S = 170.0
#: The simulated quantity that proves a layer did work: a layer with no
#: wrapped calls while this is positive was bypassed by a fused path.
LAYER_WORK = {
    "experiments": "sim.events", "sim": "sim.events", "workloads": "sim.events",
    "cpu": "sim.events", "coma": "sim.events",
    "coma.replacement": "coma.replacement.per_kaccess", "bus": "bus.transactions",
}
#: Printed and kept in ``--out`` but not in BENCHMARK.json: they mean
#: something for ``figure_cold`` only (``run_spec`` and the pool).
EXTRA_UNITS = {"experiments.cache_misses": "count", "experiments.overhead_s": "s",
               "experiments.parallel_speedup": "ratio"}


def child(mode: str, name: str, args: argparse.Namespace, deadline: float,
          seconds: float = 0.0) -> tuple[dict | None, str | None]:
    """Run one worker subprocess; return its JSON result or an error.

    The worker gets its own session so that on timeout or interrupt its
    whole process group, pool workers included, is killed and reaped.
    """
    cmd = [sys.executable, str(WORKER), mode, "--workload", name,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--scale", str(args.scale)]
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return None, f"{mode} timed out"
        raise
    if proc.returncode != 0:
        return None, f"{mode} exited {proc.returncode}"
    return json.loads(out.strip().splitlines()[-1]), None


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Every measurement of one workload, as the record ``--out`` keeps.

    ``attempted`` counts the simulation passes the workers report, plus
    one for each subprocess that failed to report at all.
    """
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    t_start = time.monotonic()
    failures: list[str] = []
    attempted = 0
    setup = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        out, err = child("setup", name, args, deadline)
        if err:
            attempted += 1
            failures.append(err)
        else:
            setup.append(out["t"] - launched)
    m, err = child("measure", name, args, deadline, seconds=args.seconds)
    rec: dict = {"correct": False, "verified": False, "metrics": {}, "layers": {}}
    if err:
        attempted += 1
        failures.append(err)
    else:
        attempted += m["attempted"]
        failures += m["failures"]
        rec["verified"] = m["verified"]
        rec["fingerprint"] = m["fingerprint"]
        rec["cache_version"] = m["cache_version"]
        samples = {**m["samples"], "setup_s": setup, "peak_rss_mb": [m["peak_rss_mb"]]}
        for metric, values in samples.items():
            if values:
                q1, med, q3 = quartiles(values)
                rec["metrics"][metric] = {"value": med, "q1": q1, "q3": q3,
                                          "samples": values}
    rec["untraced_s"] = time.monotonic() - t_start
    if args.trace and not err:
        rec["bypassed"] = []
        t, terr = child("trace", name, args, deadline)
        p, perr = child("price", name, args, deadline)
        for part, part_err in ((t, terr), (p, perr)):
            if part_err:
                attempted += 1
                failures.append(part_err)
            else:
                attempted += part["attempted"]
                failures += part["failures"]
        layers = rec["layers"]
        if m["counts"] is not None:
            layers.update(m["counts"])
        if t is not None:
            for layer, row in t["layers"].items():
                for k, v in row.items():
                    layers[f"{layer}.{k}"] = v
                if row["calls"] == 0 and layers.get(LAYER_WORK[layer], 0) > 0:
                    rec["bypassed"].append(layer)
            layers.update(t["experiments"])
            layers["trace_overhead_x"] = t["wall_s"] / t["untraced_wall_s"]
            if "wall_s" in rec["metrics"] and name == "figure_cold":
                layers["experiments.parallel_speedup"] = (
                    t["untraced_wall_s"] / rec["metrics"]["wall_s"]["value"])
            rec["share_sum"] = t["share_sum"]
            rec["trace_files"] = t["files"]
        if p is not None:
            layers.update(p["prices"])
    rec["attempted"] = attempted
    rec["failed"] = len(failures)
    rec["failures"] = failures
    rec["correct"] = not failures
    return rec


def status(rec: dict) -> str:
    if rec["failed"]:
        return f"FAILED {rec['failed']}/{rec['attempted']}"
    return "verified" if rec["verified"] else "UNVERIFIED"


def print_rows(name: str, rec: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_UNITS)
    st = status(rec)
    for metric, s in rec["metrics"].items():
        n = len(s["samples"])
        print(f"{name:<15} {metric:<34} {s['value']:>14.6g} {units[metric]:<10} "
              f"n={n:<3} q1={s['q1']:<11.6g} q3={s['q3']:<11.6g} {st}")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"{name:<15} {'failed_frac':<34} {frac:>14.6g} {'ratio':<10} "
          f"{rec['failed']}/{rec['attempted']} runs failed{'':<15} {st}")
    for metric, v in rec["layers"].items():
        layer = metric.rpartition(".")[0]
        flag = "bypassed" if layer in rec.get("bypassed", ()) else st
        print(f"{name:<15} {metric:<34} {v:>14.6g} {units[metric]:<10} "
              f"{'':<32} {flag}")
    if "share_sum" in rec:
        print(f"{name:<15} layer shares sum to {100 * rec['share_sum']:.3f} %; "
              f"spans in {', '.join(rec['trace_files'])}")
    for f in rec["failures"]:
        print(f"{name:<15} failure: {f}")
    sys.stdout.flush()


def result_line(results: dict, bench: dict, trace: bool) -> dict:
    """The one-line JSON summary: every end-to-end metric, or with
    ``trace`` every per-layer metric, keyed ``<workload>/<metric>`` when
    more than one workload ran."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for name, rec in results.items():
        values = rec["layers"] if trace else {
            k: v["value"] for k, v in rec["metrics"].items()}
        for m in wanted:
            if m["name"] in values:
                key = m["name"] if len(results) == 1 else f"{name}/{m['name']}"
                metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    complete = len(metrics) == len(wanted) * len(results)
    return {
        "correct": complete and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", choices=names, default=names)
    p.add_argument("--seed", type=int, default=1997)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every workload's problem size (smoke tests)")
    p.add_argument("--out", type=Path, help="write every sample as JSON here")
    args = p.parse_args(argv)

    why = {w["name"]: w["why"] for w in bench["workloads"]}
    nproc = len(os.sched_getaffinity(0))
    print(f"# e2e benchmark: seed {args.seed}, {args.seconds:g} s per workload, "
          f"scale x{args.scale:g}, nproc {nproc}, trace {args.trace}")
    t0 = time.monotonic()
    results = {}
    for name in args.workload:
        print(f"# {name}: {why[name]}", flush=True)
        results[name] = run_workload(name, args)
        print_rows(name, results[name], bench)
    untraced = sum(r["untraced_s"] for r in results.values())
    print(f"# total: {time.monotonic() - t0:.1f} s, of which untraced "
          f"{untraced:.1f} s")
    line = result_line(results, bench, bool(args.trace))
    if args.out:
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
            "trace": args.trace, "nproc": nproc, "untraced_s": untraced,
            "workloads": results, **{k: line[k] for k in ("correct", "attempted", "failed")},
        }, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
