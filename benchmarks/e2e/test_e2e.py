"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Not part of tier-1: it runs every workload at a tiny scale, which takes
about two minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
TINY = 0.05


def run_bench(*args: str) -> tuple[str, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--scale", str(TINY),
                           "--seconds", "0", *args],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "run.json"
    stdout, line = run_bench("--trace", "--out", str(out))
    return stdout, line, json.loads(out.read_text())


def test_every_metric_is_printed_with_its_unit(traced):
    stdout, line, record = traced
    assert list(record["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for name, rec in record["workloads"].items():
        assert rec["correct"], rec["failures"]
        for m in BENCH["end_to_end"]:
            assert m["name"] in rec["metrics"]
            assert re.search(rf"^{name} +{m['name']} +\S+ +{re.escape(m['unit'])} ",
                             stdout, re.M), (name, m["name"])
        assert re.search(rf"^{name} +failed_frac +0 +ratio ", stdout, re.M)
        for m in BENCH["per_layer"]:
            assert m["name"] in rec["layers"], (name, m["name"])
            assert re.search(rf"^{name} +{re.escape(m['name'])} +\S+ +"
                             rf"{re.escape(m['unit'])} ", stdout, re.M), (name, m["name"])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert len(line["metrics"]) == len(BENCH["per_layer"]) * len(BENCH["workloads"])
    for key, v in line["metrics"].items():
        assert v["unit"] == UNITS[key.split("/", 1)[1]]


def test_trace_layers_are_whole_and_loadable(traced):
    from repro.obs.chrometrace import validate_trace_events

    for name, rec in traced[2]["workloads"].items():
        assert abs(rec["share_sum"] - 1) <= 0.005
        assert rec["bypassed"] == []
        layers, chrome = (json.loads((ROOT / f).read_text()) for f in rec["trace_files"])
        assert 0 < len(layers["spans"]) <= 100_000
        assert validate_trace_events(chrome) == []


def test_untraced_line_holds_exactly_the_end_to_end_metrics():
    _, line = run_bench("--workload", "observed", "--trace", "0")
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_stored_fingerprints_cover_both_seeds_and_hold():
    table = worker.load_fingerprints()
    assert table["cache_version"] == worker.CACHE_VERSION
    assert set(table["fingerprints"]) == {
        f"{w}@{s}" for w in worker.WORKLOADS for s in worker.FINGERPRINT_SEEDS}
    run = worker.measure("observed", 4242, 0)
    assert run["verified"] and run["failed"] == 0, run["failures"]


def test_tampered_fingerprint_fails_every_pass():
    name, seed = "remote_reads", 1997
    first = worker.measure(name, seed, 0, TINY, fingerprints={})
    assert not first["verified"] and first["failed"] == 0
    entry = {"key": worker.workload_key(name, seed, TINY), "sha256": first["fingerprint"]}
    table = {"cache_version": worker.CACHE_VERSION, "fingerprints": {f"{name}@{seed}": entry}}
    honest = worker.measure(name, seed, 0, TINY, fingerprints=table)
    assert honest["verified"] and honest["failed"] == 0
    entry["sha256"] = "0" * 64
    tampered = worker.measure(name, seed, 0, TINY, fingerprints=table)
    assert tampered["failed"] / tampered["attempted"] == 1.0
    assert tampered["samples"]["events_per_s"] == []


def _runs(events_per_s: list[float], failed: int = 0) -> list[dict]:
    return [{"workloads": {"local_hits": {
        "attempted": 10, "failed": failed,
        "metrics": {
            "events_per_s": {"value": v, "samples": [v]},
            "wall_s": {"value": 2.0 + i / 1000, "samples": [2.0]},
            "setup_s": {"value": 0.5 + i / 1000, "samples": [0.5]},
            "peak_rss_mb": {"value": 80.0, "samples": [80.0]},
        }}}} for i, v in enumerate(events_per_s)]


PARENT = [100.0 + i for i in range(-5, 5)]


@pytest.mark.parametrize("change, verdict", [
    ([120.0 + i for i in range(-5, 5)], "gain"),
    ([70.0 + i for i in range(-5, 5)], "regression"),
    ([60.0, 150.0] * 5, "unresolved"),
    ([100.5 + i for i in range(-5, 5)], "ok"),
])
def test_compare_classifies(change, verdict):
    rows = compare.compare(_runs(PARENT), _runs(change), BENCH)
    by_metric = {r["metric"]: r["verdict"] for r in rows}
    assert by_metric["events_per_s"] == verdict
    assert by_metric["wall_s"] == by_metric["setup_s"] == by_metric["peak_rss_mb"] == "ok"
    assert by_metric["failed_frac"] == "ok"


def test_compare_flags_a_rise_in_failures():
    rows = compare.compare(_runs(PARENT), _runs(PARENT, failed=1), BENCH)
    assert {r["metric"]: r["verdict"] for r in rows}["failed_frac"] == "regression"
