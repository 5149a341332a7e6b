"""Run-history archive, recorder hook, and differential-attribution tests."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import time

import pytest

from repro.experiments.runner import (
    HistoryRecorder,
    RunSpec,
    run_spec,
    set_history_recorder,
)
from repro.obs.diff import (
    SLOWDOWN_GATE,
    diff_payloads,
    diff_runs,
    diff_sweeps,
    format_diff,
    format_payload_diff,
    pair_key,
)
from repro.obs.history import (
    HISTORY_SCHEMA,
    HistoryArchive,
    HistoryArchiveError,
    content_hash,
    default_history_path,
    format_history,
    history_disabled,
)


def spec_dict(seed: int = 1, **over) -> dict:
    d = {"workload": "fft", "machine": "coma", "memory_pressure": 0.5,
         "procs_per_node": 1, "n_processors": 16, "scale": 1.0,
         "seed": seed, "am_assoc": 4, "page_size": 2048}
    d.update(over)
    return d


def result_dict(elapsed: int = 1000, **counters) -> dict:
    return {"elapsed_ns": elapsed,
            "counters": counters or {"bus_transactions": 10}}


@pytest.fixture
def archive(tmp_path):
    return HistoryArchive(tmp_path / "hist.sqlite")


class TestArchive:
    def test_insert_dedup_revision(self, archive):
        spec, result = spec_dict(), result_dict()
        assert archive.record_run(key="k1", spec=spec, result=result) \
            == "inserted"
        # Same key + same deterministic content: dedup, still one row.
        assert archive.record_run(key="k1", spec=spec, result=result) \
            == "deduped"
        assert archive.run_count() == 1
        # Same key, different content: preserved as a new revision.
        assert archive.record_run(
            key="k1", spec=spec, result=result_dict(2000)) == "revision"
        assert archive.run_count() == 2
        assert archive.get_run("k1")["rev"] == 1

    def test_dedup_is_last_writer_wins_on_metadata(self, archive):
        spec, result = spec_dict(), result_dict()
        archive.record_run(key="k1", spec=spec, result=result,
                           source="run", recorded_at="t0",
                           phases={"bus_arb": 5})
        archive.record_run(key="k1", spec=spec, result=result,
                           source="serve", recorded_at="t1")
        row = archive.get_run("k1")
        assert row["source"] == "serve"
        assert row["recorded_at"] == "t1"
        # ... but attribution blobs recorded earlier are not erased.
        assert row["phases"] == {"bus_arb": 5}

    def test_get_run_by_prefix_and_rev(self, archive):
        archive.record_run(key="abcdef", spec=spec_dict(),
                           result=result_dict(1))
        archive.record_run(key="abcdef", spec=spec_dict(),
                           result=result_dict(2))
        assert archive.get_run("abc")["result"]["elapsed_ns"] == 2
        assert archive.get_run("abc", rev=0)["result"]["elapsed_ns"] == 1
        assert archive.get_run("zzz") is None

    def test_list_runs_filters(self, archive):
        archive.record_run(key="k1", spec=spec_dict(workload="fft"),
                           result=result_dict(), batch="a")
        archive.record_run(key="k2", spec=spec_dict(workload="barnes"),
                           result=result_dict(), batch="b")
        assert len(archive.list_runs()) == 2
        assert [r["key"] for r in archive.list_runs(workload="fft")] == ["k1"]
        assert [r["key"] for r in archive.list_runs(batch="b")] == ["k2"]
        assert [r["key"] for r in archive.list_runs(key="k2")] == ["k2"]
        assert len(archive.list_runs(limit=1)) == 1
        assert "k1" in format_history(archive.list_runs())

    def test_content_hash_ignores_nothing_deterministic(self):
        a = content_hash(spec_dict(), result_dict())
        assert a == content_hash(spec_dict(), result_dict())
        assert a != content_hash(spec_dict(seed=2), result_dict())
        assert a != content_hash(spec_dict(), result_dict(9))

    def test_refuses_newer_schema(self, tmp_path):
        path = tmp_path / "hist.sqlite"
        HistoryArchive(path).record_run(
            key="k1", spec=spec_dict(), result=result_dict())
        con = sqlite3.connect(path)
        con.execute("UPDATE meta SET value = ? WHERE key = 'schema'",
                    (str(HISTORY_SCHEMA + 1),))
        con.commit()
        con.close()
        with pytest.raises(HistoryArchiveError):
            HistoryArchive(path).run_count()

    def test_default_path_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "h"))
        assert default_history_path() == tmp_path / "h" / "history.sqlite"
        monkeypatch.setenv("REPRO_NO_HISTORY", "1")
        assert history_disabled()
        monkeypatch.delenv("REPRO_NO_HISTORY")
        assert not history_disabled()


class TestGc:
    def test_gc_trims_old_revisions(self, archive):
        for elapsed in (1, 2, 3):
            archive.record_run(key="k1", spec=spec_dict(),
                               result=result_dict(elapsed))
        archive.record_run(key="k2", spec=spec_dict(seed=2),
                           result=result_dict())
        stats = archive.gc(keep_revisions=1, dry_run=True)
        assert stats == {"runs_deleted": 2, "dry_run": True}
        assert archive.run_count() == 4  # dry run deleted nothing
        archive.gc(keep_revisions=1)
        assert archive.run_count() == 2
        # The newest revision of each key survives.
        assert archive.get_run("k1")["result"]["elapsed_ns"] == 3
        assert archive.get_run("k2") is not None


class TestParentArchive:
    """Archives written while bench rows were still recorded carry a
    ``benches`` table.  They must keep working, and the table must be
    neither read nor dropped."""

    BENCHES_DDL = """CREATE TABLE IF NOT EXISTS benches (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        content_hash TEXT NOT NULL UNIQUE,
        recorded_at TEXT,
        git_rev TEXT,
        quick INTEGER NOT NULL DEFAULT 0,
        payload_json TEXT NOT NULL)"""

    BENCH_ROW = ("abc123", "t0", "c9108e7", 1,
                 '{"schema": 1, "suites": {"l1_hit": {"wall_s": 0.5}}}')

    def bench_rows(self, path):
        con = sqlite3.connect(path)
        try:
            return con.execute(
                "SELECT content_hash, recorded_at, git_rev, quick, "
                "payload_json FROM benches").fetchall()
        finally:
            con.close()

    def test_runs_and_gc_leave_bench_rows_untouched(self, tmp_path):
        path = tmp_path / "hist.sqlite"
        archive = HistoryArchive(path)
        archive.record_run(key="k1", spec=spec_dict(), result=result_dict(1))
        con = sqlite3.connect(path)
        con.execute(self.BENCHES_DDL)
        con.execute("INSERT INTO benches (content_hash, recorded_at, "
                    "git_rev, quick, payload_json) VALUES (?, ?, ?, ?, ?)",
                    self.BENCH_ROW)
        con.commit()
        con.close()

        assert archive.record_run(
            key="k1", spec=spec_dict(), result=result_dict(2)) == "revision"
        assert archive.record_run(
            key="k2", spec=spec_dict(seed=2), result=result_dict()) \
            == "inserted"
        assert [r["key"] for r in archive.list_runs()] == ["k2", "k1", "k1"]
        assert archive.get_run("k1")["result"]["elapsed_ns"] == 2
        assert archive.gc(keep_revisions=1) == {"runs_deleted": 1,
                                                "dry_run": False}
        assert archive.run_count() == 2
        assert self.bench_rows(path) == [self.BENCH_ROW]


def _append_same(path, barrier, spec, result):
    barrier.wait()
    HistoryArchive(path).record_run(key="race", spec=spec, result=result)


def _append_forever(path):
    archive = HistoryArchive(path)
    i = 0
    while True:
        archive.record_run(key=f"k{i}", spec=spec_dict(seed=i),
                           result=result_dict(i + 1))
        i += 1


class TestConcurrency:
    def test_two_processes_same_content_one_row(self, tmp_path):
        path = tmp_path / "hist.sqlite"
        barrier = multiprocessing.Barrier(2)
        procs = [
            multiprocessing.Process(
                target=_append_same,
                args=(path, barrier, spec_dict(), result_dict()))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        archive = HistoryArchive(path)
        assert archive.run_count() == 1
        assert archive.get_run("race")["rev"] == 0

    def test_different_content_becomes_revisions(self, tmp_path):
        path = tmp_path / "hist.sqlite"
        archive = HistoryArchive(path)
        archive.record_run(key="k", spec=spec_dict(), result=result_dict(1))
        archive.record_run(key="k", spec=spec_dict(), result=result_dict(2))
        revs = sorted(r["rev"] for r in archive.list_runs(key="k"))
        assert revs == [0, 1]

    def test_sigkill_mid_append_leaves_archive_readable(self, tmp_path):
        path = tmp_path / "hist.sqlite"
        proc = multiprocessing.Process(target=_append_forever, args=(path,))
        proc.start()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if path.exists() and HistoryArchive(path).run_count() > 0:
                break
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=10)
        archive = HistoryArchive(path)
        count = archive.run_count()  # must not raise
        assert count >= 1
        rows = archive.list_runs(limit=10)
        assert all(r["elapsed_ns"] >= 1 for r in rows)
        # ... and the archive still accepts appends.
        assert archive.record_run(key="after", spec=spec_dict(seed=999),
                                  result=result_dict()) == "inserted"


SPEC = RunSpec(workload="synth_uniform", scale=0.05, seed=501)
SLOW_BUS = RunSpec(workload="synth_uniform", scale=0.05, seed=501,
                   bus_bandwidth_factor=0.25)


@pytest.fixture
def recorder(tmp_path):
    rec = HistoryRecorder(HistoryArchive(tmp_path / "hist.sqlite"),
                          source="test")
    set_history_recorder(rec)
    try:
        yield rec
    finally:
        set_history_recorder(None)


class TestRecorder:
    def test_miss_recorded_with_attribution(self, recorder):
        result = run_spec(SPEC, use_cache=False)
        assert recorder.outcomes["inserted"] == 1
        row = recorder.archive.get_run(SPEC.key())
        assert row["cache"] == "miss"
        assert row["source"] == "test"
        assert row["elapsed_ns"] == result.elapsed_ns
        assert row["wall_time_s"] > 0
        assert row["spec"]["workload"] == "synth_uniform"
        assert row["result"]["counters"]
        # Attribution riders: phase totals, histograms, witness spans.
        assert row["phases"]["bus_arb"] > 0
        fam = row["histograms"]["span_access_latency_ns"]
        assert fam["series"]
        assert row["top_spans"] and row["top_spans"][0][0]["name"] == "access"
        assert "recorded" in recorder.summary()

    def test_uma_miss_recorded_with_attribution(self, recorder):
        """The recorder attaches span attribution to every miss, so a
        machine without an observation slot could not be recorded."""
        spec = SPEC.with_(machine="uma")
        result = run_spec(spec, use_cache=False)
        assert recorder.outcomes["inserted"] == 1
        row = recorder.archive.get_run(spec.key())
        assert row["spec"]["machine"] == "uma"
        assert row["elapsed_ns"] == result.elapsed_ns
        assert row["top_spans"] and row["top_spans"][0][0]["name"] == "access"
        set_history_recorder(None)
        assert run_spec(spec, use_cache=False).to_dict() == result.to_dict()

    def test_memory_hit_skipped_after_miss(self, recorder):
        run_spec(SPEC)
        run_spec(SPEC)  # memory hit on a key we already recorded
        assert recorder.outcomes == {"inserted": 1, "deduped": 0,
                                     "revision": 0, "skipped": 1,
                                     "errors": 0}
        assert recorder.archive.run_count() == 1

    def test_attribution_does_not_change_the_result(self, recorder):
        with_attr = run_spec(SPEC, use_cache=False)
        set_history_recorder(None)
        without = run_spec(SPEC, use_cache=False)
        assert with_attr.to_dict() == without.to_dict()

    def test_archive_errors_never_fail_the_run(self, tmp_path):
        class Exploding:
            path = tmp_path / "x.sqlite"

            def record_run(self, **kwargs):
                raise RuntimeError("disk full")

        rec = HistoryRecorder(Exploding(), source="test")
        set_history_recorder(rec)
        try:
            result = run_spec(SPEC, use_cache=False)
        finally:
            set_history_recorder(None)
        assert result.elapsed_ns > 0
        assert rec.outcomes["errors"] == 1

    def test_detached_recording_is_never_touched(self, monkeypatch):
        """Zero-overhead proof: with no recorder installed, no history
        code runs at all — poison every entry point and simulate."""
        import repro.experiments.runner as runner_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("history touched while detached")

        monkeypatch.setattr(runner_mod.HistoryRecorder, "record", boom)
        monkeypatch.setattr(runner_mod.HistoryRecorder, "attribution", boom)
        monkeypatch.setattr(HistoryArchive, "record_run", boom)
        monkeypatch.setattr(HistoryArchive, "_connect", boom)
        assert runner_mod.history_recorder() is None
        result = run_spec(SPEC, use_cache=False)
        assert result.elapsed_ns > 0

    def test_on_record_callback(self, tmp_path):
        seen = []
        rec = HistoryRecorder(HistoryArchive(tmp_path / "h.sqlite"),
                              on_record=seen.append)
        set_history_recorder(rec)
        try:
            run_spec(SPEC, use_cache=False)
        finally:
            set_history_recorder(None)
        assert seen == ["inserted"]


class TestDiff:
    @pytest.fixture
    def pair(self, recorder):
        run_spec(SPEC, use_cache=False)
        run_spec(SLOW_BUS, use_cache=False)
        a = recorder.archive.get_run(SPEC.key())
        b = recorder.archive.get_run(SLOW_BUS.key())
        return a, b

    def test_injected_bus_slowdown_names_bus_arb(self, pair):
        """The directed phase-attribution test: perturb one timing
        constant (bus bandwidth x0.25) and the diff must name the bus
        arbitration phase as responsible for the regression."""
        a, b = pair
        diff = diff_runs(a, b)
        assert diff["elapsed"]["change_pct"] > 5
        assert diff["top_attribution"]["phase"] == "bus_arb"
        assert diff["top_attribution"]["delta_ns"] > 0
        assert diff["top_attribution"]["share_pct"] > 25
        text = format_diff(diff)
        assert "top attribution: bus_arb" in text
        assert "witnesses" in text

    def test_diff_structure(self, pair):
        a, b = pair
        diff = diff_runs(a, b, noise_pct=2.0)
        assert diff["a"]["key"] == SPEC.key()
        assert diff["b"]["key"] == SLOW_BUS.key()
        assert diff["noise_pct"] == 2.0
        assert diff["elapsed"]["delta_ns"] == \
            b["elapsed_ns"] - a["elapsed_ns"]
        for row in diff["counters"]:
            assert row["significant"] == (abs(row["change_pct"]) > 2.0)
        shares = [p["share_pct"] for p in diff["phases"]]
        assert shares == sorted(shares, reverse=True)
        assert diff["witness_side"] == "b"
        assert diff["histograms"][0]["b_count"] > 0

    def test_identical_runs_diff_to_noise(self, archive):
        archive.record_run(key="k1", spec=spec_dict(seed=1),
                           result=result_dict(1000, bus=100),
                           phases={"bus_arb": 10})
        archive.record_run(key="k2", spec=spec_dict(seed=1),
                           result=result_dict(1000, bus=100),
                           phases={"bus_arb": 10})
        diff = diff_runs(archive.get_run("k1"), archive.get_run("k2"))
        assert diff["elapsed"]["change_pct"] == 0
        assert not any(c["significant"] for c in diff["counters"])

    def test_diff_sweeps_pairs_on_spec_identity(self, archive):
        # Batch A and B hold the same two points; B has one extra.
        for seed in (1, 2):
            archive.record_run(
                key=f"a{seed}", spec=spec_dict(seed=seed),
                result=result_dict(1000), batch="a")
            archive.record_run(
                key=f"b{seed}", spec=spec_dict(seed=seed),
                result=result_dict(1500 if seed == 2 else 1000), batch="b")
        archive.record_run(key="b9", spec=spec_dict(seed=9),
                           result=result_dict(), batch="b")
        rows = {b: [archive.get_run(r["key"])
                    for r in archive.list_runs(batch=b)]
                for b in ("a", "b")}
        report = diff_sweeps(rows["a"], rows["b"])
        assert report["pairs"] == 2
        assert report["unpaired_a"] == []
        assert report["unpaired_b"] == ["b9"]
        worst = report["worst_regression"]
        assert worst["elapsed"]["delta_ns"] == 500

    def test_pair_key_survives_timing_perturbation(self):
        from dataclasses import asdict

        assert pair_key(asdict(SPEC)) == pair_key(asdict(SLOW_BUS))
        assert pair_key(asdict(SPEC)) != pair_key(
            asdict(RunSpec(workload="synth_uniform", scale=0.05, seed=502)))


def _workload(eps: float = 100_000.0) -> dict:
    """One traced workload record of a ``run.py --out`` payload:
    1e5 events, 900 ns/event of layer self time, two observer prices."""
    def metric(v):
        return {"value": v, "q1": v, "q3": v, "samples": [v]}

    return {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"events_per_s": metric(eps),
                    "wall_s": metric(1e5 / eps),
                    "setup_s": metric(0.4), "peak_rss_mb": metric(80.0)},
        "layers": {"sim.events": 100_000, "sim.self_s": 0.05,
                   "coma.self_s": 0.03, "bus.self_s": 0.01,
                   "obs.sanitizer.ns_per_event": 5000.0,
                   "obs.metrics.ns_per_event": 1000.0,
                   "obs.share": 0.5},
    }


def _payload(**workloads) -> dict:
    wl = workloads or {"local_hits": _workload(), "observed": _workload()}
    return {"seed": 1997, "scale": 0.25, "trace": 1, "correct": True,
            "attempted": 3 * len(wl), "failed": 0, "workloads": wl}


class TestPayloadDiff:
    """``coma-sim diff A.json B.json`` on synthetic benchmark payloads."""

    def diff_cli(self, a, b, tmp_path, capsys, *extra):
        from repro.cli import main

        paths = []
        for name, obj in (("a.json", a), ("b.json", b)):
            path = tmp_path / name
            path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
            paths.append(str(path))
        code = main(["diff", *paths, *extra])
        return code, capsys.readouterr().out

    def test_planted_coma_slowdown_names_coma(self, tmp_path, capsys):
        b = _payload()
        layers = b["workloads"]["observed"]["layers"]
        layers["coma.self_s"] *= 2      # +300 ns/event
        layers["sim.self_s"] += 0.01    # +100 ns/event
        report = diff_payloads(_payload(), b)
        rows = {r["workload"]: r for r in report["workloads"]}
        top = rows["observed"]["top_layer"]
        assert top["layer"] == "coma"
        assert top["a_ns"] == pytest.approx(300.0)
        assert top["delta_ns"] == pytest.approx(300.0)
        assert top["share_pct"] == pytest.approx(75.0)
        assert rows["local_hits"]["top_layer"] is None  # nothing moved
        assert report["failures"] == []
        code, out = self.diff_cli(_payload(), b, tmp_path, capsys)
        assert code == 0
        assert "top layer: coma 300.0 -> 600.0 ns/event" in out
        assert "75.0% of the layer swing" in out

    def test_raised_sanitizer_price_names_sanitizer(self):
        b = _payload()
        b["workloads"]["local_hits"]["layers"][
            "obs.sanitizer.ns_per_event"] = 9000.0
        b["workloads"]["local_hits"]["layers"][
            "obs.metrics.ns_per_event"] = 2000.0
        report = diff_payloads(_payload(), b)
        top = report["workloads"][0]["top_observer"]
        assert top["observer"] == "sanitizer"
        assert top["delta_ns"] == 4000.0
        assert top["share_pct"] == pytest.approx(80.0)
        assert "top observer: sanitizer" in format_payload_diff(report)

    @pytest.mark.parametrize("divisor, code", [(SLOWDOWN_GATE, 1), (2.9, 0)])
    def test_events_per_s_gate(self, divisor, code, tmp_path, capsys):
        b = _payload()
        b["workloads"]["observed"]["metrics"]["events_per_s"]["value"] /= \
            divisor
        got, out = self.diff_cli(_payload(), b, tmp_path, capsys)
        assert got == code
        assert ("FAIL: observed: events_per_s" in out) == (code == 1)

    def test_wall_s_gate(self):
        b = _payload()
        b["workloads"]["local_hits"]["metrics"]["wall_s"]["value"] *= \
            SLOWDOWN_GATE
        assert diff_payloads(_payload(), b)["failures"] == [
            "local_hits: wall_s at least 3x A's"]

    def test_missing_workload_fails(self, tmp_path, capsys):
        b = _payload(local_hits=_workload())
        code, out = self.diff_cli(_payload(), b, tmp_path, capsys)
        assert code == 1
        assert "observed: missing from B" in out

    def test_incorrect_b_fails(self, tmp_path, capsys):
        b = _payload()
        b["correct"] = False
        b["workloads"]["observed"]["correct"] = False
        code, out = self.diff_cli(_payload(), b, tmp_path, capsys)
        assert code == 1
        assert "B is not correct: observed" in out

    def test_untraced_payloads_gate_without_naming_a_layer(
            self, tmp_path, capsys):
        a, b = _payload(), _payload()
        for p in (a, b):
            for rec in p["workloads"].values():
                rec["layers"] = {}
        report = diff_payloads(a, b)
        assert all(r["top_layer"] is None and r["top_observer"] is None
                   for r in report["workloads"])
        code, out = self.diff_cli(a, b, tmp_path, capsys)
        assert code == 0
        assert "top layer: (untraced)" in out
        b["workloads"]["observed"]["metrics"]["events_per_s"]["value"] = 1.0
        code, _ = self.diff_cli(a, b, tmp_path, capsys)
        assert code == 1

    @pytest.mark.parametrize("bad", [
        {"suites": {}},                               # not a payload
        {"workloads": []},                            # not an object
        {"workloads": {"x": {"layers": {}}}},         # no metrics
        {"workloads": {"x": {"metrics": {"wall_s": {}}}}},
        "{not json",
    ])
    def test_malformed_payload_exits_2(self, bad, tmp_path, capsys):
        code, _ = self.diff_cli(_payload(), bad, tmp_path, capsys)
        assert code == 2

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "diff.json"
        code, _ = self.diff_cli(_payload(), _payload(), tmp_path, capsys,
                                "--format", "json", "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["slowdown_gate"] == SLOWDOWN_GATE
        assert report["workloads"][0]["end_to_end"]["wall_s"]["ratio"] == 1


class TestCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    @pytest.fixture
    def populated(self, tmp_path, capsys):
        path = str(tmp_path / "hist.sqlite")
        from repro.cli import main

        for extra in ([], ["--bus-bandwidth", "0.25"]):
            assert main(["run", "synth_uniform", "--scale", "0.05",
                         "--seed", "501", "--no-cache", *extra,
                         "--record", "cli-batch", "--archive", path]) == 0
        capsys.readouterr()
        return path

    def test_history_list_and_show(self, populated, capsys):
        code, out = self.run_cli(
            ["history", "list", "--archive", populated], capsys)
        assert code == 0
        assert "2 of 2 run(s)" in out
        assert SPEC.key() in out
        code, out = self.run_cli(
            ["history", "show", SPEC.key()[:8], "--archive", populated],
            capsys)
        assert code == 0
        assert json.loads(out)["batch"] == "cli-batch"

    def test_history_list_json_and_filters(self, populated, capsys):
        code, out = self.run_cli(
            ["history", "list", "--archive", populated,
             "--batch", "cli-batch", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2 and rows[0]["source"] == "run"
        code, out = self.run_cli(
            ["history", "list", "--archive", populated,
             "--batch", "nope"], capsys)
        assert code == 0 and "0 of 2" in out

    def test_diff_cli_names_the_phase(self, populated, capsys):
        code, out = self.run_cli(
            ["diff", SPEC.key(), SLOW_BUS.key(),
             "--archive", populated], capsys)
        assert code == 0
        assert "top attribution: bus_arb" in out

    def test_diff_cli_json_out(self, populated, tmp_path, capsys):
        out_path = tmp_path / "diff.json"
        code, _ = self.run_cli(
            ["diff", SPEC.key(), SLOW_BUS.key(), "--archive", populated,
             "--format", "json", "--out", str(out_path)], capsys)
        assert code == 0
        diff = json.loads(out_path.read_text())
        assert diff["top_attribution"]["phase"] == "bus_arb"

    def test_diff_cli_unknown_key(self, populated, capsys):
        code, _ = self.run_cli(
            ["diff", "ffffffff", SPEC.key(), "--archive", populated],
            capsys)
        assert code == 1

    def test_diff_cli_requires_two_keys(self, populated, capsys):
        code, _ = self.run_cli(["diff", "onlyone",
                                "--archive", populated], capsys)
        assert code == 2

    def test_history_gc_cli(self, populated, capsys):
        code, out = self.run_cli(
            ["history", "gc", "--archive", populated, "--dry-run"], capsys)
        assert code == 0
        assert "would delete 0 run row(s)" in out
