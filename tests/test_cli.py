"""CLI tests: parser wiring and command smoke runs."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def _help_argvs(parser: argparse.ArgumentParser,
                prefix: tuple[str, ...] = ()) -> list[list[str]]:
    """``[..., "--help"]`` for the parser and every (nested) subcommand."""
    argvs = [[*prefix, "--help"]]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                argvs += _help_argvs(sp, (*prefix, name))
    return argvs


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fft"])
        assert args.workload == "fft"
        assert args.machine == "coma"
        assert args.procs_per_node == 1

    def test_run_flags(self):
        args = build_parser().parse_args(
            [
                "run", "radix",
                "--procs-per-node", "4",
                "--memory-pressure", "0.8125",
                "--am-assoc", "8",
                "--non-inclusive",
                "--dram-bandwidth", "2",
            ]
        )
        assert args.procs_per_node == 4
        assert args.am_assoc == 8
        assert args.non_inclusive is True

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_figure_jobs_and_workloads(self):
        args = build_parser().parse_args(
            ["figure", "2", "--jobs", "4", "--workloads", "fft", "radix"]
        )
        assert args.jobs == 4
        assert args.workloads == ["fft", "radix"]

    def test_jobs_defaults_to_serial(self):
        assert build_parser().parse_args(["figure", "3"]).jobs == 1
        assert build_parser().parse_args(["table", "1"]).jobs == 1
        assert build_parser().parse_args(["export", "figure2"]).jobs == 1

    def test_jobs_short_flag(self):
        args = build_parser().parse_args(["export", "figure5", "-j", "-1"])
        assert args.jobs == -1

    def test_figure_workloads_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "2", "--workloads", "doom"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv", _help_argvs(build_parser()), ids=" ".join)
    def test_help_exits_zero(self, argv, capsys):
        """Every help screen renders: a stray ``%`` in a help string
        makes argparse's formatter raise instead."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["coverage", "--workloads", "nosuch"], "--workloads"),
        (["explain", "synth_migratory", "--line", "zz"], "--line"),
        (["profile", "synth_migratory", "--procs-per-node", "3"],
         "--procs-per-node"),
        (["run", "synth_private", "--scale", "0"], "--scale"),
        (["trace", "synth_private", "--scale", "-1"], "--scale"),
        (["figure", "2", "--scale", "nan"], "--scale"),
    ])
    def test_bad_input_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fft" in out and "synth_uniform" in out

    def test_thresholds(self, capsys):
        assert main(["thresholds"]) == 0
        assert "76" in capsys.readouterr().out

    def test_run_smoke(self, capsys):
        rc = main(["run", "synth_private", "--scale", "0.25", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RNMr" in out

    def test_run_numa(self, capsys):
        rc = main(
            ["run", "synth_private", "--machine", "numa", "--scale", "0.25",
             "--no-cache"]
        )
        assert rc == 0

    def test_bad_figure_number(self, capsys):
        assert main(["figure", "9"]) == 2

    def test_figure_parallel_smoke(self, capsys):
        from repro.experiments.runner import reset_cache_stats

        reset_cache_stats()
        rc = main(
            ["figure", "2", "--scale", "0.25",
             "--workloads", "synth_private", "--jobs", "2"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "Figure 2" in captured.out and "synth_private" in captured.out
        assert "cache: 3 runs" in captured.err

    def test_bad_table_number(self):
        assert main(["table", "2"]) == 2

    def test_protocol(self, capsys):
        assert main(["protocol"]) == 0
        out = capsys.readouterr().out
        assert "transition table" in out and "read_excl" in out

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "protocol OK" in out
        assert "machine crosscheck OK" in out

    def test_verify_no_crosscheck(self, capsys):
        assert main(["verify", "--nodes", "2", "--no-crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "protocol OK" in out
        assert "crosscheck" not in out

    def test_verify_parser_bounds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--nodes", "9"])

    def test_lint_clean_tree(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_bad_file(self, tmp_path, capsys):
        (tmp_path / "coma").mkdir()
        bad = tmp_path / "coma" / "mod.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "mod.py:2" in out

    def test_lint_rule_filter(self, tmp_path, capsys):
        (tmp_path / "coma").mkdir()
        bad = tmp_path / "coma" / "mod.py"
        bad.write_text("import time\nt = time.time()\ndef f(x=[]):\n    pass\n")
        assert main(["lint", str(tmp_path), "--rules", "MUT001"]) == 1
        out = capsys.readouterr().out
        assert "MUT001" in out and "DET001" not in out

    def test_profile_smoke(self, capsys):
        rc = main(
            ["profile", "synth_private", "--scale", "0.25", "--every", "1000"]
        )
        assert rc == 0
        assert "replication degree" in capsys.readouterr().out

    def test_export_table1_csv(self, capsys):
        assert main(["export", "table1", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("app,")
        assert "barnes" in out

    def test_export_table1_json_unsupported(self, capsys):
        assert main(["export", "table1", "--format", "json"]) == 2

    def test_export_parser_choices(self):
        args = build_parser().parse_args(["export", "figure3", "--format", "json"])
        assert args.artifact == "figure3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export", "figure9"])

    def test_export_csv_provenance(self, capsys):
        rc = main(["export", "table1", "--scale", "0.5", "--provenance"])
        assert rc == 0
        out = capsys.readouterr().out
        first, second = out.splitlines()[:2]
        assert first.startswith("# provenance: repro=")
        assert "cache_version=" in first
        assert second.startswith("app,")


class TestTraceCommands:
    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "fft"])
        assert args.machine == "coma" and args.flight == 4096
        assert args.jsonl is None and args.chrome is None

    def test_trace_rejects_numa(self):
        # Only the COMA machines are instrumented for tracing.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "fft", "--machine", "numa"])

    def test_trace_writes_both_formats(self, tmp_path, capsys):
        import json

        from repro.obs.chrometrace import validate_trace_events
        from repro.obs.jsonl import read_trace

        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        rc = main(["trace", "synth_private", "--scale", "0.25",
                   "--jsonl", str(jsonl), "--chrome", str(chrome)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace events" in out and "perfetto" in out.lower()
        assert len(read_trace(jsonl)) > 0
        assert validate_trace_events(json.loads(chrome.read_text())) == []

    def test_trace_default_jsonl_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["trace", "synth_private", "--scale", "0.25"])
        assert rc == 0
        assert (tmp_path / "synth_private.trace.jsonl").exists()

    def test_explain_lists_busiest_lines(self, capsys):
        rc = main(["explain", "synth_private", "--scale", "0.25", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "busiest lines" in out and "--line" in out

    def test_explain_narrates_line(self, capsys):
        rc = main(["explain", "synth_migratory", "--scale", "0.05",
                   "--line", "0x80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "line 0x80" in out
        assert "owner=" in out and "final:" in out

    def test_explain_unknown_line_suggests(self, capsys):
        rc = main(["explain", "synth_private", "--scale", "0.25",
                   "--line", "0xffffff"])
        assert rc == 0
        assert "no trace events" in capsys.readouterr().out


class TestBoundsCommand:
    def test_table_renders(self, capsys):
        rc = main(["bounds", "synth_private", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "remote" in out and "unbounded" in out

    def test_check_passes_clean(self, capsys):
        rc = main(["bounds", "synth_migratory", "--scale", "0.1",
                   "--check"])
        assert rc == 0
        assert "bounds OK" in capsys.readouterr().out

    def test_check_numa_flavour(self, capsys):
        rc = main(["bounds", "synth_migratory", "--machine", "numa",
                   "--scale", "0.1", "--check"])
        assert rc == 0
        assert "machine=numa" in capsys.readouterr().out

    def test_json_report_with_certification(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "bounds.json"
        rc = main(["bounds", "synth_private", "--scale", "0.1", "--check",
                   "--format", "json", "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["provenance"]["tool"] == "coma-sim bounds"
        assert payload["bounds"]
        assert payload["certification"]["violations"] == {
            "B101": 0, "B102": 0, "B103": 0}


class TestCoverageCommand:
    def test_table_with_micro(self, capsys):
        rc = main(["coverage", "--workloads", "synth_migratory",
                   "--scale", "0.05", "--micro"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S:remote_read" in out and "GAP" in out

    def test_min_pct_gate_fails(self, capsys):
        rc = main(["coverage", "--workloads", "synth_private",
                   "--memory-pressure", "0.5", "--scale", "0.05",
                   "--min-pct", "99"])
        assert rc == 1
        assert "coverage FAILED" in capsys.readouterr().err

    def test_json_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "coverage.json"
        rc = main(["coverage", "--workloads", "synth_migratory",
                   "--scale", "0.05", "--micro", "--format", "json",
                   "--out", str(out_path), "--min-pct", "80"])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["provenance"]["tool"] == "coma-sim coverage"
        assert payload["dead"] == []
        assert "S:remote_read" in [g["cell"] for g in payload["gaps"]]
        assert payload["total_pct"] >= 80


class TestAttributeBounds:
    def test_attribute_reports_bounds_section(self, capsys):
        rc = main(["attribute", "synth_private", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "static bounds:" in out and "B101=0" in out


# ---------------------------------------------------------------------------
# transcript: exit code, stdout and written files of every command
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"
TRANSCRIPT = DATA / "cli_transcript.json"
PARSER_SURFACE = DATA / "cli_parser.json"

_S = ("--scale", "0.05")
_ARCHIVE = ("--archive", "{fx}/hist.sqlite")

#: name -> argv.  Each case runs in its own empty directory, so every file
#: it leaves there is one it wrote; ``{fx}`` is the shared fixture
#: directory (lint fixture, history archive, benchmark payloads).
TRANSCRIPT_CASES = {
    "list": ["list"],
    "thresholds": ["thresholds"],
    "protocol": ["protocol"],
    "verify": ["verify", "--nodes", "2", "--no-crosscheck"],
    "lint_text": ["lint", "{fx}/lint"],
    "lint_json": ["lint", "{fx}/lint", "--format", "json",
                  "--out", "lint.json"],
    "lint_explain": ["lint", "--explain", "DET001"],
    "run": ["run", "synth_private", *_S],
    "trace": ["trace", "synth_migratory", *_S, "--jsonl", "t.jsonl",
              "--chrome", "t.json", "--spans", "--timeline", "tl.json"],
    "attribute_table": ["attribute", "synth_migratory", *_S,
                        "--openmetrics", "a.om", "--timeline", "tl.json"],
    "attribute_json": ["attribute", "synth_migratory", *_S,
                       "--format", "json", "--out", "a.json"],
    "bounds_table": ["bounds", "synth_migratory", *_S, "--check"],
    "bounds_json": ["bounds", "synth_migratory", *_S, "--check",
                    "--format", "json", "--out", "b.json"],
    "coverage_table": ["coverage", "--workloads", "synth_migratory",
                       "--mp", "0.5", *_S],
    "coverage_json": ["coverage", "--workloads", "synth_migratory",
                      "--mp", "0.5", *_S, "--format", "json",
                      "--out", "c.json"],
    "sanitize": ["sanitize", "synth_migratory", *_S, "--report", "s.json"],
    "metrics_table": ["metrics", "synth_private", *_S],
    "metrics_json": ["metrics", "synth_private", *_S, "--format", "json",
                     "--out", "m.json"],
    "metrics_openmetrics": ["metrics", "synth_private", *_S,
                            "--format", "openmetrics"],
    "explain_line": ["explain", "synth_migratory", *_S, "--line", "0x80"],
    "explain_busiest": ["explain", "synth_migratory", *_S, "--top", "3"],
    "explain_slowest": ["explain", "synth_migratory", *_S, "--slowest", "2"],
    "profile": ["profile", "synth_private", *_S, "--every", "1000"],
    "figure2": ["figure", "2", *_S, "--workloads", "synth_private"],
    "figure3": ["figure", "3", *_S, "--workloads", "synth_private"],
    "figure4": ["figure", "4", *_S, "--workloads", "synth_private"],
    "figure5": ["figure", "5", *_S, "--workloads", "synth_private"],
    "figure9": ["figure", "9"],
    "table1": ["table", "1", *_S],
    "table2": ["table", "2"],
    "export_table1_csv": ["export", "table1", *_S],
    "export_table1_json": ["export", "table1", *_S, "--format", "json"],
    "export_table1_provenance": ["export", "table1", *_S, "--provenance"],
    "history_list": ["history", "list", *_ARCHIVE],
    "history_list_json": ["history", "list", "--batch", "a", "--format",
                          "json", "--out", "h.json", *_ARCHIVE],
    "history_show": ["history", "show", "b2", *_ARCHIVE],
    "history_show_missing": ["history", "show", "zzz", *_ARCHIVE],
    "history_gc_dry_run": ["history", "gc", "--dry-run", *_ARCHIVE],
    "diff_keys": ["diff", "a2", "b2", *_ARCHIVE],
    "diff_keys_json": ["diff", "a2", "b2", "--format", "json", *_ARCHIVE],
    "diff_sweep": ["diff", "--sweep", "a", "b", *_ARCHIVE],
    "diff_payloads": ["diff", "{fx}/pa.json", "{fx}/pb.json"],
    "diff_payloads_json": ["diff", "{fx}/pa.json", "{fx}/pb.json",
                           "--format", "json", "--out", "d.json"],
    "history_gc": ["history", "gc", *_ARCHIVE],
}

#: Text longer than this is recorded by digest instead of verbatim.
_VERBATIM_LIMIT = 2048

_PROVENANCE_OBJECT = re.compile(
    r'^(\s*)"(_?provenance)": \{.*?^\1\}', re.MULTILINE | re.DOTALL)
_HOST_VALUE = re.compile(r'((?:git_rev|timestamp)"?\s*[:=]\s*"?)[^",\s]+')


def _mask(text: str, tmp: str) -> str:
    """Hide what legitimately differs between hosts and runs: the tmp
    directory, git revisions, timestamps and JSON provenance objects."""
    text = text.replace(tmp, "<tmp>")
    text = _PROVENANCE_OBJECT.sub(r'\1"\2": "<masked>"', text)
    return _HOST_VALUE.sub(r"\1<masked>", text)


def _record(text: str):
    if len(text) <= _VERBATIM_LIMIT:
        return text
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"sha256:{digest} ({len(text)} chars)"


def _write_fixtures(fx: Path) -> None:
    from repro.obs.history import HistoryArchive

    (fx / "lint" / "coma").mkdir(parents=True)
    (fx / "lint" / "coma" / "mod.py").write_text(
        "import time\nt = time.time()\ndef f(x=[]):\n    pass\n")
    archive = HistoryArchive(fx / "hist.sqlite")
    for batch, slow in (("a", 1000), ("b", 1500)):
        for seed in (1, 2):
            spec = {"workload": "fft", "machine": "coma", "seed": seed,
                    "memory_pressure": 0.5, "procs_per_node": 1,
                    "scale": 1.0}
            elapsed = slow if seed == 2 else 1000
            archive.record_run(
                key=f"{batch}{seed}", spec=spec, batch=batch,
                recorded_at="2026-01-01T00:00:00+00:00",
                result={"elapsed_ns": elapsed,
                        "counters": {"bus": elapsed // 100}},
                phases={"bus_arb": elapsed // 10, "fill_dram": 50})
    archive.record_run(key="a2", spec={"workload": "fft", "seed": 2},
                       result={"elapsed_ns": 1100}, batch="a")

    def workload(eps):
        def metric(v):
            return {"value": v, "q1": v, "q3": v, "samples": [v]}

        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"events_per_s": metric(eps),
                            "wall_s": metric(1e5 / eps)},
                "layers": {"sim.events": 100_000, "sim.self_s": 0.05,
                           "coma.self_s": 1e5 / eps * 0.4,
                           "obs.metrics.ns_per_event": 1000.0}}

    for name, eps in (("pa.json", 100_000.0), ("pb.json", 80_000.0)):
        payload = {"correct": True, "attempted": 3, "failed": 0,
                   "workloads": {"local_hits": workload(eps)}}
        (fx / name).write_text(json.dumps(payload))


def _artifact_exports() -> dict:
    """Figures 2-5 through the artifact table's CSV and JSON exporters,
    on the single-workload sweeps the figure cases run (a full ``export
    figureN`` sweeps every application)."""
    from repro.cli import ARTIFACTS

    out = {}
    for name, (run, _, to_csv, to_json) in ARTIFACTS.items():
        if name.startswith("figure"):
            data = run(scale=0.05, workloads=["synth_private"])
            out[f"export_{name}_csv"] = to_csv(data)
            out[f"export_{name}_json"] = to_json(data)
    return out


def run_transcript(tmp: Path) -> tuple[dict, dict]:
    """Run every case; returns (masked transcript, raw written files)."""
    import contextlib
    import io
    import os

    fx = tmp / "fixtures"
    fx.mkdir()
    _write_fixtures(fx)
    transcript, raw = {}, {}
    cwd = os.getcwd()
    try:
        for name, template in TRANSCRIPT_CASES.items():
            case_dir = tmp / name
            case_dir.mkdir()
            os.chdir(case_dir)
            argv = [a.replace("{fx}", str(fx)) for a in template]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            files = {p.name: p.read_text() for p in sorted(case_dir.iterdir())}
            raw[name] = files
            transcript[name] = {
                "argv": template,
                "exit": rc,
                "stdout": _record(_mask(out.getvalue(), str(tmp))),
                "files": {f: _record(_mask(text, str(tmp)))
                          for f, text in files.items()},
            }
    finally:
        os.chdir(cwd)
    for name, text in _artifact_exports().items():
        transcript[name] = {"stdout": _record(text)}
    return transcript, raw


def parser_surface() -> dict:
    """Each subcommand's arguments: option strings, choices, nargs,
    defaults and type, keyed by dest."""
    from repro.workloads.registry import workload_names

    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for command, sp in sub.choices.items():
        args = {}
        for a in sp._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            choices = list(a.choices) if a.choices is not None else None
            if choices == workload_names():
                choices = "<workload_names>"
            args[a.dest] = {
                "options": a.option_strings,
                "choices": choices,
                "nargs": a.nargs,
                "default": a.default,
                "type": getattr(a.type, "__name__", None),
            }
        surface[command] = args
    return surface


_EXPECTED = json.loads(TRANSCRIPT.read_text()) if TRANSCRIPT.exists() else {}


@pytest.fixture(scope="class")
def transcript_run(tmp_path_factory):
    return run_transcript(tmp_path_factory.mktemp("transcript"))


class TestTranscript:
    """Every command's observable output, byte for byte, pinned against
    ``tests/data/cli_transcript.json``; regenerate with
    ``PYTHONPATH=src python tests/test_cli.py``."""

    def test_same_cases(self, transcript_run):
        assert sorted(transcript_run[0]) == sorted(_EXPECTED)

    @pytest.mark.parametrize("case", sorted(_EXPECTED))
    def test_case_matches(self, transcript_run, case):
        assert transcript_run[0].get(case) == _EXPECTED[case]

    #: Provenance keys of each JSON report: the code identity every
    #: report carries, plus what identifies its run.
    CODE = {"repro", "cache_version", "git_rev"}
    PROVENANCE_KEYS = {
        ("bounds_json", "b.json"): CODE | {"tool"},
        ("coverage_json", "c.json"): CODE | {"tool"},
        ("lint_json", "lint.json"): CODE | {"tool"},
        ("sanitize", "s.json"): CODE | {"spec", "seed"},
        ("metrics_json", "m.json"): CODE | {"timestamp", "spec_key"},
    }

    @pytest.mark.parametrize("where", sorted(PROVENANCE_KEYS))
    def test_provenance_keys(self, transcript_run, where):
        case, name = where
        prov = json.loads(transcript_run[1][case][name])["provenance"]
        assert set(prov) == self.PROVENANCE_KEYS[where]

    def test_parser_surface(self):
        assert parser_surface() == json.loads(PARSER_SURFACE.read_text())


if __name__ == "__main__":
    import os
    import tempfile

    # Same environment the test suite runs in (tests/conftest.py).
    os.environ.setdefault("REPRO_NO_DISK_CACHE", "1")
    os.environ.setdefault("REPRO_NO_HISTORY", "1")
    with tempfile.TemporaryDirectory() as tmp:
        transcript, _ = run_transcript(Path(tmp))
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1, sort_keys=True)
                          + "\n")
    PARSER_SURFACE.write_text(json.dumps(parser_surface(), indent=1,
                                         sort_keys=True) + "\n")
    print(f"wrote {TRANSCRIPT} and {PARSER_SURFACE}")
