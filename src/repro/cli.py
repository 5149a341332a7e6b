"""Command-line interface.

Examples::

    coma-sim run fft --procs-per-node 4 --memory-pressure 0.8125
    coma-sim figure 2
    coma-sim figure 3 --jobs 4
    coma-sim figure 5 --scale 0.5
    coma-sim table 1
    coma-sim list
    coma-sim thresholds
    coma-sim trace synth_migratory --scale 0.1 --chrome trace.json
    coma-sim explain synth_migratory --scale 0.1 --line 0x80
    coma-sim sanitize fft --mp 0.875 --scale 0.1 --report findings.json

The commands share four pieces: ``_spec_flags``/``_spec`` declare the
RunSpec flags and build the RunSpec they name; ``_report_flags`` declares
``--format``/``--out`` and ``_emit`` writes every report and side file;
:func:`repro.obs.manifest.provenance` stamps every report; ``ARTIFACTS``
maps the paper's figures and table to their run, format and export
functions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from datetime import datetime, timezone

from repro.experiments import export as ex
from repro.experiments.figure2 import format_figure2, run_figure2
from repro.experiments.figure3 import format_figure3, run_figure3
from repro.experiments.figure4 import format_figure4, run_figure4
from repro.experiments.figure5 import format_figure5, run_figure5
from repro.experiments.runner import RunSpec, build_simulation, run_spec
from repro.experiments.table1 import format_table1, run_table1
from repro.obs.manifest import provenance, provenance_header
from repro.sim.results import render_run_report
from repro.workloads.registry import paper_workloads, workload_names

#: Paper artifact -> (run, format, csv, json); ``json`` is None when the
#: artifact has no JSON export.
ARTIFACTS = {
    "figure2": (run_figure2, format_figure2, ex.figure2_csv, ex.figure2_json),
    "figure3": (run_figure3, format_figure3, ex.traffic_csv, ex.traffic_json),
    "figure4": (run_figure4, format_figure4, ex.traffic_csv, ex.traffic_json),
    "figure5": (run_figure5, format_figure5, ex.figure5_csv, ex.figure5_json),
    "table1": (run_table1, format_table1, ex.table1_csv, None),
}

_SPEC_FIELDS = frozenset(f.name for f in dataclasses.fields(RunSpec))


def _spec(args: argparse.Namespace, **extra) -> RunSpec:
    """The RunSpec named by every parsed option whose dest is a RunSpec
    field (see ``_spec_flags``), plus ``extra``."""
    fields = {k: v for k, v in vars(args).items() if k in _SPEC_FIELDS}
    return RunSpec(**fields, **extra)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(text: str, path: str | None, pointer: str) -> None:
    """Write ``text`` to ``path`` and print the ``pointer`` line, or print
    ``text`` when there is no path.  Every file the CLI writes goes
    through here."""
    if not text.endswith("\n"):
        text += "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(pointer)
    else:
        print(text, end="")


@contextmanager
def _recording(args: argparse.Namespace, source: str):
    """Install a history recorder for the duration of a command when the
    user passed ``--record [BATCH]``; print its summary on the way out.

    Recording is strictly opt-in here, so default runs stay zero-overhead
    and byte-identical; an explicit ``--record`` wins over the
    ``REPRO_NO_HISTORY`` environment gate.
    """
    batch = getattr(args, "record", None)
    if batch is None:
        yield None
        return
    from repro.experiments.runner import HistoryRecorder, set_history_recorder
    from repro.obs.history import HistoryArchive

    archive = HistoryArchive(getattr(args, "archive", None))
    rec = HistoryRecorder(archive, source=source, batch=batch or None)
    set_history_recorder(rec)
    try:
        yield rec
    finally:
        set_history_recorder(None)
        print(rec.summary(), file=sys.stderr)


def _timeline(sim, args: argparse.Namespace):
    """Attach a timeline sampler when ``--timeline`` was given."""
    if not args.timeline:
        return None
    from repro.obs.timeline import TimelineSampler

    tl = TimelineSampler()
    # Sample every 500 kernel events: dense enough for short traced
    # runs, and the run itself is already paying for event tracing.
    sim.attach(tl, every=500)
    return tl


def _emit_timeline(tl, args: argparse.Namespace) -> None:
    if tl is not None:
        _emit(_dumps(tl.to_json()), args.timeline,
              f"timeline: {args.timeline} ({len(tl.t)} samples)")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec(
        args,
        dram_bandwidth_factor=args.dram_bandwidth,
        bus_bandwidth_factor=args.bus_bandwidth,
        inclusive=not args.non_inclusive,
    )
    with _recording(args, "run"):
        result = run_spec(spec, use_cache=not args.no_cache)
    print(render_run_report(result))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import ChromeTraceSink, FlightRecorder, JsonlTraceSink

    jsonl_path = args.jsonl
    if jsonl_path is None and args.chrome is None:
        jsonl_path = f"{args.workload}.trace.jsonl"
    js = JsonlTraceSink(jsonl_path) if jsonl_path else None
    ct = ChromeTraceSink(args.chrome) if args.chrome else None
    flight = FlightRecorder(capacity=args.flight, dump_path=args.flight_dump)
    sinks = [s for s in (js, ct) if s is not None] + [flight]
    if args.spans:
        # Opt in per instance: span events flow to every attached sink
        # (trace files grow; goldens without --spans stay byte-identical).
        for s in sinks:
            s.wants_spans = True

    sim = build_simulation(_spec(args))
    for s in sinks:
        sim.attach(s)
    tl = _timeline(sim, args)
    try:
        result = sim.run()
        if tl is not None and ct is not None:
            # Counter tracks land in the same Perfetto file (before close
            # writes it) so spans and timelines render side by side.
            ct.trace_events.extend(tl.perfetto_events())
    except Exception as exc:
        dump = getattr(exc, "flight_dump", None)
        if dump:
            print(dump, file=sys.stderr)
        raise
    finally:
        for s in sinks:
            s.close()
    print(f"simulated {result.elapsed_ns} ns, {flight.total} trace events")
    if js is not None:
        print(f"jsonl: {jsonl_path} ({js.count} events)")
    if ct is not None:
        print(f"chrome trace: {args.chrome} ({ct.count} events) "
              "— open in https://ui.perfetto.dev")
    _emit_timeline(tl, args)
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    from repro.analysis.bounds import BoundsCertifier, envelope_for
    from repro.obs.openmetrics import to_openmetrics
    from repro.obs.spans import (
        StallAttribution,
        format_attribution,
        format_span_tree,
    )

    spec = _spec(args)
    att = StallAttribution(top_spans=args.top_spans)
    sim = build_simulation(spec)
    cert = BoundsCertifier(envelope_for(args.machine, sim.machine.config.timing))
    sim.attach(att)
    sim.attach(cert)
    tl = _timeline(sim, args)
    result = sim.run()
    cert.finalize()
    report = att.report(stalls=result.stalls, elapsed_ns=result.elapsed_ns)
    report["spec_key"] = spec.key()
    report["bounds"] = {
        "spans_checked": cert.checked,
        "violations": cert.counts(),
        "ok": cert.ok(),
    }
    if args.format == "json":
        out = _dumps(report)
    else:
        out = format_attribution(report) + "\n"
        b = report["bounds"]
        v = b["violations"]
        out += (f"static bounds: {b['spans_checked']} span(s) checked, "
                f"B101={v.get('B101', 0)} B102={v.get('B102', 0)} "
                f"B103={v.get('B103', 0)}\n")
        trees = att.slowest_spans()
        if trees:
            out += f"{len(trees)} slowest access(es), full span trees:\n"
            out += "\n".join(format_span_tree(t) for t in trees) + "\n"
    _emit(out, args.out, f"attribution: {args.out} ({args.format})")
    if args.openmetrics:
        _emit(to_openmetrics(att.registry, exemplars=att.exemplars()),
              args.openmetrics,
              f"openmetrics: {args.openmetrics} (latency histograms "
              "with tail exemplars)")
    _emit_timeline(tl, args)
    errs = report["conservation_errors"]
    if errs:
        print("conservation violations:", file=sys.stderr)
        for e in errs:
            print(f"  {e}", file=sys.stderr)
        return 1
    if not report["bounds"]["ok"]:
        print("static bound violations:", file=sys.stderr)
        for f in cert.findings[:5]:
            print(f"  {f.rule}: {f.message}", file=sys.stderr)
        return 1
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis.bounds import (
        BoundsCertifier,
        bound_table,
        envelope_for,
        format_bounds,
    )

    spec = _spec(args)
    sim = build_simulation(spec)
    timing = sim.machine.config.timing
    rows = bound_table(args.machine, timing)

    cert = None
    if args.check:
        cert = BoundsCertifier(envelope_for(args.machine, timing),
                               max_witnesses=args.max_witnesses)
        sim.attach(cert)
        sim.run()
        cert.finalize()

    if args.format == "json" or args.out:
        payload = {
            "provenance": provenance(tool="coma-sim bounds"),
            "machine": args.machine,
            "spec_key": spec.key(),
            "bounds": [r.to_record() for r in rows],
        }
        if cert is not None:
            payload["certification"] = cert.report()
        text = _dumps(payload)
    else:
        text = format_bounds(rows, args.machine) + "\n"
    _emit(text, args.out, f"bounds: {args.out} ({args.format})")

    if cert is None:
        return 0
    counts = cert.counts()
    if cert.ok():
        print(f"bounds OK: {cert.checked} span(s) within the static "
              f"envelope (machine={args.machine})")
        return 0
    print(f"bounds FAILED: {sum(counts.values())} violation(s) in "
          f"{cert.checked} span(s): "
          + " ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v),
          file=sys.stderr)
    for f in cert.findings:
        print(f"{f.rule}: {f.message}", file=sys.stderr)
        if f.detail:
            for line in f.detail.splitlines():
                print(f"    {line}", file=sys.stderr)
    return 1


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.analysis.coverage import (
        MICRO_RECIPES,
        CoverageAnalysis,
        CoverageMap,
        format_coverage,
        run_micro,
    )

    ana = CoverageAnalysis(n_nodes=args.nodes)
    for wl in args.workloads:
        for mp in args.memory_pressure:
            spec = RunSpec(workload=wl, machine=args.machine,
                           memory_pressure=mp, scale=args.scale)
            sim = build_simulation(spec)
            cov = CoverageMap()
            sim.attach(cov)
            sim.run()
            ana.add_run(f"{wl}@mp={mp:g}", cov.exercised)
    if args.micro:
        micro: set = set()
        for recipe in MICRO_RECIPES.values():
            if recipe is not None:
                micro |= run_micro(recipe).exercised
        ana.add_run("micro", micro)
    report = ana.report()

    if args.format == "json" or args.out:
        text = _dumps({
            "provenance": provenance(tool="coma-sim coverage"),
            "machine": args.machine,
            "scale": args.scale,
            **report,
        })
    else:
        text = format_coverage(report) + "\n"
    _emit(text, args.out, f"coverage: {args.out} ({args.format})")

    if args.min_pct is not None and report["total_pct"] < args.min_pct:
        print(f"coverage FAILED: {report['total_pct']:.2f}% of reachable "
              f"cells < required {args.min_pct:.2f}%", file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import LineBiography

    bio = LineBiography()
    sim = build_simulation(_spec(args))
    sim.attach(bio)
    att = None
    if args.slowest:
        from repro.obs.spans import StallAttribution, format_span_tree

        att = StallAttribution(top_spans=args.slowest)
        sim.attach(att)
    sim.run()
    if att is not None:
        trees = att.slowest_spans()
        print(f"{len(trees)} slowest access(es), full span trees:")
        for tree in trees:
            print(format_span_tree(tree))
        if args.line is None:
            return 0
    if args.line is None:
        print("busiest lines:")
        for ln in bio.lines()[: args.top]:
            print(f"  {ln:#x}: {len(bio.history(ln))} event(s)")
        print("re-run with --line <LINE> for one line's full biography")
        return 0
    print(bio.narrate(args.line))
    return 0


def _run_artifact(run, args: argparse.Namespace):
    kwargs = {"scale": args.scale, "jobs": args.jobs}
    if getattr(args, "workloads", None):
        kwargs["workloads"] = args.workloads
    return run(**kwargs)


def _show_artifact(name: str, args: argparse.Namespace, missing: str) -> int:
    """Run one paper artifact and print it the way the paper lays it out."""
    if name not in ARTIFACTS:
        print(missing, file=sys.stderr)
        return 2
    run, fmt, _, _ = ARTIFACTS[name]
    with _recording(args, args.command):
        print(fmt(_run_artifact(run, args)))
    _print_cache_summary()
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    return _show_artifact(f"figure{args.number}", args,
                          f"no figure {args.number} in the paper")


def _cmd_table(args: argparse.Namespace) -> int:
    return _show_artifact(f"table{args.number}", args,
                          "the paper has one table (Table 1)")


def _print_cache_summary() -> None:
    from repro.experiments.runner import format_cache_summary

    print(format_cache_summary(), file=sys.stderr)


def _cmd_list(_args: argparse.Namespace) -> int:
    paper = set(paper_workloads())
    print("paper applications (Table 1):")
    for n in paper_workloads():
        print(f"  {n}")
    extra = [n for n in workload_names() if n not in paper]
    if extra:
        print("synthetic workloads:")
        for n in extra:
            print(f"  {n}")
    return 0


def _cmd_thresholds(_args: argparse.Namespace) -> int:
    from repro.experiments.ablations import format_replication_thresholds

    print(format_replication_thresholds())
    return 0


def _cmd_protocol(_args: argparse.Namespace) -> int:
    from repro.coma.protocol import format_table

    print(format_table())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.crosscheck import crosscheck
    from repro.analysis.liveness import check_liveness, format_liveness_report
    from repro.analysis.modelcheck import check_protocol, format_report

    report = check_protocol(n_nodes=args.nodes, n_lines=args.lines)
    print(format_report(report))  # findings (with traces) included when broken
    ok = report.ok
    lv = check_liveness(n_nodes=args.nodes, n_lines=args.lines)
    print(format_liveness_report(lv))
    ok = ok and lv.ok
    if not args.no_crosscheck:
        xc = crosscheck(nodes=min(args.nodes, 3), depth=args.depth)
        status = "OK" if xc.ok else "DIVERGED"
        print(
            f"machine crosscheck {status}: "
            f"{xc.stats.get('sequences', 0)} op sequences, "
            f"{xc.stats.get('scenarios', 0)} relocation scenarios"
        )
        if not xc.ok:
            from repro.analysis.report import format_findings

            print(format_findings(xc.findings), file=sys.stderr)
        ok = ok and xc.ok
    return 0 if ok else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_findings
    from repro.analysis.sanitize import sanitizer_for

    spec = _spec(args)
    sim = build_simulation(spec)
    san = sanitizer_for(
        sim,
        spec=spec,
        allow=args.allow or (),
        window=args.window,
        pingpong_threshold=args.pingpong,
    )
    sim.attach(san)
    sim.run()
    report = san.finish()
    prov = san.provenance or {}
    print(f"# provenance: repro={prov.get('repro', '?')} "
          f"cache_version={prov.get('cache_version', '?')} "
          f"git_rev={prov.get('git_rev', '?')} seed={prov.get('seed', '?')}")
    s = report.stats
    print(f"sanitize {args.workload} ({args.machine}, "
          f"mp={args.memory_pressure}): {s['events']} events — "
          f"{s['accesses']} accesses, {s['syncops']} sync ops, "
          f"{s['transitions']} transitions, {s['replacements']} relocations")
    if args.report:
        payload = {
            "provenance": prov,
            "stats": report.stats,
            "findings": [
                {"rule": f.rule, "message": f.message, "path": f.path,
                 "detail": f.detail}
                for f in report.findings
            ],
        }
        _emit(_dumps(payload), args.report, f"report: {args.report}")
    if report.findings:
        print(format_findings(report.findings), file=sys.stderr)
        print(f"sanitize FAILED: {len(report.findings)} finding(s)",
              file=sys.stderr)
        return 1
    suppressed = s.get("suppressed", 0)
    tail = f" ({suppressed} suppressed)" if suppressed else ""
    print(f"sanitize OK: no races, no stale values, no ping-pong{tail}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import default_root, lint_file, lint_tree
    from repro.analysis.report import AnalysisReport, format_findings

    if args.explain:
        from repro.analysis.report import rule_registry

        registry = rule_registry()
        doc = registry.get(args.explain)
        if doc is None:
            known = " ".join(sorted(registry))
            print(f"coma-sim lint: unknown rule {args.explain!r}\n"
                  f"known rules: {known}", file=sys.stderr)
            return 2
        print(f"{args.explain}: {doc}")
        return 0

    report = AnalysisReport()
    for target in args.paths or [default_root()]:
        target = Path(target)
        if target.is_dir():
            report.extend(lint_tree(target))
        elif target.is_file():
            report.findings.extend(lint_file(target))
            report.stats["files"] = report.stats.get("files", 0) + 1
        else:
            print(f"coma-sim lint: no such file or directory: {target}",
                  file=sys.stderr)
            return 2
    if args.rules:
        wanted = set(args.rules)
        report.findings = [f for f in report.findings if f.rule in wanted]
    if args.format == "json" or args.out:
        # Same shape the sanitizer report uses (provenance + stats +
        # findings), so CI consumes both with one parser; lint findings
        # additionally carry a 1-based source line.
        text = _dumps({
            "provenance": provenance(tool="coma-sim lint"),
            "stats": report.stats,
            "findings": [dataclasses.asdict(f) for f in report.findings],
        })
        if args.out:
            _emit(text, args.out, f"report: {args.out}")
        if args.format == "json":
            print(text, end="")
    if args.format != "json":
        if report.findings:
            print(format_findings(report.findings))
        n = report.stats.get("files", 0)
        print(f"{len(report.findings)} finding(s) in {n} file(s)")
    return 1 if report.findings else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profiler import SharingProfiler, format_profile

    prof = SharingProfiler()
    sim = build_simulation(_spec(args))
    sim.attach(prof, every=args.every)
    sim.run()
    prof.sample(sim.machine)
    print(format_profile(prof.report()))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.experiments.runner import set_experiment_metrics
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.openmetrics import to_json, to_openmetrics, to_table

    spec = _spec(args)
    registry = MetricsRegistry()
    set_experiment_metrics(registry)
    try:
        sim = build_simulation(spec)
        sim.attach(registry)
        sim.run()
    finally:
        set_experiment_metrics(None)
    if args.format == "openmetrics":
        out = to_openmetrics(registry)
    elif args.format == "json":
        out = to_json(registry, provenance=provenance(
            timestamp=_now(), spec_key=spec.key()))
    else:
        out = to_table(registry) + "\n"
    _emit(out, args.out, f"metrics: {args.out} ({args.format})")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.history import (
        HistoryArchive,
        HistoryArchiveError,
        format_history,
    )

    archive = HistoryArchive(args.archive)
    try:
        if args.action == "list":
            rows = archive.list_runs(
                workload=args.workload, key=args.key,
                batch=args.batch, limit=args.limit,
            )
            if args.format == "json":
                _emit(_dumps(rows), args.out, f"history: {args.out}")
            else:
                print(f"history: {len(rows)} of {archive.run_count()} "
                      f"run(s) in {archive.path}")
                if rows:
                    print(format_history(rows))
            return 0
        if args.action == "show":
            if not args.key:
                print("history show: a run key (or unique prefix) is "
                      "required", file=sys.stderr)
                return 2
            row = archive.get_run(args.key, rev=args.rev)
            if row is None:
                print(f"history: no run matching key {args.key!r}",
                      file=sys.stderr)
                return 1
            _emit(_dumps(row), args.out, f"history: {args.out}")
            return 0
        if args.action == "gc":
            stats = archive.gc(
                keep_revisions=args.keep_revisions, dry_run=args.dry_run)
            tag = "would delete" if stats["dry_run"] else "deleted"
            print(f"history gc: {tag} {stats['runs_deleted']} run row(s)")
            return 0
    except HistoryArchiveError as exc:
        print(f"history: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse restricts choices


def _emit_diff(args: argparse.Namespace, report: dict, format_table) -> None:
    text = _dumps(report) if args.format == "json" else format_table(report)
    _emit(text, args.out, f"diff: {args.out}")


def _cmd_diff(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.diff import (
        diff_runs,
        diff_sweeps,
        format_diff,
        format_sweep_diff,
    )
    from repro.obs.history import HistoryArchive, HistoryArchiveError

    if not args.sweep and len(args.keys) != 2:
        print("diff: expected exactly two run keys, two benchmark "
              "payload files, or --sweep A B", file=sys.stderr)
        return 2
    if not args.sweep and all(Path(k).is_file() for k in args.keys):
        return _diff_payload_files(args)
    archive = HistoryArchive(args.archive)
    try:
        if args.sweep:
            rows_a, rows_b = (
                [archive.get_run(r["key"], rev=r["rev"])
                 for r in archive.list_runs(batch=batch, limit=1000)]
                for batch in args.sweep)
            if not rows_a or not rows_b:
                missing = args.sweep[0] if not rows_a else args.sweep[1]
                print(f"diff: no archived runs in batch {missing!r}",
                      file=sys.stderr)
                return 1
            report = diff_sweeps(rows_a, rows_b, noise_pct=args.noise)
            _emit_diff(args, report, format_sweep_diff)
            worst = report.get("worst_regression")
            return 1 if worst and worst["elapsed"]["change_pct"] > \
                args.noise else 0
        a = archive.get_run(args.keys[0])
        b = archive.get_run(args.keys[1])
        for key, row in ((args.keys[0], a), (args.keys[1], b)):
            if row is None:
                print(f"diff: no archived run matching key {key!r}",
                      file=sys.stderr)
                return 1
        _emit_diff(args, diff_runs(a, b, noise_pct=args.noise), format_diff)
        return 0
    except HistoryArchiveError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2


def _diff_payload_files(args: argparse.Namespace) -> int:
    """``diff A.json B.json`` on two benchmark ``run.py --out`` payloads:
    exit 1 when B fails the gate, 2 when a payload is unreadable."""
    from repro.obs.diff import (
        check_payload,
        diff_payloads,
        format_payload_diff,
    )

    payloads = []
    for path in args.keys:
        try:
            with open(path) as fh:
                payloads.append(check_payload(json.load(fh)))
        except (OSError, ValueError) as exc:
            print(f"diff: {path}: {exc}", file=sys.stderr)
            return 2
    report = diff_payloads(*payloads)
    _emit_diff(args, report, format_payload_diff)
    return 1 if report["failures"] else 0


def _cmd_export(args: argparse.Namespace) -> int:
    run, _, to_csv, to_json = ARTIFACTS[args.artifact]
    render = to_json if args.format == "json" else to_csv
    if render is None:
        print(f"{args.artifact} supports csv only", file=sys.stderr)
        return 2
    out = render(_run_artifact(run, args))
    if args.provenance:
        out = _with_provenance(out, args.format)
    print(out, end="")
    _print_cache_summary()
    return 0


def _with_provenance(out: str, fmt: str) -> str:
    """Stamp an export with the code version that produced it.

    CSV gets a ``# provenance:`` comment line; JSON gets a top-level
    ``_provenance`` object (a comment would break parsers).
    """
    ts = _now()
    if fmt != "json":
        return provenance_header(timestamp=ts) + out
    obj = json.loads(out)
    prov = provenance(timestamp=ts)
    if isinstance(obj, list):
        obj = {"_provenance": prov, "data": obj}
    else:
        obj["_provenance"] = prov
    return _dumps(obj)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.app import ServeConfig, format_listen_line, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        sweep_jobs=args.sweep_jobs,
        max_inflight=args.max_inflight,
        rate=args.rate,
        burst=args.burst,
        max_sweep_points=args.max_sweep_points,
        drain_timeout=args.drain_timeout,
        history_path=args.archive,
        record=args.record,
    )

    def ready(service) -> None:
        print(format_listen_line(service), file=sys.stderr, flush=True)

    try:
        return asyncio.run(serve_forever(config, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.loadtest import format_report, run_loadtest

    report = asyncio.run(run_loadtest(
        args.host, args.port,
        requests=args.requests,
        concurrency=args.concurrency,
        seed0=args.seed0,
    ))
    if args.out:
        _emit(_dumps(report), args.out, f"loadtest: {args.out}")
    print(format_report(report))
    if not report["ok"]:
        print("loadtest: coalesced mix ran more than one simulation",
              file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _positive_float(text: str) -> float:
    """argparse type for ``--scale``: a number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _line_number(text: str) -> int:
    """argparse type for ``--line``: 0x-prefixed hex or decimal."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a line number: {text!r}") from None


def _spec_flags(sp: argparse.ArgumentParser,
                machines: tuple | None = ("coma", "hcoma"),
                seed: bool = True) -> None:
    """The flags naming one run.  Each dest is the RunSpec field it sets,
    so ``_spec(args)`` builds the spec; ``machines=None`` and
    ``seed=False`` leave those fields at RunSpec's defaults."""
    sp.add_argument("workload", choices=workload_names())
    if machines:
        sp.add_argument("--machine", choices=list(machines), default="coma")
    sp.add_argument("--procs-per-node", type=int, default=1,
                    choices=[1, 2, 4, 8, 16])
    sp.add_argument("--memory-pressure", "--mp", type=float, default=0.5)
    sp.add_argument("--scale", type=_positive_float, default=1.0)
    if seed:
        sp.add_argument("--seed", type=int, default=1997)


def _sweep_flags(sp: argparse.ArgumentParser) -> None:
    """``--scale`` and ``--jobs`` for the paper-artifact sweeps."""
    sp.add_argument("--scale", type=_positive_float, default=1.0)
    sp.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for the sweep (1 = serial, the "
        "default; -1 = one per CPU)",
    )


def _report_flags(sp: argparse.ArgumentParser, formats: tuple,
                  default: str | None = None,
                  out: str = "write the report to a file instead of "
                  "stdout") -> None:
    """``--format`` (default: the first of ``formats``) and ``--out``
    (written through ``_emit``) with ``out`` as its help."""
    sp.add_argument("--format", choices=list(formats),
                    default=default or formats[0])
    sp.add_argument("--out", metavar="PATH", help=out)


def _archive_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--archive", metavar="PATH",
        help="history archive file (default "
        "$REPRO_HISTORY_DIR/history.sqlite, .repro_history/)",
    )


def _record_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--record", nargs="?", const="", default=None, metavar="BATCH",
        help="archive completed runs in the history store, optionally "
        "tagged with a batch name (see 'coma-sim history')",
    )
    _archive_flag(sp)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coma-sim",
        description="Cluster-based COMA multiprocessor simulator "
        "(Landin & Karlgren, IPPS 1997 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    _spec_flags(run, machines=("coma", "numa"))
    run.add_argument("--am-assoc", type=int, default=4)
    run.add_argument("--dram-bandwidth", type=float, default=1.0)
    run.add_argument("--bus-bandwidth", type=float, default=1.0)
    run.add_argument("--non-inclusive", action="store_true")
    run.add_argument("--no-cache", action="store_true")
    _record_flags(run)
    run.set_defaults(func=_cmd_run)

    fig = sub.add_parser("figure", help="reproduce a paper figure")
    fig.add_argument("number", type=int)
    fig.add_argument("--workloads", nargs="*", metavar="APP",
                     choices=workload_names(),
                     help="restrict the sweep to these applications")
    _sweep_flags(fig)
    _record_flags(fig)
    fig.set_defaults(func=_cmd_figure)

    tab = sub.add_parser("table", help="reproduce a paper table")
    tab.add_argument("number", type=int)
    _sweep_flags(tab)
    _record_flags(tab)
    tab.set_defaults(func=_cmd_table)

    ls = sub.add_parser("list", help="list available workloads")
    ls.set_defaults(func=_cmd_list)

    th = sub.add_parser("thresholds", help="print replication thresholds")
    th.set_defaults(func=_cmd_thresholds)

    pr = sub.add_parser("protocol", help="print the E/O/S/I transition table")
    pr.set_defaults(func=_cmd_protocol)

    vf = sub.add_parser(
        "verify",
        help="model-check the coherence protocol and cross-check the machine",
    )
    vf.add_argument("--nodes", type=int, default=3, choices=[2, 3, 4])
    vf.add_argument("--lines", type=int, default=1, choices=[1, 2])
    vf.add_argument("--depth", type=int, default=3,
                    help="crosscheck op-sequence depth")
    vf.add_argument("--no-crosscheck", action="store_true",
                    help="skip driving the executable machine")
    vf.set_defaults(func=_cmd_verify)

    ln = sub.add_parser(
        "lint", help="run the simulator-hygiene linter (see docs/VERIFICATION.md)"
    )
    ln.add_argument("paths", nargs="*",
                    help="files or package roots (default: the repro package)")
    ln.add_argument("--rules", nargs="*", metavar="ID",
                    help="only report these rule IDs")
    _report_flags(ln, ("text", "json"),
                  out="also write the JSON report (the sanitize report's "
                  "shape) to a file (CI artifact)")
    ln.add_argument("--explain", metavar="RULE",
                    help="print the documentation for one rule ID (from "
                    "the consolidated registry) and exit")
    ln.set_defaults(func=_cmd_lint)

    pf = sub.add_parser("profile", help="sharing/replication profile of a run")
    _spec_flags(pf, machines=None, seed=False)
    pf.add_argument("--every", type=int, default=5000)
    pf.set_defaults(func=_cmd_profile)

    exp = sub.add_parser("export", help="export figure data as CSV/JSON")
    exp.add_argument("artifact", choices=list(ARTIFACTS))
    exp.add_argument("--format", choices=["csv", "json"], default="csv")
    _sweep_flags(exp)
    exp.add_argument("--provenance", action="store_true",
                     help="stamp the export with code version / git revision")
    exp.set_defaults(func=_cmd_export)

    tr = sub.add_parser(
        "trace", help="run one simulation with event tracing enabled"
    )
    _spec_flags(tr, machines=("coma", "hcoma", "numa", "uma"))
    tr.add_argument("--jsonl", metavar="PATH",
                    help="write a JSONL event trace (default: "
                    "<workload>.trace.jsonl when --chrome is not given)")
    tr.add_argument("--chrome", metavar="PATH",
                    help="write a Chrome trace-event file for Perfetto")
    tr.add_argument("--flight", type=int, default=4096, metavar="N",
                    help="flight-recorder capacity (last N events)")
    tr.add_argument("--flight-dump", metavar="PATH",
                    help="where to dump the flight recorder if the run dies")
    tr.add_argument("--spans", action="store_true",
                    help="emit causal span trees per memory access "
                    "(phase slices + flow arrows in --chrome)")
    tr.add_argument("--timeline", metavar="PATH",
                    help="sample a metric timeline over simulated time and "
                    "write the JSON series; counter tracks are merged "
                    "into --chrome")
    tr.set_defaults(func=_cmd_trace)

    at = sub.add_parser(
        "attribute",
        help="attribute simulated latency to protocol phases "
        "(busy/read/write/sync/relocation breakdown per processor)",
    )
    _spec_flags(at)
    _report_flags(at, ("table", "json"))
    at.add_argument("--top-spans", type=int, default=10, metavar="N",
                    help="keep full span trees for the N slowest accesses")
    at.add_argument("--openmetrics", metavar="PATH",
                    help="also export latency histograms as OpenMetrics "
                    "with tail exemplars")
    at.add_argument("--timeline", metavar="PATH",
                    help="also sample a metric timeline and write the "
                    "JSON series")
    at.set_defaults(func=_cmd_attribute)

    bo = sub.add_parser(
        "bounds",
        help="static min/max latency bounds per access path, optionally "
        "certified against a run's observed span trees (B101-B103)",
    )
    _spec_flags(bo, machines=("coma", "hcoma", "numa"))
    bo.add_argument("--check", action="store_true",
                    help="run the workload and certify every span against "
                    "its static envelope (non-zero exit on violation)")
    _report_flags(bo, ("table", "json"))
    bo.add_argument("--max-witnesses", type=int, default=25, metavar="N",
                    help="keep at most N violation witnesses")
    bo.set_defaults(func=_cmd_bounds)

    cv = sub.add_parser(
        "coverage",
        help="protocol-table coverage: reachable cells vs cells the "
        "workloads exercise (dead cells, gaps, per-workload %%)",
    )
    cv.add_argument("--workloads", nargs="*", metavar="WL",
                    choices=workload_names(),
                    default=["synth_migratory", "synth_producer_consumer",
                             "fft"],
                    help="workloads to trace (default: two synthetics + fft)")
    cv.add_argument("--machine", choices=["coma", "hcoma"], default="coma")
    cv.add_argument("--memory-pressure", "--mp", type=float, nargs="*",
                    default=[0.0625, 0.875], metavar="MP",
                    help="memory pressures to trace each workload at "
                    "(default: the paper's 6.25%% and 87.5%%)")
    cv.add_argument("--scale", type=_positive_float, default=0.1)
    cv.add_argument("--nodes", type=int, default=3, choices=[2, 3, 4],
                    help="model-checker configuration for the reachable set")
    cv.add_argument("--micro", action="store_true",
                    help="also run the directed micro-workloads that drive "
                    "otherwise-uncovered cells")
    cv.add_argument("--min-pct", type=float, metavar="PCT",
                    help="exit non-zero when total coverage of reachable "
                    "cells falls below PCT (CI gate)")
    _report_flags(cv, ("table", "json"))
    cv.set_defaults(func=_cmd_coverage)

    sz = sub.add_parser(
        "sanitize",
        help="run one simulation under the coherence sanitizer "
        "(races, stale values, relocation ping-pong)",
    )
    _spec_flags(sz)
    sz.add_argument("--window", type=int, default=32, metavar="N",
                    help="trailing events attached to each finding")
    sz.add_argument("--pingpong", type=int, default=24, metavar="N",
                    help="chained relocations before L003 fires")
    sz.add_argument("--allow", nargs="*", metavar="RULE",
                    help="rule IDs to suppress (e.g. R002 L003)")
    sz.add_argument("--report", metavar="PATH",
                    help="write findings + provenance as JSON")
    sz.set_defaults(func=_cmd_sanitize)

    mt = sub.add_parser(
        "metrics",
        help="run one simulation with the metrics registry attached and "
        "export it (OpenMetrics/JSON/table)",
    )
    _spec_flags(mt)
    _report_flags(mt, ("openmetrics", "json", "table"), default="table",
                  out="write the export to a file instead of stdout")
    mt.set_defaults(func=_cmd_metrics)

    hi = sub.add_parser(
        "history",
        help="query the persistent run archive (list, show, gc)",
    )
    hi.add_argument("action", choices=["list", "show", "gc"])
    hi.add_argument("key", nargs="?",
                    help="run key (or unique prefix) for 'show'; "
                    "key prefix filter for 'list'")
    _archive_flag(hi)
    hi.add_argument("--workload", metavar="WL",
                    help="list: only runs of this workload")
    hi.add_argument("--batch", metavar="NAME",
                    help="list: only runs recorded under this batch tag")
    hi.add_argument("--limit", type=int, default=50, metavar="N",
                    help="list: at most N rows (default 50)")
    hi.add_argument("--rev", type=int, metavar="R",
                    help="show: this revision instead of the newest")
    hi.add_argument("--keep-revisions", type=int, default=1, metavar="N",
                    help="gc: newest revisions kept per key (default 1)")
    hi.add_argument("--dry-run", action="store_true",
                    help="gc: report what would be deleted, delete "
                    "nothing")
    _report_flags(hi, ("table", "json"),
                  out="write JSON output to a file instead of stdout")
    hi.set_defaults(func=_cmd_history)

    dd = sub.add_parser(
        "diff",
        help="differential attribution between two archived runs "
        "(counter ratios, phase deltas naming the responsible phase, "
        "histogram shifts) or two benchmark payloads (median ratios, "
        "the layer and observer that moved most, a slowdown gate)",
    )
    dd.add_argument("keys", nargs="*", metavar="KEY",
                    help="two run keys (or unique prefixes), or two "
                    "'benchmarks/e2e/run.py --out' payload files, to diff")
    dd.add_argument("--sweep", nargs=2, metavar=("BATCH_A", "BATCH_B"),
                    help="diff two recorded batches point-by-point "
                    "instead of two keys")
    dd.add_argument("--noise", type=float, default=1.0, metavar="PCT",
                    help="counter changes at or below this are flagged "
                    "as noise (default 1%%)")
    _archive_flag(dd)
    _report_flags(dd, ("table", "json"))
    dd.set_defaults(func=_cmd_diff)

    xp = sub.add_parser(
        "explain", help="narrate one cache line's protocol history"
    )
    _spec_flags(xp)
    xp.add_argument("--line", metavar="LINE", type=_line_number,
                     help="line number to narrate (0x-prefixed hex or "
                     "decimal); omitted: list the busiest lines")
    xp.add_argument("--top", type=int, default=10,
                     help="how many busy lines to list without --line")
    xp.add_argument("--slowest", type=int, default=0, metavar="N",
                     help="narrate the N slowest accesses as full span trees")
    xp.set_defaults(func=_cmd_explain)

    sv = sub.add_parser(
        "serve",
        help="HTTP simulation service: RunSpec/sweep requests with "
        "single-flight dedup, bounded queues and SSE progress",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8787,
                    help="listen port (0 picks an ephemeral port)")
    sv.add_argument("--workers", type=int, default=4,
                    help="executor threads running request bodies")
    sv.add_argument("--sweep-jobs", type=int, default=1, metavar="N",
                    help="process-pool jobs available to each sweep")
    sv.add_argument("--max-inflight", type=int, default=8, metavar="N",
                    help="bounded per-tenant queue; above it requests "
                    "get 429 + Retry-After")
    sv.add_argument("--rate", type=float, default=50.0, metavar="R",
                    help="token-bucket refill, requests/second per tenant")
    sv.add_argument("--burst", type=float, default=100.0, metavar="B",
                    help="token-bucket capacity per tenant")
    sv.add_argument("--max-sweep-points", type=int, default=256, metavar="N",
                    help="largest accepted sweep request")
    sv.add_argument("--drain-timeout", type=float, default=10.0, metavar="S",
                    help="seconds to wait for in-flight work on shutdown")
    sv.add_argument("--record", action="store_true",
                    help="archive completed simulations in the history "
                    "store (query it with 'coma-sim history' and "
                    "'coma-sim diff')")
    _archive_flag(sv)
    sv.set_defaults(func=_cmd_serve)

    lt = sub.add_parser(
        "loadtest",
        help="measure serve latency: cold, warm-cache and coalesced "
        "request mixes against a running server",
    )
    lt.add_argument("--host", default="127.0.0.1")
    lt.add_argument("--port", type=int, default=8787)
    lt.add_argument("--requests", type=int, default=20, metavar="N",
                    help="requests per scenario")
    lt.add_argument("--concurrency", type=int, default=8, metavar="N",
                    help="concurrent connections for the cold/warm mixes")
    lt.add_argument("--seed0", type=int, default=990_000, metavar="SEED",
                    help="first seed; each scenario uses fresh seeds "
                    "counting up from here")
    lt.add_argument("--out", metavar="PATH",
                    help="also write the full JSON report here")
    lt.set_defaults(func=_cmd_loadtest)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
