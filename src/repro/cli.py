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
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.runner import RunSpec, run_spec
from repro.stats.report import render_run_report
from repro.workloads.registry import paper_workloads, workload_names


from contextlib import contextmanager


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


def _cmd_run(args: argparse.Namespace) -> int:
    spec = RunSpec(
        workload=args.workload,
        machine=args.machine,
        procs_per_node=args.procs_per_node,
        memory_pressure=args.memory_pressure,
        am_assoc=args.am_assoc,
        scale=args.scale,
        seed=args.seed,
        dram_bandwidth_factor=args.dram_bandwidth,
        bus_bandwidth_factor=args.bus_bandwidth,
        inclusive=not args.non_inclusive,
    )
    with _recording(args, "run"):
        result = run_spec(spec, use_cache=not args.no_cache)
    print(render_run_report(result))
    return 0


def _trace_spec(args: argparse.Namespace) -> RunSpec:
    return RunSpec(
        workload=args.workload,
        machine=args.machine,
        procs_per_node=args.procs_per_node,
        memory_pressure=args.memory_pressure,
        scale=args.scale,
        seed=args.seed,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.experiments.runner import build_simulation
    from repro.obs import ChromeTraceSink, FlightRecorder, JsonlTraceSink
    from repro.obs.timeline import TimelineSampler

    sinks = []
    jsonl_path = args.jsonl
    if jsonl_path is None and args.chrome is None:
        jsonl_path = f"{args.workload}.trace.jsonl"
    js = JsonlTraceSink(jsonl_path) if jsonl_path else None
    if js is not None:
        sinks.append(js)
    ct = ChromeTraceSink(args.chrome) if args.chrome else None
    if ct is not None:
        sinks.append(ct)
    flight = FlightRecorder(capacity=args.flight, dump_path=args.flight_dump)
    sinks.append(flight)
    if args.spans:
        # Opt in per instance: span events flow to every attached sink
        # (trace files grow; goldens without --spans stay byte-identical).
        for s in sinks:
            s.wants_spans = True

    tl = TimelineSampler() if args.timeline else None
    sim = build_simulation(_trace_spec(args))
    for s in sinks:
        sim.attach(s)
    if tl is not None:
        # Sample every 500 kernel events: dense enough for short traced
        # runs, and the run itself is already paying for event tracing.
        sim.attach(tl, every=500)
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
    if tl is not None:
        with open(args.timeline, "w") as fh:
            _json.dump(tl.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"timeline: {args.timeline} ({len(tl.t)} samples)")
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    import json as _json

    from repro.experiments.runner import build_simulation
    from repro.obs.openmetrics import to_openmetrics
    from repro.obs.spans import (
        StallAttribution,
        format_attribution,
        format_span_tree,
    )
    from repro.obs.timeline import TimelineSampler

    from repro.analysis.bounds import BoundsCertifier, envelope_for

    spec = _trace_spec(args)
    att = StallAttribution(top_spans=args.top_spans)
    tl = TimelineSampler() if args.timeline else None
    sim = build_simulation(spec)
    cert = BoundsCertifier(envelope_for(args.machine, sim.machine.config.timing))
    sim.attach(att)
    sim.attach(cert)
    if tl is not None:
        sim.attach(tl, every=500)
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
        out = _json.dumps(report, indent=2, sort_keys=True) + "\n"
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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
        print(f"attribution: {args.out} ({args.format})")
    else:
        print(out, end="")
    if args.openmetrics:
        with open(args.openmetrics, "w") as fh:
            fh.write(to_openmetrics(att.registry, exemplars=att.exemplars()))
        print(f"openmetrics: {args.openmetrics} (latency histograms "
              "with tail exemplars)")
    if tl is not None:
        with open(args.timeline, "w") as fh:
            _json.dump(tl.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"timeline: {args.timeline} ({len(tl.t)} samples)")
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
    import json as _json

    from repro.analysis.bounds import (
        BoundsCertifier,
        bound_table,
        envelope_for,
        format_bounds,
    )
    from repro.experiments.runner import build_simulation

    spec = _trace_spec(args)
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
        from repro import __version__
        from repro.obs.manifest import git_revision

        payload = {
            "provenance": {
                "repro": __version__,
                "git_rev": git_revision() or "unknown",
                "tool": "coma-sim bounds",
            },
            "machine": args.machine,
            "spec_key": spec.key(),
            "bounds": [r.to_record() for r in rows],
        }
        if cert is not None:
            payload["certification"] = cert.report()
        text = _json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = format_bounds(rows, args.machine) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"bounds: {args.out} ({args.format})")
    else:
        print(text, end="")

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
    import json as _json

    from repro.analysis.coverage import (
        MICRO_RECIPES,
        CoverageAnalysis,
        CoverageMap,
        format_coverage,
        run_micro,
    )
    from repro.experiments.runner import RunSpec, build_simulation

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
        from repro import __version__
        from repro.obs.manifest import git_revision

        payload = {
            "provenance": {
                "repro": __version__,
                "git_rev": git_revision() or "unknown",
                "tool": "coma-sim coverage",
            },
            "machine": args.machine,
            "scale": args.scale,
            **report,
        }
        text = _json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = format_coverage(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"coverage: {args.out} ({args.format})")
    else:
        print(text, end="")

    if args.min_pct is not None and report["total_pct"] < args.min_pct:
        print(f"coverage FAILED: {report['total_pct']:.2f}% of reachable "
              f"cells < required {args.min_pct:.2f}%", file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.experiments.runner import build_simulation
    from repro.obs import LineBiography

    bio = LineBiography()
    sim = build_simulation(_trace_spec(args))
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
    line = int(args.line, 0)
    print(bio.narrate(line))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    with _recording(args, "figure"):
        return _figure_body(args)


def _figure_body(args: argparse.Namespace) -> int:
    kwargs = {"scale": args.scale, "jobs": args.jobs}
    if args.workloads:
        kwargs["workloads"] = args.workloads
    if args.number == 2:
        from repro.experiments.figure2 import format_figure2, run_figure2

        print(format_figure2(run_figure2(**kwargs)))
    elif args.number == 3:
        from repro.experiments.figure3 import format_traffic, run_figure3

        print(
            format_traffic(
                run_figure3(**kwargs),
                "Figure 3: traffic for 1 and 4-processor nodes at "
                "6/50/75/81/87% MP",
            )
        )
    elif args.number == 4:
        from repro.experiments.figure4 import format_figure4, run_figure4

        print(format_figure4(run_figure4(**kwargs)))
    elif args.number == 5:
        from repro.experiments.figure5 import format_figure5, run_figure5

        print(format_figure5(run_figure5(**kwargs)))
    else:
        print(f"no figure {args.number} in the paper", file=sys.stderr)
        return 2
    _print_cache_summary()
    return 0


def _print_cache_summary() -> None:
    from repro.experiments.runner import format_cache_summary

    print(format_cache_summary(), file=sys.stderr)


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number != 1:
        print("the paper has one table (Table 1)", file=sys.stderr)
        return 2
    from repro.experiments.table1 import format_table1, run_table1

    with _recording(args, "table"):
        print(format_table1(run_table1(scale=args.scale, jobs=args.jobs)))
    _print_cache_summary()
    return 0


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
    from repro.analysis.certify import certify_machines, format_certification
    from repro.analysis.crosscheck import crosscheck
    from repro.analysis.liveness import check_liveness, format_liveness_report
    from repro.analysis.modelcheck import check_protocol, format_report

    report = check_protocol(n_nodes=args.nodes, n_lines=args.lines)
    print(format_report(report))  # findings (with traces) included when broken
    ok = report.ok
    lv = check_liveness(n_nodes=args.nodes, n_lines=args.lines)
    print(format_liveness_report(lv))
    ok = ok and lv.ok
    cert = certify_machines(n_nodes=args.nodes)
    print(format_certification(cert))
    ok = ok and cert.ok
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
    import json

    from repro.analysis.report import format_findings
    from repro.analysis.sanitize import sanitizer_for
    from repro.experiments.runner import build_simulation

    spec = _trace_spec(args)
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
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report: {args.report}")
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
    import json
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
        from repro import __version__
        from repro.obs.manifest import git_revision

        payload = {
            "provenance": {
                "repro": __version__,
                "git_rev": git_revision() or "unknown",
                "tool": "coma-sim lint",
            },
            "stats": report.stats,
            "findings": [
                {"rule": f.rule, "message": f.message, "path": f.path,
                 "line": f.line, "detail": f.detail}
                for f in report.findings
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"report: {args.out}")
        if args.format == "json":
            print(text, end="")
    if args.format != "json":
        if report.findings:
            print(format_findings(report.findings))
        n = report.stats.get("files", 0)
        print(f"{len(report.findings)} finding(s) in {n} file(s)")
    return 1 if report.findings else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.runner import RunSpec, build_simulation
    from repro.stats.profiler import SharingProfiler, format_profile

    spec = RunSpec(
        workload=args.workload,
        procs_per_node=args.procs_per_node,
        memory_pressure=args.memory_pressure,
        scale=args.scale,
    )
    prof = SharingProfiler()
    sim = build_simulation(spec)
    sim.attach(prof, every=args.every)
    sim.run()
    prof.sample(sim.machine)
    print(format_profile(prof.report()))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.experiments.runner import build_simulation, set_experiment_metrics
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.openmetrics import (
        snapshot_provenance,
        to_json,
        to_openmetrics,
        to_table,
    )

    spec = _trace_spec(args)
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
        prov = snapshot_provenance()
        prov["spec_key"] = spec.key()
        out = to_json(registry, provenance=prov)
    else:
        out = to_table(registry) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
        print(f"metrics: {args.out} ({args.format})")
    else:
        print(out, end="")
    return 0


#: Sentinel for a bare ``--compare`` (no path): gate against the archive.
_ROLLING = "@rolling"

#: Fallback baseline when the archive holds no bench rows yet.
_BASELINE_FILE = "benchmarks/BENCH_baseline.json"


def _bench_baseline(args: argparse.Namespace):
    """Resolve the ``--compare`` operand to a BENCH payload.

    A path loads that file.  Bare ``--compare`` gates against the rolling
    median of the last ``--baseline-runs`` archived bench rows, falling
    back to the committed ``benchmarks/BENCH_baseline.json`` while the
    archive is still empty.  Returns ``(payload_or_None, label)``.
    """
    from repro.bench import load_bench

    if args.compare != _ROLLING:
        return load_bench(args.compare), args.compare
    from repro.bench.compare import rolling_baseline
    from repro.obs.history import HistoryArchive

    archive = HistoryArchive(args.archive)
    old = rolling_baseline(archive, last=args.baseline_runs,
                           quick=args.quick)
    if old is not None:
        runs = old.get("rolling", {}).get("runs", "?")
        return old, f"rolling median of {runs} archived run(s)"
    from pathlib import Path

    if Path(_BASELINE_FILE).exists():
        return load_bench(_BASELINE_FILE), f"{_BASELINE_FILE} (fallback)"
    raise BenchBaselineError(
        f"no archived bench runs in {archive.path} and no "
        f"{_BASELINE_FILE} fallback; run 'coma-sim bench' once with "
        "recording enabled or pass an explicit --compare PATH"
    )


class BenchBaselineError(Exception):
    """Bare ``--compare`` had neither archive rows nor a baseline file."""


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        BenchFileError,
        compare_benches,
        format_comparison,
        has_regression,
        load_bench,
        run_bench,
        write_bench,
    )
    from repro.obs.history import history_disabled

    try:
        old = label = None
        if args.compare is not None:
            old, label = _bench_baseline(args)
        if args.new is not None:
            # Compare two existing files; no timing run.
            if old is None:
                print("--new requires --compare OLD", file=sys.stderr)
                return 2
            new = load_bench(args.new)
        else:
            run_label = "quick suites" if args.quick else "full suites"
            print(f"bench: {run_label}, {args.repeats} repeat(s), "
                  f"jobs={args.jobs}", file=sys.stderr)
            new = run_bench(
                quick=args.quick, jobs=args.jobs, repeats=args.repeats,
                only=args.suites or None,
                echo=lambda line: print(line, file=sys.stderr),
            )
            path = write_bench(new, out=args.out, out_dir=args.out_dir)
            print(f"wrote {path}")
            record = args.record if args.record is not None \
                else not history_disabled()
            if record:
                from repro.obs.history import HistoryArchive

                outcome = HistoryArchive(args.archive).record_bench(new)
                print(f"history: bench {outcome}", file=sys.stderr)
    except (BenchFileError, BenchBaselineError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if old is None:
        return 0
    print(f"baseline: {label}", file=sys.stderr)
    rows = compare_benches(old, new, threshold_pct=args.threshold)
    print(format_comparison(rows, args.threshold))
    return 1 if has_regression(rows) else 0


def _emit(out: str, args: argparse.Namespace, what: str) -> None:
    """Print ``out`` or write it to ``--out`` (with a pointer line)."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out if out.endswith("\n") else out + "\n")
        print(f"{what}: {args.out}")
    else:
        print(out)


def _cmd_history(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.history import (
        HistoryArchive,
        HistoryArchiveError,
        format_history,
        format_trend,
    )

    archive = HistoryArchive(args.archive)
    try:
        if args.action == "list":
            rows = archive.list_runs(
                workload=args.workload, key=args.key,
                batch=args.batch, limit=args.limit,
            )
            if args.format == "json":
                _emit(_json.dumps(rows, indent=2, sort_keys=True),
                      args, "history")
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
            _emit(_json.dumps(row, indent=2, sort_keys=True),
                  args, "history")
            return 0
        if args.action == "trend":
            report = archive.trend(
                last=args.last, threshold_pct=args.threshold,
                quick=args.quick or None,
            )
            if args.format == "json":
                _emit(_json.dumps(report, indent=2, sort_keys=True),
                      args, "trend")
            else:
                print(format_trend(report))
            flagged = any(r["status"] == "regression"
                          for r in report["suites"].values())
            return 1 if flagged else 0
        if args.action == "gc":
            stats = archive.gc(
                keep_revisions=args.keep_revisions,
                keep_benches=args.keep_benches,
                dry_run=args.dry_run,
            )
            tag = "would delete" if stats["dry_run"] else "deleted"
            print(f"history gc: {tag} {stats['runs_deleted']} run row(s), "
                  f"{stats['benches_deleted']} bench row(s)")
            return 0
    except HistoryArchiveError as exc:
        print(f"history: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse restricts choices


def _cmd_diff(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.diff import (
        diff_runs,
        diff_sweeps,
        format_diff,
        format_sweep_diff,
    )
    from repro.obs.history import HistoryArchive, HistoryArchiveError

    if not args.sweep and len(args.keys) != 2:
        print("diff: expected exactly two run keys (or --sweep A B)",
              file=sys.stderr)
        return 2
    archive = HistoryArchive(args.archive)
    try:
        if args.sweep:
            batch_a, batch_b = args.sweep
            rows_a = [archive.get_run(r["key"], rev=r["rev"])
                      for r in archive.list_runs(batch=batch_a, limit=1000)]
            rows_b = [archive.get_run(r["key"], rev=r["rev"])
                      for r in archive.list_runs(batch=batch_b, limit=1000)]
            if not rows_a or not rows_b:
                missing = batch_a if not rows_a else batch_b
                print(f"diff: no archived runs in batch {missing!r}",
                      file=sys.stderr)
                return 1
            report = diff_sweeps(rows_a, rows_b, noise_pct=args.noise)
            out = (_json.dumps(report, indent=2, sort_keys=True)
                   if args.format == "json" else format_sweep_diff(report))
            _emit(out, args, "diff")
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
        report = diff_runs(a, b, noise_pct=args.noise)
        out = (_json.dumps(report, indent=2, sort_keys=True)
               if args.format == "json" else format_diff(report))
        _emit(out, args, "diff")
        return 0
    except HistoryArchiveError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments import export as ex

    if args.artifact == "figure2":
        from repro.experiments.figure2 import run_figure2

        rows = run_figure2(scale=args.scale, jobs=args.jobs)
        out = ex.figure2_json(rows) if args.format == "json" else ex.figure2_csv(rows)
    elif args.artifact == "figure3":
        from repro.experiments.figure3 import run_figure3

        sweep = run_figure3(scale=args.scale, jobs=args.jobs)
        out = ex.traffic_json(sweep) if args.format == "json" else ex.traffic_csv(sweep)
    elif args.artifact == "figure4":
        from repro.experiments.figure4 import run_figure4

        sweep = run_figure4(scale=args.scale, jobs=args.jobs)
        out = ex.traffic_json(sweep) if args.format == "json" else ex.traffic_csv(sweep)
    elif args.artifact == "figure5":
        from repro.experiments.figure5 import run_figure5

        bars = run_figure5(scale=args.scale, jobs=args.jobs)
        out = ex.figure5_json(bars) if args.format == "json" else ex.figure5_csv(bars)
    elif args.artifact == "table1":
        from repro.experiments.table1 import run_table1

        if args.format == "json":
            print("table1 supports csv only", file=sys.stderr)
            return 2
        out = ex.table1_csv(run_table1(scale=args.scale, jobs=args.jobs))
    else:  # pragma: no cover - argparse restricts choices
        return 2
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
    import json
    from datetime import datetime, timezone

    from repro.obs.manifest import git_revision, provenance_header

    ts = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if fmt == "json":
        from repro import __version__
        from repro.experiments.runner import CACHE_VERSION

        obj = json.loads(out)
        prov = {
            "repro": __version__,
            "cache_version": CACHE_VERSION,
            "git_rev": git_revision() or "unknown",
            "timestamp": ts,
        }
        if isinstance(obj, list):
            obj = {"_provenance": prov, "data": obj}
        else:
            obj["_provenance"] = prov
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return provenance_header(timestamp=ts) + out


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
    import json

    from repro.serve.loadtest import format_report, run_loadtest

    report = asyncio.run(run_loadtest(
        args.host, args.port,
        requests=args.requests,
        concurrency=args.concurrency,
        seed0=args.seed0,
    ))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"loadtest: {args.out}")
    print(format_report(report))
    if not report["ok"]:
        print("loadtest: coalesced mix ran more than one simulation",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coma-sim",
        description="Cluster-based COMA multiprocessor simulator "
        "(Landin & Karlgren, IPPS 1997 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("workload", choices=workload_names())
    run.add_argument("--machine", choices=["coma", "numa"], default="coma")
    run.add_argument("--procs-per-node", type=int, default=1, choices=[1, 2, 4, 8, 16])
    run.add_argument("--memory-pressure", type=float, default=0.5)
    run.add_argument("--am-assoc", type=int, default=4)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=1997)
    run.add_argument("--dram-bandwidth", type=float, default=1.0)
    run.add_argument("--bus-bandwidth", type=float, default=1.0)
    run.add_argument("--non-inclusive", action="store_true")
    run.add_argument("--no-cache", action="store_true")
    run.set_defaults(func=_cmd_run)

    def _jobs_flag(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--jobs", "-j", type=int, default=1, metavar="N",
            help="worker processes for the sweep (1 = serial, the "
            "default; -1 = one per CPU)",
        )

    def _record_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--record", nargs="?", const="", default=None, metavar="BATCH",
            help="archive completed runs in the history store, optionally "
            "tagged with a batch name (see 'coma-sim history')",
        )
        sp.add_argument(
            "--archive", metavar="PATH",
            help="history archive file (default "
            "$REPRO_HISTORY_DIR/history.sqlite, .repro_history/)",
        )

    _record_flags(run)

    fig = sub.add_parser("figure", help="reproduce a paper figure")
    fig.add_argument("number", type=int)
    fig.add_argument("--scale", type=float, default=1.0)
    fig.add_argument("--workloads", nargs="*", metavar="APP",
                     choices=workload_names(),
                     help="restrict the sweep to these applications")
    _jobs_flag(fig)
    _record_flags(fig)
    fig.set_defaults(func=_cmd_figure)

    tab = sub.add_parser("table", help="reproduce a paper table")
    tab.add_argument("number", type=int)
    tab.add_argument("--scale", type=float, default=1.0)
    _jobs_flag(tab)
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
    ln.add_argument("--format", choices=["text", "json"], default="text",
                    help="output format (json mirrors the sanitize "
                    "report shape)")
    ln.add_argument("--out", metavar="PATH",
                    help="also write the JSON report to a file (CI "
                    "artifact)")
    ln.add_argument("--explain", metavar="RULE",
                    help="print the documentation for one rule ID (from "
                    "the consolidated registry) and exit")
    ln.set_defaults(func=_cmd_lint)

    pf = sub.add_parser("profile", help="sharing/replication profile of a run")
    pf.add_argument("workload", choices=workload_names())
    pf.add_argument("--procs-per-node", type=int, default=1)
    pf.add_argument("--memory-pressure", type=float, default=0.5)
    pf.add_argument("--scale", type=float, default=1.0)
    pf.add_argument("--every", type=int, default=5000)
    pf.set_defaults(func=_cmd_profile)

    exp = sub.add_parser("export", help="export figure data as CSV/JSON")
    exp.add_argument(
        "artifact",
        choices=["figure2", "figure3", "figure4", "figure5", "table1"],
    )
    exp.add_argument("--format", choices=["csv", "json"], default="csv")
    exp.add_argument("--scale", type=float, default=1.0)
    _jobs_flag(exp)
    exp.add_argument("--provenance", action="store_true",
                     help="stamp the export with code version / git revision")
    exp.set_defaults(func=_cmd_export)

    def _traced(sp: argparse.ArgumentParser,
                machines: tuple = ("coma", "hcoma")) -> None:
        sp.add_argument("workload", choices=workload_names())
        sp.add_argument("--machine", choices=list(machines), default="coma")
        sp.add_argument("--procs-per-node", type=int, default=1,
                        choices=[1, 2, 4, 8, 16])
        sp.add_argument("--memory-pressure", "--mp", type=float, default=0.5)
        sp.add_argument("--scale", type=float, default=1.0)
        sp.add_argument("--seed", type=int, default=1997)

    tr = sub.add_parser(
        "trace", help="run one simulation with event tracing enabled"
    )
    _traced(tr)
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
    _traced(at)
    at.add_argument("--format", choices=["table", "json"], default="table")
    at.add_argument("--top-spans", type=int, default=10, metavar="N",
                    help="keep full span trees for the N slowest accesses")
    at.add_argument("--out", metavar="PATH",
                    help="write the report to a file instead of stdout")
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
    _traced(bo, machines=("coma", "hcoma", "numa"))
    bo.add_argument("--check", action="store_true",
                    help="run the workload and certify every span against "
                    "its static envelope (non-zero exit on violation)")
    bo.add_argument("--format", choices=["table", "json"], default="table")
    bo.add_argument("--out", metavar="PATH",
                    help="write the report to a file instead of stdout")
    bo.add_argument("--max-witnesses", type=int, default=25, metavar="N",
                    help="keep at most N violation witnesses")
    bo.set_defaults(func=_cmd_bounds)

    cv = sub.add_parser(
        "coverage",
        help="protocol-table coverage: reachable cells vs cells the "
        "workloads exercise (dead cells, gaps, per-workload %)",
    )
    cv.add_argument("--workloads", nargs="*", metavar="WL",
                    default=["synth_migratory", "synth_producer_consumer",
                             "fft"],
                    help="workloads to trace (default: two synthetics + fft)")
    cv.add_argument("--machine", choices=["coma", "hcoma"], default="coma")
    cv.add_argument("--memory-pressure", "--mp", type=float, nargs="*",
                    default=[0.0625, 0.875], metavar="MP",
                    help="memory pressures to trace each workload at "
                    "(default: the paper's 6.25%% and 87.5%%)")
    cv.add_argument("--scale", type=float, default=0.1)
    cv.add_argument("--nodes", type=int, default=3, choices=[2, 3, 4],
                    help="model-checker configuration for the reachable set")
    cv.add_argument("--micro", action="store_true",
                    help="also run the directed micro-workloads that drive "
                    "otherwise-uncovered cells")
    cv.add_argument("--min-pct", type=float, metavar="PCT",
                    help="exit non-zero when total coverage of reachable "
                    "cells falls below PCT (CI gate)")
    cv.add_argument("--format", choices=["table", "json"], default="table")
    cv.add_argument("--out", metavar="PATH",
                    help="write the report to a file instead of stdout")
    cv.set_defaults(func=_cmd_coverage)

    sz = sub.add_parser(
        "sanitize",
        help="run one simulation under the coherence sanitizer "
        "(races, stale values, relocation ping-pong)",
    )
    _traced(sz)
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
    _traced(mt)
    mt.add_argument("--format", choices=["openmetrics", "json", "table"],
                    default="table")
    mt.add_argument("--out", metavar="PATH",
                    help="write the export to a file instead of stdout")
    mt.set_defaults(func=_cmd_metrics)

    from repro.bench.suites import suite_names as _suite_names

    bn = sub.add_parser(
        "bench",
        help="time the simulator's hot paths and gate wall-time regressions",
    )
    bn.add_argument("--quick", action="store_true",
                    help="smaller work units (CI smoke)")
    bn.add_argument("--repeats", type=int, default=3, metavar="N",
                    help="repeats per suite; the minimum wall time is kept")
    bn.add_argument("--suites", nargs="*", metavar="NAME",
                    choices=_suite_names(),
                    help="restrict to these suites")
    bn.add_argument("--out", metavar="PATH",
                    help="explicit output path (overrides --out-dir)")
    bn.add_argument("--out-dir", metavar="DIR",
                    help="directory for BENCH_<timestamp>.json outputs "
                    "(default benchmarks/)")
    bn.add_argument("--compare", metavar="BENCH_OLD.json",
                    nargs="?", const=_ROLLING,
                    help="compare against this baseline and exit 1 on "
                    "regression; with no path, gate against the rolling "
                    "median of recently archived runs (falling back to "
                    f"{_BASELINE_FILE})")
    bn.add_argument("--new", metavar="BENCH_NEW.json",
                    help="with --compare: diff two existing files "
                    "without running")
    bn.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                    help="wall-time slowdown that counts as a regression "
                    "(default 10%%)")
    bn.add_argument("--baseline-runs", type=int, default=5, metavar="N",
                    help="archived runs in the bare --compare rolling "
                    "median (default 5)")
    bn.add_argument("--record", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="archive the bench payload in the history store "
                    "(default: record unless REPRO_NO_HISTORY is set)")
    bn.add_argument("--archive", metavar="PATH",
                    help="history archive file (default "
                    "$REPRO_HISTORY_DIR/history.sqlite)")
    _jobs_flag(bn)
    bn.set_defaults(func=_cmd_bench)

    hi = sub.add_parser(
        "history",
        help="query the persistent run/bench archive "
        "(list, show, trend, gc)",
    )
    hi.add_argument("action", choices=["list", "show", "trend", "gc"])
    hi.add_argument("key", nargs="?",
                    help="run key (or unique prefix) for 'show'; "
                    "key prefix filter for 'list'")
    hi.add_argument("--archive", metavar="PATH",
                    help="history archive file (default "
                    "$REPRO_HISTORY_DIR/history.sqlite)")
    hi.add_argument("--workload", metavar="WL",
                    help="list: only runs of this workload")
    hi.add_argument("--batch", metavar="NAME",
                    help="list: only runs recorded under this batch tag")
    hi.add_argument("--limit", type=int, default=50, metavar="N",
                    help="list: at most N rows (default 50)")
    hi.add_argument("--rev", type=int, metavar="R",
                    help="show: this revision instead of the newest")
    hi.add_argument("--last", type=int, default=10, metavar="N",
                    help="trend: window of archived bench runs "
                    "(default 10)")
    hi.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                    help="trend: regression threshold vs the rolling "
                    "median (default 10%%)")
    hi.add_argument("--quick", action="store_true",
                    help="trend: only quick-mode bench rows")
    hi.add_argument("--keep-revisions", type=int, default=1, metavar="N",
                    help="gc: newest revisions kept per key (default 1)")
    hi.add_argument("--keep-benches", type=int, metavar="N",
                    help="gc: newest bench rows kept (default: keep all)")
    hi.add_argument("--dry-run", action="store_true",
                    help="gc: report what would be deleted, delete "
                    "nothing")
    hi.add_argument("--format", choices=["table", "json"], default="table")
    hi.add_argument("--out", metavar="PATH",
                    help="write JSON output to a file instead of stdout")
    hi.set_defaults(func=_cmd_history)

    dd = sub.add_parser(
        "diff",
        help="differential attribution between two archived runs: "
        "counter ratios, phase deltas naming the responsible phase, "
        "histogram shifts",
    )
    dd.add_argument("keys", nargs="*", metavar="KEY",
                    help="two run keys (or unique prefixes) to diff")
    dd.add_argument("--sweep", nargs=2, metavar=("BATCH_A", "BATCH_B"),
                    help="diff two recorded batches point-by-point "
                    "instead of two keys")
    dd.add_argument("--noise", type=float, default=1.0, metavar="PCT",
                    help="counter changes at or below this are flagged "
                    "as noise (default 1%%)")
    dd.add_argument("--archive", metavar="PATH",
                    help="history archive file (default "
                    "$REPRO_HISTORY_DIR/history.sqlite)")
    dd.add_argument("--format", choices=["table", "json"], default="table")
    dd.add_argument("--out", metavar="PATH",
                    help="write the report to a file instead of stdout")
    dd.set_defaults(func=_cmd_diff)

    ex = sub.add_parser(
        "explain", help="narrate one cache line's protocol history"
    )
    _traced(ex)
    ex.add_argument("--line", metavar="LINE",
                    help="line number to narrate (0x-prefixed hex or decimal);"
                    " omitted: list the busiest lines")
    ex.add_argument("--top", type=int, default=10,
                    help="how many busy lines to list without --line")
    ex.add_argument("--slowest", type=int, default=0, metavar="N",
                    help="narrate the N slowest accesses as full span trees")
    ex.set_defaults(func=_cmd_explain)

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
                    "store (served at GET /history and GET /diff)")
    sv.add_argument("--archive", metavar="PATH",
                    help="history archive file (default "
                    "$REPRO_HISTORY_DIR/history.sqlite)")
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
