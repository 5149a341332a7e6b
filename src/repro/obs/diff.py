"""Differential attribution between archived runs (``coma-sim diff``).

Given two rows from the :class:`~repro.obs.history.HistoryArchive`, the
differ answers the question single-run observability cannot: *what
changed between these two runs, and which protocol phase is
responsible?*  It computes structured deltas —

* **counters** as ratios with a noise threshold (sub-threshold changes
  are reported but flagged insignificant);
* **phase attribution**: per-phase simulated-nanosecond deltas from the
  archived span/phase totals, with each phase's share of the total
  phase-time swing — the top line names the phase (``bus_arb``,
  ``remote_am``, ``fill_dram``, …) that contributes most of a latency
  regression, the MemPool-style decomposition the archive exists for;
* **latency histograms**: per-(op, level) mean shifts from the PR 7
  log2-bucket snapshots;
* **witnesses**: retained span trees from the slower side, so the top
  attribution line is backed by concrete exemplar accesses.

``diff_sweeps`` pairs whole recorded batches point-by-point (by the
spec identity that survives a timing-constant perturbation) and rolls
the per-pair diffs up into one report.

``diff_payloads`` applies the same breakdown to host time.  It reads two
end-to-end benchmark payloads (the JSON that ``benchmarks/e2e/run.py
--out`` writes; only that schema is read, nothing is imported from the
benchmark) and names, per workload, the host-time layer and the observer
whose ns/event moved most.  It also gates: a workload missing from B, an
incorrect B, or a :data:`SLOWDOWN_GATE`-fold slowdown fails.

Deterministic-core module: pure arithmetic over archived rows and
payloads, no wall clock, no randomness.
"""

from __future__ import annotations

from typing import Optional

#: Relative change below which a counter delta is reported as noise.
DEFAULT_NOISE_PCT = 1.0

#: Spec fields that identify "the same experimental point" across two
#: batches even when a timing constant was deliberately perturbed.
_PAIR_FIELDS = (
    "workload", "machine", "memory_pressure", "procs_per_node",
    "n_processors", "scale", "seed", "am_assoc", "page_size",
)


def _change_pct(a: float, b: float) -> float:
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a * 100.0


def _counter_rows(a: dict, b: dict, noise_pct: float) -> list[dict]:
    rows = []
    for name in sorted(set(a) | set(b)):
        av, bv = a.get(name, 0), b.get(name, 0)
        if av == 0 and bv == 0:
            continue
        change = _change_pct(av, bv)
        rows.append({
            "counter": name,
            "a": av,
            "b": bv,
            "ratio": (bv / av) if av else None,
            "change_pct": change,
            "significant": abs(change) > noise_pct,
        })
    rows.sort(key=lambda r: (-abs(r["change_pct"]), r["counter"]))
    return rows


def _swing_rows(a: Optional[dict], b: Optional[dict],
                label: str) -> list[dict]:
    """Per-name nanosecond deltas, largest first, each with its share of
    the total absolute swing.  ``label`` names the row key: protocol
    phases of an archived run, or host-time layers and observers (ns per
    event) of a benchmark payload."""
    a, b = a or {}, b or {}
    rows = []
    deltas = {
        name: b.get(name, 0) - a.get(name, 0)
        for name in set(a) | set(b)
    }
    swing = sum(abs(d) for d in deltas.values())
    for name in sorted(deltas, key=lambda n: (-abs(deltas[n]), n)):
        d = deltas[name]
        rows.append({
            label: name,
            "a_ns": a.get(name, 0),
            "b_ns": b.get(name, 0),
            "delta_ns": d,
            "share_pct": abs(d) / swing * 100.0 if swing else 0.0,
        })
    return rows


def _histogram_rows(a: Optional[dict], b: Optional[dict]) -> list[dict]:
    """Per-(op, level) mean-latency shifts from two
    ``span_access_latency_ns`` registry snapshots."""
    fam = "span_access_latency_ns"
    a_samples = (a or {}).get(fam, {}).get("series", {})
    b_samples = (b or {}).get(fam, {}).get("series", {})
    rows = []
    for label in sorted(set(a_samples) | set(b_samples)):
        sa, sb = a_samples.get(label), b_samples.get(label)

        def mean(s):
            return s["sum"] / s["count"] if s and s.get("count") else 0.0

        ma, mb = mean(sa), mean(sb)
        if ma == 0 and mb == 0:
            continue
        rows.append({
            "class": label,
            "a_mean_ns": ma,
            "b_mean_ns": mb,
            "a_count": sa["count"] if sa else 0,
            "b_count": sb["count"] if sb else 0,
            "change_pct": _change_pct(ma, mb),
        })
    rows.sort(key=lambda r: (-abs(r["change_pct"]), r["class"]))
    return rows


def _side(row: dict) -> dict:
    return {
        "key": row["key"],
        "rev": row.get("rev", 0),
        "workload": row.get("workload"),
        "machine": row.get("machine"),
        "memory_pressure": row.get("memory_pressure"),
        "elapsed_ns": row["result"]["elapsed_ns"],
        "git_rev": row.get("git_rev"),
        "recorded_at": row.get("recorded_at"),
    }


def diff_runs(a: dict, b: dict,
              noise_pct: float = DEFAULT_NOISE_PCT) -> dict:
    """Structured delta between two archive rows (A = before, B = after).

    ``top_attribution`` names the phase with the largest delta in the
    direction of the elapsed-time change (the phase *responsible* for a
    regression), with its share of the total phase-time swing.
    """
    ra, rb = a["result"], b["result"]
    ea, eb = ra["elapsed_ns"], rb["elapsed_ns"]
    phases = _swing_rows(a.get("phases"), b.get("phases"), "phase")
    regressed = eb >= ea
    candidates = [
        p for p in phases
        if (p["delta_ns"] > 0) == regressed and p["delta_ns"] != 0
    ]
    top = candidates[0] if candidates else (phases[0] if phases else None)
    witnesses = (b if regressed else a).get("top_spans") or []
    out = {
        "a": _side(a),
        "b": _side(b),
        "elapsed": {
            "a_ns": ea,
            "b_ns": eb,
            "delta_ns": eb - ea,
            "change_pct": _change_pct(ea, eb),
        },
        "noise_pct": noise_pct,
        "counters": _counter_rows(
            ra.get("counters", {}), rb.get("counters", {}), noise_pct),
        "phases": phases,
        "top_attribution": top,
        "histograms": _histogram_rows(
            a.get("histograms"), b.get("histograms")),
        "witnesses": witnesses[:3],
        "witness_side": "b" if regressed else "a",
    }
    return out


def pair_key(spec: dict) -> tuple:
    """The identity under which two batches' points are paired."""
    return tuple(spec.get(f) for f in _PAIR_FIELDS)


def diff_sweeps(rows_a: list[dict], rows_b: list[dict],
                noise_pct: float = DEFAULT_NOISE_PCT) -> dict:
    """Pair two recorded batches point-by-point and diff each pair.

    Points pair on the spec identity that survives a timing-constant
    perturbation (workload, machine, pressure, clustering, scale, seed);
    unpaired points on either side are reported, never dropped silently.
    """
    index_b = {}
    for row in rows_b:
        index_b.setdefault(pair_key(row["spec"]), []).append(row)
    pairs, only_a = [], []
    for row in rows_a:
        bucket = index_b.get(pair_key(row["spec"]))
        if bucket:
            pairs.append((row, bucket.pop(0)))
        else:
            only_a.append(row["key"])
    only_b = [r["key"] for bucket in index_b.values() for r in bucket]
    diffs = [diff_runs(a, b, noise_pct) for a, b in pairs]
    slowest = max(
        diffs, key=lambda d: d["elapsed"]["delta_ns"], default=None)
    return {
        "pairs": len(diffs),
        "unpaired_a": only_a,
        "unpaired_b": only_b,
        "diffs": diffs,
        "worst_regression": slowest,
    }


# ----------------------------------------------------------------------
# end-to-end benchmark payloads
# ----------------------------------------------------------------------

#: A workload fails the payload gate when B's median wall time is at
#: least this many times A's, or B's median events/s at most 1/this.
SLOWDOWN_GATE = 3.0


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_payload(obj) -> dict:
    """Return ``obj`` if it is a well-formed benchmark ``run.py --out``
    payload; raise ValueError naming the first defect otherwise."""
    if not isinstance(obj, dict) or "workloads" not in obj:
        raise ValueError("not a benchmark payload (no top-level "
                         "'workloads' key)")
    if not isinstance(obj["workloads"], dict):
        raise ValueError("'workloads' is not an object")
    for name, rec in obj["workloads"].items():
        if not isinstance(rec, dict) or not isinstance(
                rec.get("metrics"), dict):
            raise ValueError(f"workload {name!r} has no 'metrics' object")
        for metric, m in rec["metrics"].items():
            if not isinstance(m, dict) or not _is_number(m.get("value")):
                raise ValueError(f"workload {name!r}: metric {metric!r} "
                                 "has no numeric 'value'")
        layers = rec.get("layers", {})
        if not isinstance(layers, dict) or not all(
                _is_number(v) for v in layers.values()):
            raise ValueError(f"workload {name!r}: 'layers' is not an "
                             "object of numbers")
    return obj


def _layer_ns(layers: dict) -> dict:
    """Host-time layer self time per simulated event, in ns."""
    events = layers.get("sim.events")
    if not events:
        return {}
    return {k[:-len(".self_s")]: v * 1e9 / events
            for k, v in layers.items() if k.endswith(".self_s")}


def _observer_ns(layers: dict) -> dict:
    """Observer prices, in ns per event."""
    return {k[len("obs."):-len(".ns_per_event")]: v
            for k, v in layers.items()
            if k.startswith("obs.") and k.endswith(".ns_per_event")}


def _ranked(a: dict, b: dict, label: str) -> list[dict]:
    """Swing rows over ns/event, or none unless both sides traced."""
    return _swing_rows(a, b, label) if a and b else []


def _top(rows: list[dict]) -> Optional[dict]:
    return rows[0] if rows and rows[0]["delta_ns"] else None


def _payload_side(payload: dict) -> dict:
    return {k: payload.get(k) for k in (
        "seed", "scale", "seconds", "trace", "correct", "attempted",
        "failed")}


def diff_payloads(a: dict, b: dict) -> dict:
    """Compare two benchmark payloads (A = base, B = change).

    For each workload of A: the B/A ratio of every end-to-end median,
    then the host-time layers (``<layer>.self_s`` per ``sim.events``)
    and observers (``obs.<name>.ns_per_event``) ranked by how far their
    ns/event moved, each with its share of the swing.  ``failures``
    lists what gates B: a workload of A missing from B, B not
    ``correct``, or a workload :data:`SLOWDOWN_GATE` times slower.
    """
    failures = []
    if b.get("correct") is False:
        bad = [n for n, r in b["workloads"].items()
               if r.get("correct") is False]
        failures.append("B is not correct: "
                        + (", ".join(bad) or "incomplete metrics"))
    rows = []
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            failures.append(f"{name}: missing from B")
            continue
        ends = {}
        for metric, ma in ra["metrics"].items():
            if metric in rb["metrics"]:
                av, bv = ma["value"], rb["metrics"][metric]["value"]
                ends[metric] = {"a": av, "b": bv,
                                "ratio": bv / av if av else None}
        eps, wall = ends.get("events_per_s"), ends.get("wall_s")
        if eps and eps["b"] <= eps["a"] / SLOWDOWN_GATE:
            failures.append(f"{name}: events_per_s at most "
                            f"1/{SLOWDOWN_GATE:g} of A's")
        if wall and wall["b"] >= wall["a"] * SLOWDOWN_GATE:
            failures.append(f"{name}: wall_s at least "
                            f"{SLOWDOWN_GATE:g}x A's")
        la, lb = ra.get("layers", {}), rb.get("layers", {})
        layers = _ranked(_layer_ns(la), _layer_ns(lb), "layer")
        observers = _ranked(_observer_ns(la), _observer_ns(lb), "observer")
        rows.append({
            "workload": name,
            "end_to_end": ends,
            "layers": layers,
            "observers": observers,
            "top_layer": _top(layers),
            "top_observer": _top(observers),
        })
    return {
        "a": _payload_side(a),
        "b": _payload_side(b),
        "slowdown_gate": SLOWDOWN_GATE,
        "workloads": rows,
        "failures": failures,
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def format_diff(diff: dict, max_counters: int = 12) -> str:
    """Human rendering of :func:`diff_runs` — the top attribution line
    leads, witnesses close."""
    a, b, e = diff["a"], diff["b"], diff["elapsed"]
    out = [
        f"diff {a['key']} (A) -> {b['key']} (B)  "
        f"[{a['workload']} on {a['machine']}]",
        f"  elapsed: {e['a_ns']} -> {e['b_ns']} ns "
        f"({e['change_pct']:+.2f}%)",
    ]
    top = diff.get("top_attribution")
    if top is not None:
        out.append(
            f"  top attribution: {top['phase']} {top['delta_ns']:+d} ns "
            f"({top['share_pct']:.1f}% of the phase-time swing)"
        )
    else:
        out.append("  top attribution: (no phase data archived; "
                   "record with attribution enabled)")
    phases = [p for p in diff["phases"] if p["delta_ns"] != 0]
    if phases:
        out.append("  phases (delta ns, share of swing):")
        for p in phases[:10]:
            out.append(
                f"    {p['phase']:<12} {p['a_ns']:>12} -> {p['b_ns']:>12}  "
                f"{p['delta_ns']:>+12} ns  {p['share_pct']:5.1f}%"
            )
    sig = [c for c in diff["counters"] if c["significant"]]
    if sig:
        out.append(
            f"  counters (>{diff['noise_pct']:g}% change, "
            f"{len(sig)} significant of {len(diff['counters'])}):")
        for c in sig[:max_counters]:
            out.append(
                f"    {c['counter']:<28} {c['a']:>12} -> {c['b']:>12}  "
                f"{c['change_pct']:>+8.1f}%"
            )
    hists = diff.get("histograms", [])
    if hists:
        out.append("  latency histogram means by (op, level):")
        for h in hists[:8]:
            cls = ",".join(h["class"]) if isinstance(
                h["class"], (list, tuple)) else h["class"]
            out.append(
                f"    {cls:<16} {h['a_mean_ns']:>10.1f} -> "
                f"{h['b_mean_ns']:>10.1f} ns  {h['change_pct']:>+8.1f}%  "
                f"(n={h['a_count']}->{h['b_count']})"
            )
    if diff.get("witnesses"):
        side = diff.get("witness_side", "b")
        out.append(f"  witnesses (slowest spans of the {side.upper()} side):")
        for tree in diff["witnesses"]:
            root = tree[0] if tree else {}
            out.append(
                f"    trace {root.get('trace')}: P{root.get('proc')} "
                f"{root.get('op')} -> {root.get('level')}  "
                f"+{root.get('dur')} ns"
            )
            for child in tree[1:6]:
                out.append(
                    f"      {child.get('name', ''):<12} "
                    f"+{child.get('dur')} ns"
                )
    return "\n".join(out)


def format_sweep_diff(report: dict) -> str:
    """Human rendering of :func:`diff_sweeps`."""
    out = [f"sweep diff: {report['pairs']} paired point(s)"]
    if report["unpaired_a"]:
        out.append(f"  only in A: {', '.join(report['unpaired_a'])}")
    if report["unpaired_b"]:
        out.append(f"  only in B: {', '.join(report['unpaired_b'])}")
    for d in report["diffs"]:
        e = d["elapsed"]
        top = d.get("top_attribution")
        top_txt = (f"{top['phase']} {top['delta_ns']:+d} ns"
                   if top else "(no phase data)")
        out.append(
            f"  {d['a']['key']} -> {d['b']['key']}  "
            f"{d['a']['workload']:<14} elapsed {e['change_pct']:+7.2f}%  "
            f"top: {top_txt}"
        )
    worst = report.get("worst_regression")
    if worst is not None:
        out.append("worst regression in detail:")
        out.append(format_diff(worst))
    return "\n".join(out)


def format_payload_diff(report: dict) -> str:
    """Human rendering of :func:`diff_payloads`: B/A median ratios per
    workload, then the top layer and observer by ns/event moved."""
    out = ["bench diff A -> B (B/A ratio of each end-to-end median)"]
    for w in report["workloads"]:
        ratios = "  ".join(
            f"{m} " + (f"x{e['ratio']:.3f}" if e["ratio"] is not None
                       else "n/a")
            for m, e in w["end_to_end"].items())
        out.append(f"  {w['workload']:<15} {ratios}")
        for kind in ("layer", "observer"):
            top = w[f"top_{kind}"]
            if top is None:
                why = "none moved" if w[f"{kind}s"] else "untraced"
                out.append(f"  {'':<15} top {kind}: ({why})")
            else:
                out.append(
                    f"  {'':<15} top {kind}: {top[kind]} "
                    f"{top['a_ns']:.1f} -> {top['b_ns']:.1f} ns/event "
                    f"({top['delta_ns']:+.1f}, {top['share_pct']:.1f}% "
                    f"of the {kind} swing)")
    fails = report["failures"]
    out.append("  => " + ("FAIL: " + "; ".join(fails) if fails else "PASS"))
    return "\n".join(out)
