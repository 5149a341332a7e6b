"""Apply the acceptance rule to runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT.json... CHANGE.json...

Each file is one ``run.py --out`` record.  The first half of the files
are runs of the parent, the second half runs of the change, paired in
order: run the pairs alternating which side goes first.  With one file
per side, each side's repeats within its run stand in for runs.

One row per workload x end-to-end metric of ``BENCHMARK.json``, plus
``failed_frac``:

``gain``        at least 10 pairs, the change wins at least 9 in 10 of
                them (ties count for neither side), and the medians differ
                by more than the parent's interquartile range
``unresolved``  either side's interquartile range, as a share of its
                median, is wider than the metric's bound, and not every
                change run beats every parent run
``regression``  the change's median is worse than the parent's by more
                than the bound; for ``failed_frac``, any rise
``ok``          none of these

The exit code is 1 when any row is a regression or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def side(runs: list[dict], workload: str, metric: str) -> list[float] | None:
    """One value per run, or the samples of a lone run."""
    recs = [r["workloads"].get(workload, {}).get("metrics", {}).get(metric) for r in runs]
    if any(rec is None for rec in recs):
        return None
    if len(recs) == 1:
        return list(recs[0]["samples"])
    return [rec["value"] for rec in recs]


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            pairs: list[tuple[float, float]]) -> dict:
    sign = 1 if better == "higher" else -1
    p1, mp, p3 = quartiles(parent)
    c1, mc, c3 = quartiles(change)
    spread = max((p3 - p1) / mp, (c3 - c1) / mc)
    worse = sign * (mp - mc) / mp
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (mc - mp) > p3 - p1):
        v = "gain"
    elif spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    else:
        v = "ok"
    return {"parent": (p1, mp, p3, len(parent)), "change": (c1, mc, c3, len(change)),
            "worse": worse, "spread": spread, "wins": wins, "pairs": len(pairs),
            "verdict": v}


def compare(parent: list[dict], change: list[dict], bench: dict) -> list[dict]:
    """Rows of the acceptance table, one per workload x metric."""
    rows = []
    workloads = [w["name"] for w in bench["workloads"]
                 if all(w["name"] in r["workloads"] for r in parent + change)]
    for name in workloads:
        for m in bench["end_to_end"]:
            p, c = side(parent, name, m["name"]), side(change, name, m["name"])
            if p is None or c is None:
                rows.append({"workload": name, "metric": m["name"], "verdict": "missing"})
                continue
            pairs = list(zip(p, c)) if len(parent) > 1 else []
            rows.append({"workload": name, "metric": m["name"], "unit": m["unit"],
                         "bound": m["bound"],
                         **verdict(p, c, m["better"], m["bound"], pairs)})
        fp, fc = (sum(r["workloads"][name]["failed"] for r in runs)
                  / max(1, sum(r["workloads"][name]["attempted"] for r in runs))
                  for runs in (parent, change))
        rows.append({"workload": name, "metric": "failed_frac", "unit": "ratio",
                     "parent_frac": fp, "change_frac": fc,
                     "verdict": "regression" if fc > fp else "ok"})
    return rows


def format_row(r: dict) -> str:
    head = f"{r['workload']:<15} {r['metric']:<13}"
    if "parent_frac" in r:
        return (f"{head} parent {r['parent_frac']:.4g}  change {r['change_frac']:.4g}"
                f"{'':<58}{r['verdict']}")
    if "parent" not in r:
        return f"{head} {'':<90}{r['verdict']}"
    p1, mp, p3, pn = r["parent"]
    c1, mc, c3, cn = r["change"]
    return (f"{head} parent {mp:<9.6g} [{p1:.6g}, {p3:.6g}] n={pn:<3}"
            f" change {mc:<9.6g} [{c1:.6g}, {c3:.6g}] n={cn:<3}"
            f" worse {100 * r['worse']:+6.2f}% bound {100 * r['bound']:.0f}%"
            f" spread {100 * r['spread']:5.2f}% wins {r['wins']}/{r['pairs']}"
            f"  {r['verdict']}")


def main(argv: list[str] | None = None) -> int:
    files = sys.argv[1:] if argv is None else argv
    if not files or len(files) % 2:
        print(__doc__, file=sys.stderr)
        print("compare.py: give as many CHANGE files as PARENT files", file=sys.stderr)
        return 2
    runs = [json.loads(Path(f).read_text()) for f in files]
    half = len(runs) // 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(runs[:half], runs[half:], bench)
    for r in rows:
        print(format_row(r))
    bad = [r for r in rows if r["verdict"] in ("regression", "unresolved", "missing")]
    print(f"# {len(rows)} rows, {half} pair(s): "
          + (f"{len(bad)} regression/unresolved/missing" if bad else "no regression, nothing unresolved"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
