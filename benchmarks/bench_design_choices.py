"""Design-choice ablations: the paper's replacement rules vs naive
variants, and the empirical replication-degree profile behind the
section-4.2 threshold analysis."""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.analytic.replication import max_replication_degree
from repro.experiments.ablations import run_replacement_policy_ablation
from repro.experiments.runner import RunSpec, build_simulation
from repro.obs import SharingProfiler, format_profile

POLICY_APPS = ["barnes", "cholesky", "radix"]


def test_replacement_policy_ablation(benchmark, bench_scale, results_dir):
    """"When choosing what local line to replace, entries in state Shared
    are prioritized..." — the S-first victim rule must produce fewer owner
    relocations than state-blind LRU at high memory pressure."""
    rows = benchmark.pedantic(
        run_replacement_policy_ablation,
        kwargs={"workloads": POLICY_APPS, "scale": bench_scale},
        rounds=1,
        iterations=1,
    )
    lines = ["Replacement-policy ablation at 81.25% MP, 4p nodes"]
    for r in rows:
        lines.append(
            f"  {r.app:10s} {r.policy:26s} traffic {r.traffic_bytes / 1024:8.1f}K"
            f"  relocations {r.replacements:6d}  time {r.elapsed_ns / 1e6:8.3f}ms"
        )
    text = "\n".join(lines)
    write_result(results_dir, "ablation_replacement_policy.txt", text)
    print()
    print(text)

    by = {(r.app, r.policy): r for r in rows}
    for app in POLICY_APPS:
        paper = by[(app, "paper (S-first, accept)")]
        lru = by[(app, "LRU victim")]
        assert paper.replacements <= lru.replacements, (
            f"{app}: S-first victims must avoid owner relocations"
        )
        assert paper.traffic_bytes <= lru.traffic_bytes * 1.05, (
            f"{app}: the paper's policy should not lose on traffic"
        )


def _profile(mp: float, scale: float):
    prof = SharingProfiler()
    sim = build_simulation(
        RunSpec(workload="synth_hotspot", memory_pressure=mp, scale=scale)
    )
    sim.attach(prof, every=2000)
    sim.run()
    prof.sample(sim.machine)
    return prof.report(), sim.machine.config


def test_empirical_replication_degrees(benchmark, bench_scale, results_dir):
    """Measure replication degree across the pressure sweep and compare
    against the closed-form cap of section 4.2."""

    def sweep():
        return {
            mp: _profile(mp, min(1.0, bench_scale))
            for mp in (1 / 16, 8 / 16, 13 / 16, 14 / 16)
        }

    profiles = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Empirical replication degree (synth_hotspot, 16 x 1p nodes)"]
    for mp, (rep, cfg) in profiles.items():
        cap = max_replication_degree(cfg.n_nodes, cfg.am_assoc, mp)
        lines.append(
            f"  MP {100 * mp:5.1f}%: max degree {rep.max_degree:2d}, "
            f"mean {rep.mean_degree:5.2f}, analytic cap {cap:2d}, "
            f"AM owner fraction {rep.am_composition.get('owner', 0):.2f}"
        )
        lines.append("    " + format_profile(rep).splitlines()[1].strip())
    text = "\n".join(lines)
    write_result(results_dir, "replication_empirical.txt", text)
    print()
    print(text)

    low = profiles[1 / 16][0]
    high = profiles[14 / 16][0]
    assert low.max_degree >= 8, "plentiful space: wide replication"
    assert high.mean_degree <= low.mean_degree, "pressure squeezes replication"
    # Owner fraction of AM ways tracks the memory pressure.
    assert high.am_composition["owner"] > low.am_composition["owner"]
