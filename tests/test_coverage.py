"""Protocol table coverage: universe/reachable sets, the trace-driven
coverage map, micro-workload recipes and the structural findings."""

from __future__ import annotations

import pytest

from repro.analysis.coverage import (
    MICRO_RECIPES,
    CoverageAnalysis,
    CoverageMap,
    cell_key,
    format_coverage,
    micro_machine,
    parse_cell,
    reachable_cells,
    run_micro,
    table_cells,
)
from repro.experiments.runner import RunSpec, build_simulation


class TestUniverse:
    def test_universe_has_21_cells(self):
        """19 allowed rows; the two sharer-dependent inject rows each
        split into alone/sharers."""
        cells = table_cells()
        assert len(cells) == 21
        assert ("I", "inject", "alone") in cells
        assert ("I", "inject", "sharers") in cells
        assert ("S", "inject", "alone") in cells
        assert ("S", "inject", "sharers") in cells
        assert ("I", "inject", "-") not in cells
        # disallowed rows stay outside the universe
        assert not any(c[0] == "I" and c[1] == "remote_read" for c in cells)

    def test_cell_key_round_trip(self):
        for cell in table_cells():
            assert parse_cell(cell_key(cell)) == cell
        with pytest.raises(ValueError):
            parse_cell("a:b:c:d")


class TestReachable:
    def test_every_table_cell_is_abstractly_reachable(self):
        """The spec carries no dead weight: with 3 nodes the abstract
        model reaches every allowed cell (so every gap the coverage
        report shows is a machine-behaviour fact, not a spec artifact)."""
        assert reachable_cells() >= table_cells()

    def test_two_nodes_cannot_reach_sharer_injects(self):
        """With only actor + receiver there is never a surviving third
        sharer, so the 'sharers' inject outcomes need >= 3 nodes."""
        reach = reachable_cells(n_nodes=2)
        assert ("S", "inject", "sharers") not in reach
        assert ("S", "inject", "alone") in reach


class TestMicroRecipes:
    @pytest.mark.parametrize(
        "cell", [c for c, r in sorted(MICRO_RECIPES.items()) if r is not None],
        ids=lambda c: cell_key(c))
    def test_recipe_drives_its_cell(self, cell):
        cov = run_micro(MICRO_RECIPES[cell])
        assert cell in cov.exercised, sorted(
            cell_key(c) for c in cov.exercised)

    def test_recipes_cover_all_but_structural_gaps(self):
        drivable = {c for c, r in MICRO_RECIPES.items() if r is not None}
        gaps = table_cells() - drivable
        assert gaps == {("I", "inject", "sharers"),
                        ("S", "remote_read", "-")}

    def test_all_recipes_union(self):
        exercised: set = set()
        for recipe in MICRO_RECIPES.values():
            if recipe is not None:
                exercised |= run_micro(recipe).exercised
        missing = table_cells() - exercised
        assert missing == {("I", "inject", "sharers"),
                           ("S", "remote_read", "-")}

    def test_micro_machine_geometry(self):
        m = micro_machine()
        assert m.config.n_processors == 4
        assert m.config.procs_per_node == 1


class TestCoverageMap:
    def test_exercised_only_contains_universe_cells(self):
        cov = run_micro(MICRO_RECIPES[("O", "remote_write", "-")])
        assert cov.exercised <= table_cells()

    def test_workload_run_exercises_core_cells(self):
        spec = RunSpec(workload="synth_migratory", memory_pressure=0.875,
                       scale=0.1)
        sim = build_simulation(spec)
        cov = CoverageMap()
        sim.attach(cov)
        sim.run()
        for cell in [("I", "local_read", "-"), ("I", "local_write", "-"),
                     ("E", "remote_read", "-"), ("S", "remote_write", "-")]:
            assert cell in cov.exercised, cell_key(cell)
        # the structural machine gap must never appear
        assert ("S", "remote_read", "-") not in cov.exercised

    def test_detached_map_changes_nothing(self):
        spec = RunSpec(workload="synth_private", scale=0.1)
        a = build_simulation(spec).run()
        sim = build_simulation(spec)
        cov = CoverageMap()
        sim.attach(cov)
        b = sim.run()
        assert a.elapsed_ns == b.elapsed_ns
        assert a.counters == b.counters


class TestAnalysisReport:
    @pytest.fixture(scope="class")
    def analysis(self):
        ana = CoverageAnalysis()
        for mp in (0.0625, 0.875):
            spec = RunSpec(workload="synth_migratory", memory_pressure=mp,
                           scale=0.1)
            sim = build_simulation(spec)
            cov = CoverageMap()
            sim.attach(cov)
            sim.run()
            ana.add_run(f"synth_migratory@mp={mp:g}", cov.exercised)
        return ana

    def test_no_dead_cells_in_shipped_table(self, analysis):
        assert analysis.dead_cells() == []

    def test_structural_gaps_reported(self, analysis):
        """The previously-unknown findings: (S, remote_read) is served
        via the owner so a Shared copy never sees the snoop, and an
        Invalid receiver is only chosen when no sharer survives."""
        gaps = analysis.gap_cells()
        assert ("S", "remote_read", "-") in gaps
        assert ("I", "inject", "sharers") in gaps

    def test_percentages_monotone_in_union(self, analysis):
        total = analysis.pct()
        assert all(analysis.pct(label) <= total for label in analysis.runs)
        assert 0.0 < total <= 100.0

    def test_report_round_trips_to_json(self, analysis):
        import json

        report = analysis.report()
        decoded = json.loads(json.dumps(report, sort_keys=True))
        assert decoded["dead"] == []
        assert "S:remote_read" in [g["cell"] for g in decoded["gaps"]]
        assert decoded["total_pct"] == report["total_pct"]

    def test_format_renders_statuses(self, analysis):
        text = format_coverage(analysis.report())
        assert "GAP" in text and "covered" in text
        assert "% of reachable cells" in text
