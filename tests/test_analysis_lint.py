"""Determinism linter: every rule fires on a seeded fixture with the
exact ID and line, suppression works, and the real tree is clean."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULES,
    default_root,
    lint_file,
    lint_source,
    lint_tree,
)


def lint(src: str, restricted: bool = True):
    return lint_source(textwrap.dedent(src), "coma/fixture.py", restricted)


def rules_and_lines(findings):
    return [(f.rule, f.line) for f in findings]


class TestWallClock:
    def test_time_time_flagged_with_location(self):
        findings = lint(
            """\
            import time

            def now():
                return time.time()
            """
        )
        assert rules_and_lines(findings) == [("DET001", 4)]
        assert "reproducible" in findings[0].message

    @pytest.mark.parametrize("call", [
        "time.monotonic()", "time.perf_counter_ns()", "time.process_time()",
    ])
    def test_other_clocks(self, call):
        findings = lint(f"import time\nt = {call}\n")
        assert [f.rule for f in findings] == ["DET001"]

    def test_datetime_now_via_from_import(self):
        findings = lint(
            "from datetime import datetime\nstamp = datetime.now()\n"
        )
        assert rules_and_lines(findings) == [("DET001", 2)]

    def test_not_flagged_outside_deterministic_core(self):
        findings = lint("import time\nt = time.time()\n", restricted=False)
        assert findings == []

    def test_unrelated_attribute_named_time_ok(self):
        findings = lint("class C:\n    def time(self):\n        return 0\n")
        assert findings == []


class TestRandomness:
    def test_global_random_function(self):
        findings = lint("import random\nx = random.randint(0, 4)\n")
        assert rules_and_lines(findings) == [("DET002", 2)]

    def test_unseeded_random_instance(self):
        findings = lint("import random\nrng = random.Random()\n")
        assert [f.rule for f in findings] == ["DET002"]

    def test_seeded_random_instance_ok(self):
        findings = lint(
            """\
            import random
            from repro.common.rng import derive_seed
            rng = random.Random(derive_seed(1997, "replacement"))
            """
        )
        assert findings == []

    def test_system_random_always_flagged(self):
        findings = lint("import random\nr = random.SystemRandom()\n")
        assert [f.rule for f in findings] == ["DET002"]

    def test_unseeded_numpy_default_rng(self):
        findings = lint("import numpy as np\ng = np.random.default_rng()\n")
        assert [f.rule for f in findings] == ["DET002"]

    def test_seeded_numpy_default_rng_ok(self):
        findings = lint("import numpy as np\ng = np.random.default_rng(7)\n")
        assert findings == []

    def test_numpy_legacy_global_generator(self):
        findings = lint("import numpy as np\nx = np.random.randint(0, 4)\n")
        assert [f.rule for f in findings] == ["DET002"]


class TestMutableDefaults:
    def test_list_literal_default(self):
        findings = lint("def f(xs=[]):\n    return xs\n", restricted=False)
        assert rules_and_lines(findings) == [("MUT001", 1)]

    def test_dict_call_default(self):
        findings = lint("def f(m=dict()):\n    return m\n", restricted=False)
        assert [f.rule for f in findings] == ["MUT001"]

    def test_kwonly_default(self):
        findings = lint("def f(*, m={}):\n    return m\n", restricted=False)
        assert [f.rule for f in findings] == ["MUT001"]

    def test_none_and_tuple_defaults_ok(self):
        findings = lint("def f(a=None, b=(), c=0):\n    return a\n",
                        restricted=False)
        assert findings == []


class TestFloatEquality:
    def test_float_literal_comparison(self):
        findings = lint("def f(t):\n    return t == 1.5\n")
        assert rules_and_lines(findings) == [("FLT001", 2)]

    def test_not_equal_also_flagged(self):
        findings = lint("def f(t):\n    return t != 0.5\n")
        assert [f.rule for f in findings] == ["FLT001"]

    def test_integer_comparison_ok(self):
        findings = lint("def f(t):\n    return t == 148\n")
        assert findings == []

    def test_float_inequality_ordering_ok(self):
        findings = lint("def f(t):\n    return t < 1.5\n")
        assert findings == []

    def test_not_flagged_outside_core(self):
        findings = lint("x = 1.0 == 2.0\n", restricted=False)
        assert findings == []


class TestBareExcept:
    def test_bare_except(self):
        findings = lint(
            "try:\n    pass\nexcept:\n    pass\n", restricted=False
        )
        assert rules_and_lines(findings) == [("EXC001", 3)]

    def test_typed_except_ok(self):
        findings = lint(
            "try:\n    pass\nexcept ValueError:\n    pass\n", restricted=False
        )
        assert findings == []


class TestSuppression:
    def test_noqa_with_id(self):
        findings = lint("import time\nt = time.time()  # noqa: DET001\n")
        assert findings == []

    def test_noqa_bare_suppresses_all(self):
        findings = lint("import time\nt = time.time()  # noqa\n")
        assert findings == []

    def test_lint_disable_form(self):
        findings = lint(
            "import time\nt = time.time()  # lint: disable=DET001\n"
        )
        assert findings == []

    def test_wrong_id_does_not_suppress(self):
        findings = lint("import time\nt = time.time()  # noqa: EXC001\n")
        assert [f.rule for f in findings] == ["DET001"]

    def test_suppression_is_per_line(self):
        findings = lint(
            "import time\nt = time.time()  # noqa: DET001\nu = time.time()\n"
        )
        assert rules_and_lines(findings) == [("DET001", 3)]


class TestSyntaxErrors:
    def test_unparsable_file_reported(self):
        findings = lint_source("def f(:\n", "bad.py")
        assert [f.rule for f in findings] == ["SYN001"]


class TestTreeScoping:
    def test_restricted_subsystem_detected_from_layout(self, tmp_path):
        (tmp_path / "coma").mkdir()
        (tmp_path / "figures").mkdir()
        bad = "import time\nt = time.time()\n"
        (tmp_path / "coma" / "mod.py").write_text(bad)
        (tmp_path / "figures" / "mod.py").write_text(bad)
        report = lint_tree(tmp_path)
        assert report.stats["files"] == 2
        assert [f.rule for f in report.findings] == ["DET001"]
        assert "coma" in report.findings[0].path

    def test_trace_and_workloads_are_restricted(self, tmp_path):
        # The reference access streams feed every figure: the generators
        # are held to the deterministic-core rules too, as is the run
        # accounting (stall time and counters) under timing/.
        bad = "import time\nt = time.time()\n"
        for sub in ("timing", "workloads"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "mod.py").write_text(bad)
        report = lint_tree(tmp_path)
        assert sorted(f.rule for f in report.findings) == ["DET001", "DET001"]

    def test_baseline_machines_and_write_front_are_restricted(self, tmp_path):
        # numa, uma and the shared write front in common/ decide pinned
        # results just as coma/ does.
        bad = "import time\nt = time.time()\n"
        for sub in ("numa", "uma", "common"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "machine.py").write_text(bad)
        report = lint_tree(tmp_path)
        assert sorted((f.rule, Path(f.path).parent.name)
                      for f in report.findings) == [
            ("DET001", "common"), ("DET001", "numa"), ("DET001", "uma")]

    def test_mutation_fixture_caught_with_exact_location(self, tmp_path):
        """The ISSUE's mutation test: inject a time.time() call into a
        fixture module and assert the exact rule ID and location."""
        (tmp_path / "sim").mkdir()
        mod = tmp_path / "sim" / "kernel.py"
        mod.write_text(
            "import time\n\n\ndef step(clock):\n    return time.time()\n"
        )
        report = lint_tree(tmp_path)
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.rule == "DET001"
        assert f.line == 5
        assert f.path.endswith("kernel.py")

    def test_lint_file_against_real_package_root(self):
        root = default_root()
        assert lint_file(root / "coma" / "machine.py") == []

    def test_real_tree_is_clean(self):
        """Acceptance criterion: coma-sim lint exits 0 on src/repro."""
        report = lint_tree(default_root())
        assert report.ok, [
            (f.location(), f.rule, f.message) for f in report.findings
        ]
        assert report.stats["files"] > 80


class TestCatalogue:
    def test_every_rule_documented(self):
        for rule, description in RULES.items():
            assert rule and description
        assert {"DET001", "DET002", "MUT001", "FLT001", "EXC001"} <= set(RULES)


class TestHotPathRules:
    """HOT001/HOT002/HOT003 fire inside @hotpath functions — and only
    there: the decorator is the claim the rules check."""

    def test_tuple_keyed_subscript_flagged(self):
        findings = lint(
            """\
            from repro.common.hotpath import hotpath

            @hotpath
            def dispatch(table, state, event):
                return table[(state, event)]
            """,
            restricted=False,
        )
        assert rules_and_lines(findings) == [("HOT001", 5)]
        assert "intern the key" in findings[0].message
        assert "dispatch()" in findings[0].message

    def test_string_keyed_get_flagged(self):
        findings = lint(
            """\
            from repro.common.hotpath import hotpath

            @hotpath
            def latency(timing):
                return timing.get("nc_busy")
            """,
            restricted=False,
        )
        assert [f.rule for f in findings] == ["HOT001"]

    def test_int_keyed_index_dict_is_fine(self):
        findings = lint(
            """\
            from repro.common.hotpath import hotpath

            @hotpath
            def way_of(index, line):
                return index.get(line)
            """,
            restricted=False,
        )
        assert findings == []

    def test_allocation_flagged_tuples_exempt(self):
        findings = lint(
            """\
            from repro.common.hotpath import hotpath

            @hotpath
            def f(xs):
                ys = [x + 1 for x in xs]
                zs = sorted(ys)
                d = {}
                return (len(zs), d)
            """,
            restricted=False,
        )
        assert [f.rule for f in findings] == ["HOT002", "HOT002", "HOT002"]

    def test_attribute_chain_reresolution_flagged(self):
        findings = lint(
            """\
            from repro.common.hotpath import hotpath

            @hotpath
            def touch(self, way):
                self.array.tick += 1
                self.array.lru[way] = self.array.tick
            """,
            restricted=False,
        )
        rules = sorted(f.rule for f in findings)
        assert "HOT003" in rules
        assert any("hoist self.array" in f.message for f in findings)

    def test_depth_one_chains_are_fine(self):
        findings = lint(
            """\
            from repro.common.hotpath import hotpath

            @hotpath
            def touch(a, way):
                a.tick += 1
                a.lru[way] = a.tick
            """,
            restricted=False,
        )
        assert findings == []

    def test_undecorated_function_unchecked(self):
        findings = lint(
            """\
            def cold(table, state, event):
                return table[(state, event)]
            """,
            restricted=False,
        )
        assert findings == []

    def test_other_decorators_do_not_trigger(self):
        findings = lint(
            """\
            import functools

            @functools.lru_cache
            def cold(table, key):
                return table[(key, key)]
            """,
            restricted=False,
        )
        assert findings == []

    def test_noqa_suppresses_hot_finding(self):
        findings = lint(
            """\
            from repro.common.hotpath import hotpath

            @hotpath
            def f(table, k):
                return table[(k, k)]  # noqa: HOT001
            """,
            restricted=False,
        )
        assert findings == []

    def test_nested_def_not_scanned_as_hot(self):
        findings = lint(
            """\
            from repro.common.hotpath import hotpath

            @hotpath
            def outer(x):
                def inner(table, k):
                    return table[(k, k)]
                return x
            """,
            restricted=False,
        )
        assert findings == []

    def test_hot_rules_catalogued(self):
        assert {"HOT001", "HOT002", "HOT003"} <= set(RULES)
