"""Metrics registry, instrumentation, and OpenMetrics exporter tests."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import RunSpec, build_simulation
from repro.obs.metrics import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.openmetrics import (
    OpenMetricsParseError,
    escape_label_value,
    parse_openmetrics,
    render_openmetrics,
    to_json,
    to_openmetrics,
    to_table,
)

SPEC = RunSpec(workload="synth_migratory", scale=0.1, memory_pressure=0.8125)


def run_with_registry(spec: RunSpec = SPEC) -> MetricsRegistry:
    registry = MetricsRegistry()
    sim = build_simulation(spec)
    sim.attach(registry)
    sim.run()
    return registry


class TestPrimitives:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.dec(3)
        g.inc()
        assert g.value == 8

    def test_histogram_log2_bucket_indexing(self):
        h = Histogram(n_buckets=6)
        # Bucket i counts v <= 2^i: 1→b0, 2→b1, 3..4→b2, 5..8→b3 ...
        for v in (0, 1, 2, 3, 4, 5, 8, 9, 16):  # 16 <= 2**4 -> bucket 4
            h.observe(v)
        assert h.counts == [2, 1, 2, 2, 2, 0]
        assert h.count == 9
        assert h.sum == 48

    def test_histogram_overflow_goes_to_inf_bucket(self):
        h = Histogram(n_buckets=4)
        h.observe(10**9)
        assert h.counts[-1] == 1
        assert h.bucket_bounds() == [1, 2, 4, float("inf")]

    def test_histogram_cumulative(self):
        h = Histogram(n_buckets=4)
        for v in (1, 2, 2, 100):
            h.observe(v)
        assert h.cumulative() == [1, 3, 3, 4]


class TestRegistry:
    def test_labeled_children_cached(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_ops", "ops", labels=("kind",))
        assert fam.labels("a") is fam.labels("a")
        fam.labels("a").inc(2)
        fam.labels("b").inc()
        assert {k: c.value for k, c in fam.samples()} == {("a",): 2, ("b",): 1}

    def test_redeclaration_must_match(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_ops", "ops", labels=("kind",))
        assert reg.counter("x_ops", "ops", labels=("kind",)) is fam
        with pytest.raises(ValueError):
            reg.gauge("x_ops", "ops", labels=("kind",))
        with pytest.raises(ValueError):
            reg.counter("x_ops", "ops", labels=("other",))

    def test_counter_total_suffix_rejected(self):
        # Exporters append _total; declaring it would double the suffix.
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_ops_total", "ops")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("0bad", "help")
        with pytest.raises(ValueError):
            reg.counter("has space", "help")

    def test_unlabeled_family_shortcuts(self):
        reg = MetricsRegistry()
        reg.counter("c", "c").inc(3)
        reg.gauge("g", "g").set(7)
        reg.histogram("h", "h").observe(4)
        snap = reg.snapshot()
        assert snap["c"]["series"] == {"": 3}
        assert snap["g"]["series"] == {"": 7}
        assert snap["h"]["series"][""]["count"] == 1


class TestInstrumentationCoverage:
    def test_run_produces_all_layer_families(self):
        registry = run_with_registry()
        names = {f.name for f in registry.families()}
        # One family per instrumented layer: kernel, machine, cache
        # hit/miss, replacement, interconnect.
        assert {"sim_events_processed", "sim_elapsed_ns"} <= names
        assert {"coma_access_latency_ns", "coma_events"} <= names
        assert {"coma_node_hits", "coma_node_misses"} <= names
        assert "coma_relocations" in names
        assert {"bus_transactions", "bus_bytes", "bus_busy_ns"} <= names

    def test_metrics_agree_with_machine_meters(self):
        registry = MetricsRegistry()
        sim = build_simulation(SPEC)
        sim.attach(registry)
        sim.run()
        bus = sim.machine.bus
        snap = registry.snapshot()
        tx = snap["bus_transactions"]["series"]
        by = snap["bus_bytes"]["series"]
        for cls, count in bus.tx_count.items():
            if count:
                assert tx[f"bus,{cls.value}"] == count
                assert by[f"bus,{cls.value}"] == bus.tx_bytes[cls]
        assert (snap["sim_events_processed"]["series"][""]
                == sim.events_processed)

    def test_events_family_folds_counters(self):
        registry = MetricsRegistry()
        sim = build_simulation(SPEC)
        sim.attach(registry)
        sim.run()
        events = registry.snapshot()["coma_events"]["series"]
        for name, value in sim.machine.counters.as_dict().items():
            if value:
                assert events[name] == value

    def test_sync_wait_observed(self):
        spec = RunSpec(workload="synth_producer_consumer", scale=0.1)
        registry = run_with_registry(spec)
        snap = registry.snapshot()["sim_sync_wait_ns"]["series"]
        assert snap, "lock/barrier workload must record sync waits"

    def test_hierarchical_group_buses_metered(self):
        spec = RunSpec(workload="synth_uniform", scale=0.1, machine="hcoma",
                       n_processors=16, procs_per_node=4)
        registry = run_with_registry(spec)
        tx = registry.snapshot()["bus_transactions"]["series"]
        buses = {key.split(",")[0] for key in tx}
        assert "bus" in buses and any(b.startswith("gbus") for b in buses)


class TestDeterminism:
    def test_same_spec_same_snapshot(self):
        a = run_with_registry().snapshot()
        b = run_with_registry().snapshot()
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_same_spec_same_exposition(self):
        assert to_openmetrics(run_with_registry()) == to_openmetrics(
            run_with_registry()
        )


class TestZeroOverheadOff:
    def test_disabled_run_never_touches_metric_types(self, monkeypatch):
        """Mutation-style guard: an uninstrumented run must not execute a
        single metric mutation, not merely produce no visible series."""
        from repro.obs.spans import SpanBuilder

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("observer ran on an uninstrumented run")

        monkeypatch.setattr(Counter, "inc", boom)
        monkeypatch.setattr(Gauge, "set", boom)
        monkeypatch.setattr(Gauge, "inc", boom)
        monkeypatch.setattr(Histogram, "observe", boom)
        monkeypatch.setattr(Family, "labels", boom)
        monkeypatch.setattr(Family, "inc", boom)
        monkeypatch.setattr(Family, "set", boom)
        monkeypatch.setattr(Family, "observe", boom)
        for name, attr in vars(SpanBuilder).items():
            if callable(attr) and not name.startswith("__"):
                monkeypatch.setattr(SpanBuilder, name, boom)
        for machine in ("coma", "hcoma", "numa"):
            sim = build_simulation(SPEC.with_(machine=machine))
            result = sim.run()
            assert result.elapsed_ns > 0
            assert sim.obs is None and sim.machine.obs is None
            assert all(bus.obs is None for bus in sim.machine.buses)


class TestAttachPath:
    def test_attach_profiler_and_registry_and_sink(self):
        from repro.obs.sink import CollectorSink
        from repro.stats.profiler import SharingProfiler

        registry = MetricsRegistry()
        prof = SharingProfiler()
        sink = CollectorSink()
        sim = build_simulation(SPEC)
        sim.attach(prof, every=1000)
        sim.attach(registry)
        sim.attach(sink)
        sim.run()
        assert sim.profiler is prof and sim.profile_every == 1000
        assert prof.samples
        assert sink.events
        assert registry.snapshot()["sim_events_processed"]["series"][""] > 0

    def test_attach_second_profiler_composes(self):
        from repro.obs.sink import TeeSink
        from repro.obs.timeline import TimelineSampler
        from repro.stats.profiler import SharingProfiler

        sim = build_simulation(SPEC)
        prof, tl = SharingProfiler(), TimelineSampler()
        sim.attach(prof)
        sim.attach(tl, every=2000)
        assert isinstance(sim.profiler, TeeSink)
        assert sim.profiler.sinks == [prof, tl]
        assert sim.profile_every == 2000
        assert sim.obs is None  # profilers never take the event slot
        sim.run()
        assert prof.samples and tl.t

    def test_attach_second_sink_tees(self):
        from repro.obs.sink import CollectorSink, TeeSink

        sim = build_simulation(SPEC)
        a, b = CollectorSink(), CollectorSink()
        sim.attach(a)
        sim.attach(b)
        assert isinstance(sim.obs, TeeSink)
        assert sim.obs is sim.machine.obs is sim.machine.bus.obs
        sim.run()
        assert len(a.events) == len(b.events) > 0

    def test_attach_kwarg_still_routes(self):
        from repro.sim.simulator import Simulation
        from repro.stats.profiler import SharingProfiler

        prof = SharingProfiler()
        base = build_simulation(SPEC)
        sim = Simulation(base.machine, [iter(())], base.sync,
                         profiler=prof, profile_every=123)
        assert sim.profiler is prof and sim.profile_every == 123

    def test_attach_rejects_unknown_observer(self):
        from repro.common.errors import SimulationError

        sim = build_simulation(SPEC)
        with pytest.raises(SimulationError):
            sim.attach(object())


class TestOpenMetrics:
    def test_exposition_is_eof_terminated_and_parses(self):
        registry = run_with_registry()
        text = to_openmetrics(registry)
        assert text.endswith("# EOF\n")
        parsed = parse_openmetrics(text)
        assert "bus_bytes" in parsed
        assert parsed["bus_bytes"]["type"] == "counter"

    def test_counter_samples_carry_total_suffix(self):
        registry = run_with_registry()
        for line in to_openmetrics(registry).splitlines():
            if line.startswith("coma_node_hits"):
                assert line.startswith("coma_node_hits_total{")

    def test_histogram_round_trip(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", labels=("op",), n_buckets=4)
        for v in (1, 3, 100):
            h.labels("r").observe(v)
        parsed = parse_openmetrics(to_openmetrics(reg))
        samples = parsed["lat"]["samples"]
        buckets = {
            labels["le"]: value
            for labels, value in samples["lat_bucket"]
        }
        assert buckets == {"1": 1.0, "2": 1.0, "4": 2.0, "+Inf": 3.0}
        assert samples["lat_count"][0][1] == 3.0
        assert samples["lat_sum"][0][1] == 104.0

    def test_label_escaping_round_trip(self):
        reg = MetricsRegistry()
        fam = reg.counter("odd", "odd labels", labels=("k",))
        nasty = 'a"b\\c\nd'
        fam.labels(nasty).inc(2)
        text = to_openmetrics(reg)
        parsed = parse_openmetrics(text)
        (labels, value), = parsed["odd"]["samples"]["odd_total"]
        assert labels["k"] == nasty
        assert value == 2.0

    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_parse_rejects_missing_eof(self):
        with pytest.raises(OpenMetricsParseError):
            parse_openmetrics("# TYPE x counter\nx_total 1\n")

    def test_parse_rejects_untyped_sample(self):
        with pytest.raises(OpenMetricsParseError):
            parse_openmetrics("mystery 1\n# EOF\n")

    def test_render_round_trip_byte_identical(self):
        # parse → render must reproduce the exporter output byte for
        # byte — counters, gauges, and histograms all included.
        text = to_openmetrics(run_with_registry())
        ex: dict = {}
        assert render_openmetrics(parse_openmetrics(text, ex), ex) == text

    def test_render_preserves_int_float_distinction(self):
        reg = MetricsRegistry()
        g = reg.gauge("mix", "ints and floats", labels=("k",))
        g.labels("i").set(5)
        g.labels("f").set(5.0)
        text = to_openmetrics(reg)
        assert 'mix{k="i"} 5\n' in text
        assert 'mix{k="f"} 5.0\n' in text
        assert render_openmetrics(parse_openmetrics(text)) == text

    def test_render_round_trip_label_containing_hash(self):
        # A literal " # " inside a label value must not be mistaken for
        # an exemplar separator, and must survive a re-render intact.
        reg = MetricsRegistry()
        fam = reg.counter("odd", "odd labels", labels=("k",))
        fam.labels('route # {weird="yes"} 9').inc(3)
        text = to_openmetrics(reg)
        ex: dict = {}
        parsed = parse_openmetrics(text, ex)
        assert ex == {}  # no exemplars: the " # " was inside quotes
        (labels, value), = parsed["odd"]["samples"]["odd_total"]
        assert labels["k"] == 'route # {weird="yes"} 9'
        assert value == 3
        assert render_openmetrics(parsed) == text

    def test_render_round_trip_escaped_labels_and_help(self):
        reg = MetricsRegistry()
        fam = reg.counter("esc", 'help with \\ and\nnewline', labels=("k",))
        fam.labels('a"b\\c\nd').inc(1)
        text = to_openmetrics(reg)
        assert render_openmetrics(parse_openmetrics(text)) == text

    def test_json_export_carries_provenance(self):
        registry = run_with_registry()
        payload = json.loads(to_json(registry, provenance={"git_rev": "x"}))
        assert payload["provenance"]["git_rev"] == "x"
        assert "bus_bytes" in payload["families"]

    def test_table_export_mentions_every_family(self):
        registry = run_with_registry()
        table = to_table(registry)
        for fam in registry.families():
            assert fam.name in table


class TestCli:
    def test_metrics_openmetrics(self, capsys):
        from repro.cli import main

        rc = main(["metrics", "synth_migratory", "--scale", "0.1",
                   "--mp", "0.8125", "--format", "openmetrics"])
        assert rc == 0
        out = capsys.readouterr().out
        parsed = parse_openmetrics(out)
        prefixes = {name.split("_")[0] for name in parsed}
        assert {"sim", "coma", "bus"} <= prefixes

    def test_metrics_json_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "m.json"
        rc = main(["metrics", "synth_private", "--scale", "0.25",
                   "--format", "json", "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["provenance"]["cache_version"] >= 8
        assert "spec_key" in payload["provenance"]

    def test_metrics_table_default(self, capsys):
        from repro.cli import main

        rc = main(["metrics", "synth_private", "--scale", "0.25"])
        assert rc == 0
        assert "sim_events_processed" in capsys.readouterr().out
