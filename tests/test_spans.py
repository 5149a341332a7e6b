"""Causal spans: conservation, zero overhead off, attribution, timeline."""

from __future__ import annotations

import heapq
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.conftest import make_machine, observe

from repro.analysis.bounds import BoundsCertifier, envelope_for
from repro.common.config import TimingConfig
from repro.common.errors import SimulationError
from repro.experiments.runner import RunSpec, build_simulation
from repro.obs.chrometrace import ChromeTraceSink, validate_trace_events
from repro.obs.events import SpanEvent, record_to_event
from repro.obs.jsonl import JsonlTraceSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import (
    parse_openmetrics,
    render_openmetrics,
    to_openmetrics,
)
from repro.obs.sink import CollectorSink, TeeSink, TraceSink, tree_events
from repro.obs.spans import (
    SpanBuilder,
    StallAttribution,
    format_attribution,
    format_span_tree,
)
from repro.obs.timeline import TimelineSampler
from repro.sim.simulator import Simulation
from repro.sync.primitives import SyncSpace

SPEC = RunSpec(workload="synth_migratory", scale=0.05, n_processors=4)

# The certified machine flavours (protocol compiler targets): every one
# must conserve cycles span-by-span.
FLAVOURS = {
    "coma": {},
    "coma-noninclusive": {"inclusive": False},
    "coma-lru": {"am_victim_policy": "lru"},
}

LINE = 64


def _exercise(m) -> None:
    """A mixed access pattern: L1/SLC/AM hits, remote reads, upgrades,
    write misses and enough conflict to trigger relocations."""
    t = 0
    for k in range(120):
        p = k % m.config.n_processors
        t, _ = m.read(p, (k % 24) * LINE, t + 10)
        t = m.write(p, ((k * 7) % 24) * LINE, t + 10)
        if k % 5 == 0:
            t, _ = m.rmw(p, (k % 6) * LINE, t + 10)
        if k % 7 == 0:
            t, _ = m.write_stalling(p, ((k * 5) % 24) * LINE, t + 10)


def _roots_and_children(sink):
    spans = sink.of_kind("span")
    roots = [e for e in spans if e.parent_id == 0]
    children = [e for e in spans if e.parent_id != 0]
    return roots, children


class TestConservation:
    @pytest.mark.parametrize("flavour", sorted(FLAVOURS))
    def test_every_child_sum_equals_root(self, flavour):
        m = make_machine(**FLAVOURS[flavour])
        sink = CollectorSink(wants_spans=True)
        observe(m, sink)
        _exercise(m)
        roots, children = _roots_and_children(sink)
        assert roots, "no spans emitted"
        by_trace: dict[int, int] = {}
        for c in children:
            by_trace[c.trace_id] = by_trace.get(c.trace_id, 0) + c.dur_ns
        for r in roots:
            assert by_trace.get(r.trace_id, 0) == r.dur_ns, (
                f"{flavour}: trace {r.trace_id} children sum to "
                f"{by_trace.get(r.trace_id, 0)}, root is {r.dur_ns}"
            )

    @pytest.mark.parametrize("flavour", sorted(FLAVOURS))
    def test_attribution_conserves(self, flavour):
        m = make_machine(**FLAVOURS[flavour])
        att = StallAttribution()
        observe(m, att)
        _exercise(m)
        assert att.accesses > 0
        assert att.conservation_errors() == []

    def test_children_tile_the_root_interval(self):
        """Children are adjacent, ordered cuts of [issue, completion]."""
        m = make_machine()
        sink = CollectorSink(wants_spans=True)
        observe(m, sink)
        _exercise(m)
        roots, children = _roots_and_children(sink)
        kids: dict[int, list] = {}
        for c in children:
            kids.setdefault(c.trace_id, []).append(c)
        for r in roots:
            cursor = r.t
            # Zero-latency accesses (L1 hits) legally have no children.
            for c in kids.get(r.trace_id, ()):
                assert c.t == cursor
                assert c.dur_ns > 0
                cursor += c.dur_ns
            assert cursor == r.t + r.dur_ns

    def test_simulation_run_conserves_and_sums_to_clock(self):
        att = StallAttribution()
        sim = build_simulation(SPEC)
        sim.attach(att)
        result = sim.run()
        assert att.conservation_errors() == []
        # The kernel's stall accounting is the clock-level ground truth.
        report = att.report(stalls=result.stalls,
                            elapsed_ns=result.elapsed_ns)
        for proc, acct in zip(sim.procs, report["stall_accounting"]):
            assert acct["total_ns"] == proc.clock

    def test_hierarchical_machine_conserves(self):
        att = StallAttribution()
        sim = build_simulation(
            RunSpec(workload="synth_uniform", scale=0.1, machine="hcoma",
                    n_processors=16, procs_per_node=4)
        )
        sim.attach(att)
        sim.run()
        assert att.accesses > 0
        assert att.conservation_errors() == []
        # Hierarchical phases actually show up in the breakdown.
        names = set()
        for by_op in att.phase_ns.values():
            for phases in by_op.values():
                names.update(phases)
        assert names & {"gbus_req", "tbus_req", "dir_lookup"}


class TestZeroOverheadOff:
    def test_disabled_run_never_builds_a_span(self, monkeypatch):
        """Poisoned-mutator proof: with no span-wanting sink attached, a
        run must not execute a single SpanBuilder method."""

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("span recorded on a spans-off run")

        for name, attr in vars(SpanBuilder).items():
            if callable(attr) and not name.startswith("__"):
                monkeypatch.setattr(SpanBuilder, name, boom)
        sim = build_simulation(SPEC)
        sink = CollectorSink()
        sim.attach(sink)  # tracing on, spans off
        result = sim.run()
        assert result.elapsed_ns > 0
        assert sim.obs is sink and sim.machine.obs is sink

    def test_tee_skips_calls_a_member_does_not_read(self, monkeypatch):
        """Poisoned no-ops: the span builder forwards each typed call only
        to the members that override it, so ``MetricsSink``'s inherited
        ``tree`` and ``StallAttribution``'s inherited ``access`` never
        run."""

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("a tee forwarded a call no member reads")

        for name in ("access", "transition", "bus", "replacement", "sync",
                     "syncop", "span", "tree", "bus_phase", "run_end"):
            monkeypatch.setattr(TraceSink, name, boom)
        sim = build_simulation(SPEC)
        att = StallAttribution()
        registry = MetricsRegistry()
        sim.attach(registry)
        sim.attach(att)
        assert sim.machine.hit_path() is not None
        result = sim.run()
        assert att.accesses == result.counters["reads"] + result.counters[
            "writes"] + result.counters["atomics"]
        assert "coma_access_latency_ns" in to_openmetrics(registry)

    def test_detaching_span_sink_restores_byte_identical_traces(self):
        def jsonl(extra_sink) -> str:
            buf = io.StringIO()
            sink = JsonlTraceSink(buf)
            sim = build_simulation(SPEC)
            sim.attach(sink)
            if extra_sink:
                sim.attach(extra_sink)
            sim.run()
            return buf.getvalue()

        plain = jsonl(None)
        with_spans = jsonl(StallAttribution())
        detached = jsonl(None)
        assert plain == detached
        assert '"ev":"span"' not in plain
        # With a span-wanting sink teed in, the shared stream grows.
        assert '"ev":"span"' in with_spans

    def test_tee_wants_spans_if_any_child_does(self):
        m = make_machine()
        sim = observe(m, CollectorSink(), CollectorSink())
        assert isinstance(m.obs, TeeSink)
        att = StallAttribution()
        sim.attach(att)
        assert isinstance(m.obs, SpanBuilder)
        assert m.obs.sinks[-1] is att
        assert m.bus.obs is m.obs


class TestSpanEvents:
    def test_round_trip_through_records(self):
        ev = SpanEvent(t=5, dur_ns=40, trace_id=3, span_id=7, parent_id=6,
                       name="bus_arb", proc=2, line=0x40, op="r",
                       level="remote", relocs=1)
        rec = ev.to_record()
        assert record_to_event(json.loads(json.dumps(rec))) == ev

    def test_chrome_trace_spans_and_flows_validate(self, tmp_path):
        path = tmp_path / "trace.json"
        ct = ChromeTraceSink(str(path))
        ct.wants_spans = True
        sim = build_simulation(SPEC)
        sim.attach(ct)
        sim.run()
        ct.close()
        doc = json.loads(path.read_text())
        assert validate_trace_events(doc) == []
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "s", "t"} <= phs  # span slices + flow arrows

    def test_validator_rejects_flow_without_id(self):
        doc = {"traceEvents": [
            {"ph": "s", "pid": 1, "tid": 0, "ts": 1, "name": "f"},
        ]}
        assert validate_trace_events(doc) != []


class TestStallAttribution:
    def _run(self, top_spans=4):
        att = StallAttribution(top_spans=top_spans)
        sim = build_simulation(SPEC)
        sim.attach(att)
        result = sim.run()
        return att, result

    def test_report_and_rendering(self):
        att, result = self._run()
        report = att.report(stalls=result.stalls,
                            elapsed_ns=result.elapsed_ns)
        assert report["accesses"] == att.accesses
        assert report["conservation_errors"] == []
        assert report["per_proc"][0]["phases"]
        assert report["top_lines"]
        assert len(report["top_spans"]) == 4
        text = format_attribution(report)
        assert "conservation: OK" in text
        assert "kernel stall accounting" in text

    def test_slowest_spans_are_the_global_tail(self):
        att, _ = self._run(top_spans=3)
        trees = att.slowest_spans()
        assert len(trees) == 3
        durs = [t[0].dur_ns for t in trees]
        assert durs == sorted(durs, reverse=True)
        # Trees are complete: children conserve the root.
        for tree in trees:
            assert sum(c.dur_ns for c in tree[1:]) == tree[0].dur_ns
        text = format_span_tree(trees[0])
        assert f"trace {trees[0][0].trace_id}:" in text

    def test_workload_phases_delimited_by_barriers(self):
        att, _ = self._run()
        report = att.report()
        assert len(report["per_workload_phase"]) > 1

    def test_openmetrics_exemplars_round_trip(self):
        att, _ = self._run()
        text = to_openmetrics(att.registry, exemplars=att.exemplars())
        assert " # {" in text
        # Exemplars are comments per the exposition format: parsing the
        # text must still reproduce the histogram series exactly.
        assert parse_openmetrics(text) == parse_openmetrics(
            to_openmetrics(att.registry)
        )

    def test_openmetrics_render_byte_identical_with_exemplars(self):
        # Capture exemplars during the parse and feed them back into the
        # renderer: the output must reproduce the exporter's exposition
        # byte for byte, exemplar annotations included.
        att, _ = self._run()
        text = to_openmetrics(att.registry, exemplars=att.exemplars())
        assert " # {" in text
        captured: dict = {}
        families = parse_openmetrics(text, captured)
        assert captured  # the exemplar lines were actually captured
        assert render_openmetrics(families, captured) == text

    def test_deterministic(self):
        a, ra = self._run()
        b, rb = self._run()
        assert a.report(stalls=ra.stalls) == b.report(stalls=rb.stalls)


def _reference_fold(events: list, top_spans: int) -> dict:
    """Every StallAttribution aggregate, folded plainly from the flat
    span/sync/syncop stream a collector saw beside it."""
    root_ns: dict = {}
    phase_ns: dict = {}
    line_ns: dict = {}
    wphase_ns: dict = {}
    reloc_count: dict = {}
    sync_ns: dict = {}
    wphase: dict = {}
    class_max: dict = {}
    registry = MetricsRegistry()
    latency = registry.histogram(
        "span_access_latency_ns",
        "access latency from span roots by operation and level",
        labels=("op", "level"),
    )
    trees: dict = {}
    for ev in events:
        if ev.kind == "sync":
            sync_ns[ev.proc] = sync_ns.get(ev.proc, 0) + ev.wait_ns
        elif ev.kind == "syncop" and ev.op == "arrive":
            wphase[ev.proc] = wphase.get(ev.proc, 0) + 1
        elif ev.kind == "span" and ev.parent_id == 0:
            by_op = root_ns.setdefault(ev.proc, {})
            by_op[ev.op] = by_op.get(ev.op, 0) + ev.dur_ns
            line_ns[ev.line] = line_ns.get(ev.line, 0) + ev.dur_ns
            by_wp = wphase_ns.setdefault(wphase.get(ev.proc, 0), {})
            by_wp[ev.op] = by_wp.get(ev.op, 0) + ev.dur_ns
            if ev.relocs:
                reloc_count[ev.proc] = reloc_count.get(ev.proc, 0) + ev.relocs
            latency.labels(ev.op, ev.level).observe(ev.dur_ns)
            best = class_max.get((ev.op, ev.level))
            if best is None or ev.dur_ns > best[0]:
                class_max[(ev.op, ev.level)] = (ev.dur_ns, ev.trace_id)
            trees[ev.trace_id] = [ev]
        elif ev.kind == "span":
            phases = phase_ns.setdefault(ev.proc, {}).setdefault(ev.op, {})
            phases[ev.name] = phases.get(ev.name, 0) + ev.dur_ns
            trees[ev.trace_id].append(ev)
    slowest = heapq.nlargest(top_spans, ((t[0].dur_ns, tid)
                                         for tid, t in trees.items()))
    return {
        "accesses": len(trees),
        "root_ns": root_ns,
        "phase_ns": phase_ns,
        "line_ns": line_ns,
        "wphase_ns": wphase_ns,
        "reloc_count": reloc_count,
        "sync_ns": sync_ns,
        "exemplars": {"span_access_latency_ns": {
            cls: ({"trace_id": str(tid)}, dur)
            for cls, (dur, tid) in sorted(class_max.items())
        }},
        "histograms": registry.snapshot(),
        "slowest": [trees[tid] for _, tid in slowest],
    }


class TestReferenceFold:
    """StallAttribution folds whole trees in place; each aggregate must
    equal a plain fold over the flat span stream of the same run."""

    @pytest.mark.parametrize("machine", ["coma", "hcoma", "numa"])
    def test_aggregates_equal_flat_stream_fold(self, machine):
        sim = build_simulation(RunSpec(
            workload="barnes", machine=machine, scale=0.05, n_processors=8,
            procs_per_node=2, hierarchy_groups=2, memory_pressure=0.875))
        att = StallAttribution(top_spans=5)
        flat = CollectorSink(wants_spans=True)
        sim.attach(att)
        sim.attach(flat)
        sim.run()
        want = _reference_fold(flat.events, top_spans=5)
        assert want["accesses"] > 0
        # NUMA pages have a fixed home: nothing relocates.
        assert bool(want["reloc_count"]) == (machine != "numa")
        assert att.accesses == want["accesses"]
        assert att.root_ns == want["root_ns"]
        assert att.phase_ns == want["phase_ns"]
        assert att.line_ns == want["line_ns"]
        assert att.wphase_ns == want["wphase_ns"]
        assert att.reloc_count == want["reloc_count"]
        assert att.sync_ns == want["sync_ns"]
        assert att.exemplars() == want["exemplars"]
        assert att.registry.snapshot() == want["histograms"]
        assert att.slowest_spans() == want["slowest"]


_OPS = ("r", "w", "rmw")
_LEVELS = ("l1", "slc", "am", "remote")
_PHASES = ("nc_out", "bus_arb", "bus_req", "remote_am", "warp_drive")

#: One access: (op, level, [(phase, step ns)], tail ns, relocations),
#: where a step of 0 or less is a checkpoint at or before the cursor.
_ACCESS = st.tuples(
    st.sampled_from(_OPS), st.sampled_from(_LEVELS),
    st.lists(st.tuples(st.sampled_from(_PHASES),
                       st.integers(min_value=-5, max_value=60)),
             max_size=6),
    st.integers(min_value=0, max_value=40),
    st.lists(st.sampled_from(("relocated", "uncached", "dropped")),
             max_size=3),
)


class TestTreeDelivery:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ACCESS, min_size=1, max_size=12),
           st.integers(min_value=0, max_value=50))
    def test_random_checkpoints(self, accesses, gap):
        flat = CollectorSink(wants_spans=True)
        cert = BoundsCertifier(envelope_for("coma", TimingConfig()))
        b = SpanBuilder(flat, cert)
        t = 0
        relocs = []
        for i, (op, level, phases, tail, outcomes) in enumerate(accesses):
            t += gap
            t0 = latest = t
            b.begin(t0, i % 4, op, 64 * i)
            for k, (name, step) in enumerate(phases):
                t += step
                b.phase(name, t)
                latest = max(latest, t)
                if k < len(outcomes):
                    b.replacement(t, 0, 1, 64 * i, outcomes[k], 1)
            t = latest + tail
            b.access(t0, i % 4, op, 64 * i, level, t - t0)
            relocs.append(sum(o != "uncached"
                              for o in outcomes[:len(phases)]))
        # Every access is certified as it completes, the last included.
        assert cert.checked == len(accesses)
        cert.finalize()
        assert cert.checked == len(accesses)
        spans = flat.of_kind("span")
        # Contiguous ids from 1; each root first, then its children.
        assert [s.span_id for s in spans] == list(range(1, len(spans) + 1))
        roots = [s for s in spans if s.parent_id == 0]
        assert [r.trace_id for r in roots] == list(
            range(1, len(accesses) + 1))
        assert [r.relocs for r in roots] == relocs
        for r in roots:
            kids = [s for s in spans if s.trace_id == r.trace_id
                    and s.parent_id != 0]
            # The children follow their root directly ...
            at = spans.index(r) + 1
            assert spans[at:at + len(kids)] == kids
            # ... and tile [t0, t].
            cursor = r.t
            for c in kids:
                assert c.parent_id == r.span_id
                assert c.t == cursor and c.dur_ns > 0
                cursor += c.dur_ns
            assert cursor == r.t + r.dur_ns

    def test_tree_events_is_the_default_expansion(self):
        flat = CollectorSink()
        args = (10, 50, 3, 7, 1, 0x40, "r", "remote", 2,
                ["nc_out", "remote"], [10, 30], [30, 50])
        flat.tree(*args)
        assert flat.events == tree_events(*args)
        assert [e.span_id for e in flat.events] == [7, 8, 9]
        assert [e.parent_id for e in flat.events] == [0, 7, 7]
        assert [e.relocs for e in flat.events] == [2, 0, 0]


class TestTimelineSampler:
    def _run(self, **kw):
        tl = TimelineSampler(**kw)
        sim = build_simulation(SPEC)
        sim.attach(tl, every=500)
        sim.run()
        return tl

    def test_samples_rectangular_and_monotone(self):
        tl = self._run()
        assert len(tl.t) >= 2
        assert tl.t == sorted(tl.t)
        for name, col in tl.cols.items():
            assert len(col) == len(tl.t), name
        assert "bus_busy_ns" in tl.cols and "am_occupancy" in tl.cols

    def test_series_and_json(self):
        tl = self._run()
        series = tl.series()
        assert len(series) == len(tl.t) - 1
        for win in series:
            assert 0.0 <= win["bus_utilization"] <= 1.0
        doc = json.loads(json.dumps(tl.to_json()))
        assert doc["samples"] == len(tl.t)
        assert sorted(doc["columns"]) == sorted(tl.cols)

    def test_interval_thins_samples(self):
        dense = self._run()
        sparse = self._run(interval_ns=10 * (dense.t[-1] - dense.t[0]))
        assert len(sparse.t) < len(dense.t)

    def test_registry_columns(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        tl = TimelineSampler(registry=registry)
        sim = build_simulation(SPEC)
        sim.attach(registry)
        sim.attach(tl, every=500)
        sim.run()
        assert "bus_transactions{bus,read}" in tl.cols

    def test_perfetto_counter_events_validate(self):
        tl = self._run()
        events = tl.perfetto_events()
        assert validate_trace_events({"traceEvents": events}) == []
        assert any(e["ph"] == "C" and e["name"] == "bus_utilization"
                   for e in events)


class TestFlightDumpSpanStack:
    def test_open_span_stack_rides_the_flight_dump(self):
        from repro.obs.flight import FlightRecorder

        m = make_machine()
        fr = FlightRecorder(capacity=16)
        fr.wants_spans = True

        def rogue():
            yield ("u", 0)  # releases a lock it never acquired

        sim = Simulation(m, [rogue()], SyncSpace(m.space, 64, 1, 0))
        sim.attach(fr)
        # Leave an access open, as a mid-access crash would.
        m.obs.begin(100, 2, "w", 0x9, addr=0x240)
        m.obs.phase("bus_arb", 140)
        with pytest.raises(SimulationError) as err:
            sim.run()
        dump = err.value.flight_dump
        assert "open span stack" in dump
        assert "P2 w line 0x9" in dump
        assert "bus_arb" in dump

    def test_builder_stack_text_empty_when_idle(self):
        b = SpanBuilder(CollectorSink())
        assert b.open_stack_text() == ""


class TestAttributeCli:
    def test_attribute_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "att.json"
        rc = main(["attribute", "synth_migratory", "--scale", "0.05",
                   "--format", "json", "--top-spans", "2",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["conservation_errors"] == []
        assert report["accesses"] > 0
        assert len(report["top_spans"]) == 2
        assert report["stall_accounting"]

    def test_trace_spans_timeline_perfetto(self, tmp_path):
        from repro.cli import main

        chrome = tmp_path / "t.json"
        tl = tmp_path / "tl.json"
        rc = main(["trace", "synth_migratory", "--scale", "0.05",
                   "--chrome", str(chrome), "--spans",
                   "--timeline", str(tl)])
        assert rc == 0
        doc = json.loads(chrome.read_text())
        assert validate_trace_events(doc) == []
        evs = doc["traceEvents"]
        assert any(e.get("cat") == "span" for e in evs)
        assert any(e["ph"] == "C" for e in evs)
        assert json.loads(tl.read_text())["samples"] >= 2

    def test_explain_slowest_narrates_span_trees(self, capsys):
        from repro.cli import main

        rc = main(["explain", "synth_migratory", "--scale", "0.05",
                   "--slowest", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slowest access(es)" in out
        assert "trace " in out
