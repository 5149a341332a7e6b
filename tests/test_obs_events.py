"""Event taxonomy: construction, serialization round-trips, sinks."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    BusTx,
    MemAccess,
    Replacement,
    SyncStall,
    Transition,
    format_event,
    record_to_event,
)
from repro.obs.sink import CollectorSink, EventSink, TeeSink, TraceSink

EXAMPLES = [
    MemAccess(100, 2, "r", 0x80, "am", 148),
    Transition(200, 3, 0x80, "upgrade", "S", "E"),
    BusTx(300, "bus", "READ_DATA", "read", 72, 1, 0x80),
    Replacement(400, 0, 2, 0x80, "to_invalid", 0),
    SyncStall(500, 1, "lock", 0, 1200),
]


class TestEvents:
    @pytest.mark.parametrize("ev", EXAMPLES, ids=lambda e: e.kind)
    def test_record_round_trip(self, ev):
        rec = ev.to_record()
        assert rec["ev"] == ev.kind
        assert record_to_event(rec) == ev

    @pytest.mark.parametrize("ev", EXAMPLES, ids=lambda e: e.kind)
    def test_records_are_json_safe(self, ev):
        assert all(
            isinstance(v, (int, str)) for v in ev.to_record().values()
        )

    def test_unknown_record_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event record"):
            record_to_event({"ev": "quantum"})

    def test_events_are_frozen(self):
        with pytest.raises(AttributeError):
            EXAMPLES[0].t = 0

    def test_format_access(self):
        line = format_event(EXAMPLES[0])
        assert "P2" in line and "0x80" in line and "am" in line

    def test_format_transition(self):
        line = format_event(EXAMPLES[1])
        assert "S->E" in line and "upgrade" in line

    def test_format_bus(self):
        line = format_event(EXAMPLES[2])
        assert "READ_DATA" in line and "72B" in line and "N1" in line

    def test_format_replacement(self):
        line = format_event(EXAMPLES[3])
        assert "to_invalid" in line and "N2" in line

    def test_format_sync(self):
        line = format_event(EXAMPLES[4])
        assert "lock" in line and "1200" in line


class TestSinks:
    def test_base_sink_ignores_every_call(self):
        sink = TraceSink()
        sink.bind(None)
        sink.access(0, 0, "r", 0, "l1", 1)
        sink.transition(0, 0, 0, "fill", "I", "S")
        sink.bus(0, "bus", "READ_DATA", "read", 72, 0, 0)
        sink.replacement(0, 0, 1, 0, "to_invalid", 0)
        sink.sync(0, 0, "lock", 0, 5)
        sink.syncop(0, 0, "acquire", "lock", 0)
        sink.span(0, 5, 1, 1, 0, "access", 0, 0, "r", "l1")
        sink.tree(0, 5, 1, 1, 0, 0, "r", "l1", 0, ["l1"], [0], [5])
        sink.bus_phase("bus", 0, 20)
        sink.begin(0, 0, "r", 0)
        sink.phase("l1", 5)
        sink.run_end(5, 1, None)
        sink.close()
        assert sink.on_simulation_error(RuntimeError("x")) is None
        assert not hasattr(sink, "emit")

    def test_event_sink_requires_emit(self):
        with pytest.raises(NotImplementedError):
            EventSink().access(0, 0, "r", 0, "l1", 1)

    def test_collector_typed_entry_points(self):
        c = CollectorSink()
        c.access(100, 2, "r", 0x80, "am", 148)
        c.transition(200, 3, 0x80, "upgrade", "S", "E")
        c.bus(300, "bus", "READ_DATA", "read", 72, 1, 0x80)
        c.replacement(400, 0, 2, 0x80, "to_invalid", 0)
        c.sync(500, 1, "lock", 0, 1200)
        assert [e.kind for e in c.events] == [
            "access", "transition", "bus", "replacement", "sync",
        ]
        assert c.of_kind("transition") == [EXAMPLES[1]]

    def test_tee_fans_out(self):
        a, b = CollectorSink(), CollectorSink()
        tee = TeeSink(a, b)
        tee.access(1, 0, "w", 5, "remote", 900)
        assert a.events == b.events and len(a.events) == 1

    def test_tee_close_closes_children(self):
        closed = []

        class Probe(CollectorSink):
            def close(self):
                closed.append(self)

        tee = TeeSink(Probe(), Probe())
        tee.close()
        assert len(closed) == 2


class TestObserversBuildNoEvents:
    """An observer that reads typed calls costs no event objects: only
    :class:`EventSink` builds them, and none of these derives from it."""

    def test_analysis_observers_build_no_event_objects(self, monkeypatch):
        import repro.obs.sink as sink_mod
        from repro.analysis.bounds import BoundsCertifier, envelope_for
        from repro.analysis.coverage import CoverageMap
        from repro.experiments.runner import RunSpec, build_simulation
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import StallAttribution

        built = []
        for name in ("MemAccess", "Transition", "BusTx", "Replacement",
                     "SyncStall", "SyncOp", "SpanEvent"):
            cls = getattr(sink_mod, name)

            def counting(*args, _cls=cls):
                built.append(_cls.__name__)
                return _cls(*args)

            monkeypatch.setattr(sink_mod, name, counting)
        spec = RunSpec(workload="synth_migratory", scale=0.05,
                       memory_pressure=0.875)
        sim = build_simulation(spec)
        cert = BoundsCertifier(envelope_for("coma",
                                            sim.machine.config.timing))
        att = StallAttribution(top_spans=0)
        cov = CoverageMap()
        for observer in (cert, att, MetricsRegistry(), cov):
            sim.attach(observer)
        sim.run()
        assert cert.checked > 0 and cert.ok()
        assert att.accesses > 0 and cov.exercised
        assert built == []
        CollectorSink().access(0, 0, "r", 0, "l1", 1)
        assert built == ["MemAccess"], "the counting wrappers are live"
