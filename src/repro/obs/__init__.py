"""repro.obs — structured event tracing, samplers, flight recorder and
provenance.

The simulator's end-of-run aggregates (:class:`repro.timing.accounting.Counters`,
:class:`repro.sim.results.SimulationResult`) say *how much* happened; this
package records *what* happened, event by event or sample by sample, so
every figure is explainable.  Everything here enters a run through
``Simulation.attach``:

* :mod:`repro.obs.events`      — the typed event taxonomy;
* :mod:`repro.obs.sink`        — the :class:`TraceSink` receiver interface:
  the one observation channel (machines, buses and the kernel emit
  through one ``obs`` slot; ``None`` costs one ``if`` per site);
* :mod:`repro.obs.flight`      — bounded ring-buffer flight recorder,
  dumped automatically when a simulation dies;
* :mod:`repro.obs.jsonl`       — deterministic JSON-lines writer/reader;
* :mod:`repro.obs.chrometrace` — Chrome trace-event exporter (open the
  file in Perfetto: one track per processor, node and bus);
* :mod:`repro.obs.biography`   — per-line history index behind
  ``coma-sim explain --line``;
* :mod:`repro.obs.manifest`    — run-manifest sidecars tying every cached
  result to the RunSpec, seed, code version and git revision it came from;
* :mod:`repro.obs.metrics`     — typed metrics registry (counters, gauges,
  log2-bucket histograms, labeled families), filled from the event
  stream by :class:`MetricsSink`;
* :mod:`repro.obs.openmetrics` — OpenMetrics/Prometheus text and JSON
  snapshot exporters for the registry (behind ``coma-sim metrics``),
  with exemplar support linking latency buckets to span trace ids;
* :mod:`repro.obs.spans`       — causal span trees per memory access and
  the :class:`StallAttribution` latency-attribution aggregator (behind
  ``coma-sim attribute``);
* :mod:`repro.obs.history`     — persistent sqlite-backed run
  archive (``coma-sim history``), one row per completed RunSpec with
  counters, attribution totals and provenance;
* :mod:`repro.obs.diff`        — differential attribution between
  archived runs (``coma-sim diff``): counter ratios, phase-delta
  breakdowns naming the responsible phase, histogram shifts; and
  between two end-to-end benchmark payloads, naming the host-time
  layer and observer whose ns/event moved most;
* :mod:`repro.obs.timeline`    — :class:`TimelineSampler` columnar
  metric series over simulated time (JSON / Perfetto counter tracks);
* :mod:`repro.obs.profiler`    — :class:`SharingProfiler` replication
  degree, owner migrations and AM composition (``coma-sim profile``).

This package is part of the deterministic core (see the DET lint rules):
it never reads the wall clock — timestamps are simulated nanoseconds, and
provenance timestamps are passed in by the (unrestricted) callers.
"""

from repro.obs.biography import LineBiography
from repro.obs.chrometrace import ChromeTraceSink
from repro.obs.events import (
    BusTx,
    MemAccess,
    Replacement,
    SpanEvent,
    SyncOp,
    SyncStall,
    Transition,
    format_event,
)
from repro.obs.diff import diff_runs, diff_sweeps, format_diff
from repro.obs.flight import FlightRecorder
from repro.obs.history import HistoryArchive, default_history_path
from repro.obs.jsonl import JsonlTraceSink, read_trace
from repro.obs.manifest import RunManifest, git_revision, provenance_header
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
)
from repro.obs.openmetrics import parse_openmetrics, to_openmetrics
from repro.obs.profiler import SharingProfiler, format_profile
from repro.obs.sink import CollectorSink, TeeSink, TraceSink
from repro.obs.spans import (
    SpanBuilder,
    StallAttribution,
    format_attribution,
    format_span_tree,
)
from repro.obs.timeline import TimelineSampler

__all__ = [
    "BusTx",
    "ChromeTraceSink",
    "CollectorSink",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistoryArchive",
    "JsonlTraceSink",
    "LineBiography",
    "MemAccess",
    "MetricsRegistry",
    "MetricsSink",
    "Replacement",
    "RunManifest",
    "SharingProfiler",
    "SpanBuilder",
    "SpanEvent",
    "StallAttribution",
    "SyncOp",
    "SyncStall",
    "TeeSink",
    "TimelineSampler",
    "TraceSink",
    "Transition",
    "default_history_path",
    "diff_runs",
    "diff_sweeps",
    "format_attribution",
    "format_diff",
    "format_event",
    "format_profile",
    "format_span_tree",
    "git_revision",
    "parse_openmetrics",
    "provenance_header",
    "read_trace",
    "to_openmetrics",
]
