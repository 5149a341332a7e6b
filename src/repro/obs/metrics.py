"""Typed metrics registry: counters, gauges and log2-bucket histograms.

Where the event tracing of :mod:`repro.obs.sink` records *what* happened
event by event, this module aggregates *how much and how fast* into
labeled time-series families — the paper's quantitative spine (RNMr,
traffic splits, stall breakdowns) exported as first-class metrics rather
than one-off report text.

Design rules, in order of importance:

* **One channel, zero overhead when disabled.**  A registry attached to
  a simulation installs a :class:`MetricsSink` in the same ``obs`` slot
  every trace sink uses, so a run with nothing attached pays one ``if``
  per emission site and allocates no registry, family or sample.  The
  sink overrides the typed entry points and updates pre-bound children
  directly; it never builds an event object.
* **Deterministic.**  This module is part of the deterministic core (the
  DET lint rules apply): metric values are simulated quantities —
  nanoseconds, event counts, bytes — never the wall clock.  Wall-time
  series (per-phase seconds, sweep ETA) are recorded by the unrestricted
  caller (``repro.experiments``) into the same registry.
  :meth:`MetricsRegistry.snapshot` is sorted at every level, so two runs
  of one RunSpec+seed snapshot byte-identically.
* **Fixed log2 buckets.**  Histograms bucket by power of two
  (``le = 1, 2, 4, ... 2^(n-1), +Inf``): constant-time ``bit_length``
  indexing on the hot path, and bucket boundaries that never depend on
  the data, so histograms from different runs are always mergeable.

Exporters live in :mod:`repro.obs.openmetrics` (OpenMetrics text, JSON
snapshots) and the CLI surface is ``coma-sim metrics``.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence, Union

from repro.obs.sink import TraceSink

Number = Union[int, float]

#: Default histogram size: boundaries 2^0 .. 2^(N-2), plus +Inf — wide
#: enough for nanosecond latencies up to ~17 simulated minutes.
DEFAULT_LOG2_BUCKETS = 32

_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Counter family names must carry this suffix in the exposition format;
#: the registry stores the base name and exporters append it.
COUNTER_SUFFIX = "_total"


class Counter:
    """A monotonically increasing integer/float sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A sample that can go up and down (utilization, sizes, ratios)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed log2-bucket histogram of non-negative integer observations.

    Bucket ``i`` (of ``n``) counts observations with ``value <= 2**i``
    for ``i < n-1``; the last bucket is ``+Inf``.  ``observe`` is O(1)
    via ``int.bit_length``.  Float observations are truncated toward
    zero first — callers observing seconds should scale to an integer
    unit (microseconds) before observing.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int = DEFAULT_LOG2_BUCKETS) -> None:
        self.counts = [0] * n_buckets
        self.sum: Number = 0
        self.count = 0

    def observe(self, value: Number) -> None:
        v = int(value)
        if v <= 1:
            idx = 0
        else:
            idx = (v - 1).bit_length()
            last = len(self.counts) - 1
            if idx > last:
                idx = last
        self.counts[idx] += 1
        self.sum += value
        self.count += 1

    def bucket_bounds(self) -> list[Number]:
        """Upper bounds per bucket; the last is ``float('inf')``."""
        bounds: list[Number] = [1 << i for i in range(len(self.counts) - 1)]
        bounds.append(float("inf"))
        return bounds

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket (the OpenMetrics ``le`` view)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric family: a set of children keyed by label values.

    Children are created on first use and cached; hot paths should bind
    them once (``child = fam.labels("am")``) and call ``inc``/``observe``
    on the bound child.  A family declared with no labels delegates
    ``inc``/``set``/``observe`` straight to its single child.
    """

    __slots__ = ("name", "type", "help", "label_names", "_children", "_hist_buckets")

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str,
        label_names: Sequence[str] = (),
        hist_buckets: int = DEFAULT_LOG2_BUCKETS,
    ) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], object] = {}
        self._hist_buckets = hist_buckets

    def labels(self, *values: object):
        """The child for one label-value combination (created on demand)."""
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label value(s) "
                f"{self.label_names}, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            cls = _METRIC_TYPES[self.type]
            child = cls(self._hist_buckets) if cls is Histogram else cls()
            self._children[key] = child
        return child

    # -- no-label conveniences ------------------------------------------

    def inc(self, amount: Number = 1) -> None:
        self.labels().inc(amount)

    def set(self, value: Number) -> None:
        self.labels().set(value)

    def observe(self, value: Number) -> None:
        self.labels().observe(value)

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """(label values, child) pairs in sorted label order."""
        return sorted(self._children.items())


class MetricsRegistry:
    """A process-local collection of metric families.

    Attach to a simulation with :meth:`repro.sim.simulator.Simulation.attach`
    (the one observer path shared with trace sinks and profilers): the
    registry attaches a :class:`MetricsSink` that fills it from the
    run's events.
    """

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}

    # -- declaration ----------------------------------------------------

    def _declare(
        self,
        name: str,
        type_: str,
        help_: str,
        labels: Sequence[str],
        hist_buckets: int = DEFAULT_LOG2_BUCKETS,
    ) -> Family:
        if not _NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if type_ == "counter" and name.endswith(COUNTER_SUFFIX):
            raise ValueError(
                f"{name}: declare counters without the {COUNTER_SUFFIX!r} "
                "suffix; exporters append it"
            )
        for ln in labels:
            if not _NAME.match(ln):
                raise ValueError(f"invalid label name {ln!r}")
        existing = self._families.get(name)
        if existing is not None:
            if existing.type != type_ or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} re-declared with a different "
                    f"type/label set ({existing.type}{existing.label_names} "
                    f"vs {type_}{tuple(labels)})"
                )
            return existing
        fam = Family(name, type_, help_, labels, hist_buckets)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help_: str, labels: Sequence[str] = ()) -> Family:
        return self._declare(name, "counter", help_, labels)

    def gauge(self, name: str, help_: str, labels: Sequence[str] = ()) -> Family:
        return self._declare(name, "gauge", help_, labels)

    def histogram(
        self,
        name: str,
        help_: str,
        labels: Sequence[str] = (),
        n_buckets: int = DEFAULT_LOG2_BUCKETS,
    ) -> Family:
        return self._declare(name, "histogram", help_, labels, n_buckets)

    # -- access ---------------------------------------------------------

    def families(self) -> Iterable[Family]:
        """Families in sorted name order (deterministic exports)."""
        for name in sorted(self._families):
            yield self._families[name]

    def get(self, name: str) -> Optional[Family]:
        return self._families.get(name)

    def snapshot(self) -> dict:
        """A plain-dict view of every family, sorted at every level.

        Counters/gauges serialize to their value; histograms to
        ``{"buckets": {le: cumulative}, "sum": s, "count": n}`` with only
        non-empty buckets included (fixed boundaries make omission
        lossless).  The label key is the values joined with commas.
        """
        out: dict[str, dict] = {}
        for fam in self.families():
            series: dict[str, object] = {}
            for key, child in fam.samples():
                label = ",".join(key)
                if fam.type == "histogram":
                    bounds = child.bucket_bounds()
                    cum = child.cumulative()
                    buckets = {
                        ("+Inf" if b == float("inf") else str(b)): c
                        for b, c, raw in zip(bounds, cum, child.counts)
                        if raw
                    }
                    series[label] = {
                        "buckets": buckets,
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    series[label] = child.value
            out[fam.name] = {
                "type": fam.type,
                "help": fam.help,
                "labels": list(fam.label_names),
                "series": series,
            }
        return out

    # -- observer attach path -------------------------------------------

    def attach_to(self, sim, every: Optional[int] = None) -> None:
        """Called by ``Simulation.attach(registry)``: attach a
        :class:`MetricsSink` filling this registry.  ``every`` is
        accepted for interface symmetry and ignored (metrics are not
        sampled)."""
        sim.attach(MetricsSink(self))


# ----------------------------------------------------------------------
# the simulation's metrics, derived from its events
# ----------------------------------------------------------------------


class MetricsSink(TraceSink):
    """Fill the ``coma_*``, ``bus_*`` and ``sim_*`` families from events.

    ==========================  ========================================
    family                      derived from
    ==========================  ========================================
    ``coma_access_latency_ns``  ``access`` (by op and level)
    ``coma_node_hits``          ``access``: reads satisfied at ``am``
                                level, on the processor's node
    ``coma_node_misses``        ``access``: ``remote`` accesses, on the
                                processor's node
    ``coma_relocations``        ``replacement`` (by outcome)
    ``coma_relocation_hops``    ``replacement`` (forced-cascade depth)
    ``bus_transactions``        ``bus`` (by bus and traffic class)
    ``bus_bytes``               ``bus`` (by bus and traffic class)
    ``bus_wait_ns``             ``bus_phase`` (arbitration wait)
    ``bus_busy_ns``             ``bus_phase`` (occupancy)
    ``sim_sync_wait_ns``        ``sync`` (by primitive)
    ``sim_events_processed``    ``run_end``
    ``sim_elapsed_ns``          ``run_end``
    ``coma_events``             ``run_end``: the machine's end-of-run
                                counters, one series per counter
    ==========================  ========================================
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.latency = registry.histogram(
            "coma_access_latency_ns",
            "end-to-end access latency by operation and satisfying level",
            labels=("op", "level"),
        )
        self.node_hits_family = registry.counter(
            "coma_node_hits", "node-level (AM/overflow/neighbour-SLC) hits",
            labels=("node",),
        )
        self.node_misses_family = registry.counter(
            "coma_node_misses", "node misses (remote data fetches)",
            labels=("node",),
        )
        self.relocations = registry.counter(
            "coma_relocations", "owner-line relocations by outcome",
            labels=("outcome",),
        )
        self.relocation_hops = registry.histogram(
            "coma_relocation_hops", "forced-cascade depth per relocation",
            n_buckets=8,
        )
        self.events = registry.counter(
            "coma_events", "end-of-run machine event counters",
            labels=("event",),
        )
        self.transactions = registry.counter(
            "bus_transactions", "metered transactions by bus and class",
            labels=("bus", "cls"),
        )
        self.bytes = registry.counter(
            "bus_bytes", "metered traffic bytes by bus and class",
            labels=("bus", "cls"),
        )
        self.busy_family = registry.counter(
            "bus_busy_ns", "cumulative bus occupancy", labels=("bus",),
        )
        self.wait_family = registry.histogram(
            "bus_wait_ns", "arbitration wait per bus phase", labels=("bus",),
        )
        self.sim_events = registry.gauge(
            "sim_events_processed", "workload events the kernel dispatched")
        self.elapsed = registry.gauge(
            "sim_elapsed_ns", "simulated nanoseconds at completion")
        self.sync_wait = registry.histogram(
            "sim_sync_wait_ns", "time blocked per completed sync wait",
            labels=("primitive",),
        )
        #: Pre-bound children: per node and bus by :meth:`bind`, per
        #: label on first use otherwise.
        self._node_of: list[int] = []
        self._hits: list = []
        self._misses: list = []
        self._busy: dict[str, Counter] = {}
        self._wait: dict[str, Histogram] = {}
        #: op -> level -> its latency child.
        self._latency: dict[str, dict[str, Histogram]] = {}
        self._bus: dict[tuple[str, str], tuple[Counter, Counter]] = {}
        self._reloc: dict[str, tuple[Counter, Histogram]] = {}
        self._sync: dict[str, Histogram] = {}

    def bind(self, machine) -> None:
        """Pre-bind one hit/miss child per node and one wait/busy child
        per bus, so every node and bus exports a series."""
        config = machine.config
        self._node_of = [config.node_of_proc(p)
                         for p in range(config.n_processors)]
        self._hits = [self.node_hits_family.labels(i)
                      for i in range(config.n_nodes)]
        self._misses = [self.node_misses_family.labels(i)
                        for i in range(config.n_nodes)]
        for bus in machine.buses:
            self._busy[bus.name] = self.busy_family.labels(bus.name)
            self._wait[bus.name] = self.wait_family.labels(bus.name)

    # -- typed entry points ---------------------------------------------

    def access(self, t, proc, op, line, level, latency_ns, addr=-1):
        levels = self._latency.get(op)
        if levels is None:
            levels = self._latency[op] = {}
        hist = levels.get(level)
        if hist is None:
            hist = levels[level] = self.latency.labels(op, level)
        hist.observe(latency_ns)
        if level == "remote":
            self._misses[self._node_of[proc]].inc()
        elif level == "am" and op == "r":
            self._hits[self._node_of[proc]].inc()

    def replacement(self, t, src, dst, line, outcome, hops):
        pair = self._reloc.get(outcome)
        if pair is None:
            pair = self._reloc[outcome] = (
                self.relocations.labels(outcome),
                self.relocation_hops.labels(),
            )
        pair[0].inc()
        pair[1].observe(hops)

    def bus(self, t, bus, tx, cls, nbytes, origin, line):
        pair = self._bus.get((bus, cls))
        if pair is None:
            pair = self._bus[(bus, cls)] = (
                self.transactions.labels(bus, cls),
                self.bytes.labels(bus, cls),
            )
        pair[0].inc()
        pair[1].inc(nbytes)

    def bus_phase(self, bus, wait_ns, busy_ns):
        self._wait[bus].observe(wait_ns)
        self._busy[bus].inc(busy_ns)

    def sync(self, t, proc, primitive, obj, wait_ns):
        hist = self._sync.get(primitive)
        if hist is None:
            hist = self._sync[primitive] = self.sync_wait.labels(primitive)
        hist.observe(wait_ns)

    def run_end(self, t, events, machine):
        self.sim_events.set(events)
        self.elapsed.set(t)
        # Fold the end-of-run Counters into one labeled series each, so
        # exports cover every machine statistic without per-event cost.
        for name, value in machine.counters.as_dict().items():
            if value:
                self.events.labels(name).inc(value)


class ExperimentInstruments:
    """Pre-bound experiment-layer children (``experiments_*`` families).

    Unlike the bundles above, the values these record come from the wall
    clock — observed by the unrestricted :mod:`repro.experiments` layer
    (in integer microseconds) and merely stored here.
    """

    __slots__ = ("cache_requests", "run_wall", "worker_wall")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.cache_requests = registry.counter(
            "experiments_cache_requests",
            "run_spec() requests by how the cache satisfied them",
            labels=("outcome",),
        )
        self.run_wall = registry.histogram(
            "experiments_run_wall_us",
            "wall-clock microseconds per simulated (cache-miss) run",
        )
        self.worker_wall = registry.histogram(
            "experiments_worker_wall_us",
            "wall-clock microseconds per parallel sweep task",
        )
