"""Pre-bound service-level metric families (``serve_*``).

The same :class:`~repro.obs.metrics.MetricsRegistry` the simulation core
instruments is reused for the serving layer, so one ``/metrics`` scrape
covers both worlds: simulated quantities (``coma_*``, ``bus_*``,
``sim_*``), experiment-layer cache traffic (``experiments_*`` — the
service routes the runner's tally in via ``set_experiment_metrics``) and
the request-path families declared here.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


class ServiceInstruments:
    """Request-path families, bound once at service construction."""

    __slots__ = (
        "registry", "requests", "latency", "queue_depth", "dedup",
        "rejected", "inflight_keys", "sse_events", "history_records",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.requests = registry.counter(
            "serve_requests", "requests by route and response status",
            labels=("route", "status"),
        )
        self.latency = registry.histogram(
            "serve_request_latency_us",
            "wall-clock microseconds from admission to response, by route",
            labels=("route",),
        )
        self.queue_depth = registry.gauge(
            "serve_queue_depth",
            "admitted requests currently in flight, by tenant",
            labels=("tenant",),
        )
        self.dedup = registry.counter(
            "serve_dedup",
            "single-flight outcomes: leaders simulate, coalesced wait",
            labels=("outcome",),
        )
        self.rejected = registry.counter(
            "serve_rejected", "requests rejected at admission, by reason",
            labels=("reason",),
        )
        self.inflight_keys = registry.gauge(
            "serve_singleflight_inflight",
            "distinct RunSpec keys currently being computed",
        )
        self.sse_events = registry.counter(
            "serve_sse_events", "server-sent events emitted, by type",
            labels=("event",),
        )
        self.history_records = registry.counter(
            "serve_history_records",
            "runs recorded into the history archive, by outcome",
            labels=("outcome",),
        )
