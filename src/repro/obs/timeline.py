"""Metric timelines over *simulated* time.

The metrics registry (PR 5) aggregates whole-run totals; the figures in
the paper, though, hinge on *when* the cycles go — transpose bursts,
permutation storms, the widening bus queues as memory pressure rises.
:class:`TimelineSampler` closes that gap: it rides the simulation
kernel's profiler hook (``Simulation.attach(sampler, every=N)``) and
snapshots machine state into a **columnar series** keyed by simulated
time — cheap, mergeable, and exportable three ways:

* :meth:`TimelineSampler.to_json` — the columnar series plus derived
  per-window rates (bus utilization, miss rate, bandwidth);
* Perfetto counter tracks (:meth:`TimelineSampler.perfetto_events`) that
  drop into the existing Chrome trace next to the span flows;
* through ``coma-sim attribute``/``coma-sim trace --timeline`` on the
  CLI.

Several profilers attached to one simulation are teed by
``Simulation.attach`` with the same composite that tees trace sinks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.coma.machine import ComaMachine
    from repro.obs.metrics import MetricsRegistry


class TimelineSampler:
    """Columnar snapshots of machine/registry state over simulated time.

    Each accepted sample appends one value to every column, so the series
    stays rectangular; ``interval_ns`` thins the event-count cadence of
    the profiler hook down to a simulated-time cadence (0 keeps every
    hook call).  Probed machine columns:

    ``bus_busy_ns``      cumulative top-bus occupancy
    ``bus_bytes``        cumulative top-bus traffic
    ``accesses``         reads + writes + atomics issued
    ``node_misses``      node-level read + write misses
    ``am_lines``         lines resident across all attraction memories
    ``am_occupancy``     the same as a fraction of total AM capacity
    ``overflow_lines``   lines parked in victim overflow buffers

    With a ``registry``, every counter/gauge family child becomes an
    extra column (``<family>{<labels>}``; histograms contribute their
    ``_count``), which is what "snapshot the metrics registry over
    simulated time" means operationally.
    """

    def __init__(self, interval_ns: int = 0,
                 registry: Optional["MetricsRegistry"] = None) -> None:
        self.interval_ns = interval_ns
        self.registry = registry
        self.t: list[int] = []
        self.cols: dict[str, list] = {}

    # -- sampling -------------------------------------------------------

    def sample(self, machine: "ComaMachine") -> None:
        now = machine.now
        if self.t:
            if now <= self.t[-1]:
                return  # event-count hooks can revisit a wakeup time
            if self.interval_ns and now - self.t[-1] < self.interval_ns:
                return
        row = self._probe(machine)
        if self.registry is not None:
            self._probe_registry(row)
        self.t.append(now)
        cols = self.cols
        for name, value in row.items():
            col = cols.get(name)
            if col is None:
                # Late-appearing column (registry child created after the
                # first sample): backfill zeros to keep the series square.
                col = cols[name] = [0] * (len(self.t) - 1)
            col.append(value)
        for name, col in cols.items():
            if len(col) < len(self.t):
                col.append(0)

    def _probe(self, machine) -> dict:
        c = machine.counters
        bus = machine.bus
        row = {
            "bus_busy_ns": bus.resource.busy_ns,
            "bus_bytes": bus.total_bytes,
            "accesses": c.reads + c.writes + c.atomics,
            "node_misses": c.node_read_misses + c.node_write_misses,
        }
        nodes = getattr(machine, "nodes", None)
        if nodes:
            lines = sum(n.am.occupancy for n in nodes)
            capacity = sum(n.am.num_sets * n.am.assoc for n in nodes)
            row["am_lines"] = lines
            row["am_occupancy"] = round(lines / capacity, 6) if capacity else 0.0
            row["overflow_lines"] = sum(len(n.overflow) for n in nodes)
        return row

    def _probe_registry(self, row: dict) -> None:
        for fam in self.registry.families():
            for key, child in fam.samples():
                label = ",".join(key)
                name = f"{fam.name}{{{label}}}" if label else fam.name
                if fam.type == "histogram":
                    row[name + "_count"] = child.count
                else:
                    row[name] = child.value

    # -- derived series -------------------------------------------------

    def series(self) -> list[dict]:
        """Per-window rates between adjacent samples.

        Cumulative columns difference into rates: bus utilization is
        Δbusy/Δt, miss rate is Δmisses/Δaccesses, bandwidth is
        Δbytes/Δt.  Instantaneous columns (AM occupancy) report the
        window-end value.
        """
        out = []
        t, cols = self.t, self.cols
        for i in range(1, len(t)):
            dt = t[i] - t[i - 1]
            d_acc = cols["accesses"][i] - cols["accesses"][i - 1]
            d_miss = cols["node_misses"][i] - cols["node_misses"][i - 1]
            win = {
                "start_ns": t[i - 1],
                "end_ns": t[i],
                "bus_utilization": round(
                    (cols["bus_busy_ns"][i] - cols["bus_busy_ns"][i - 1]) / dt, 6
                ),
                "bandwidth_bytes_per_us": round(
                    1000.0 * (cols["bus_bytes"][i] - cols["bus_bytes"][i - 1]) / dt, 3
                ),
                "miss_rate": round(d_miss / d_acc, 6) if d_acc else 0.0,
            }
            if "am_occupancy" in cols:
                win["am_occupancy"] = cols["am_occupancy"][i]
            out.append(win)
        return out

    # -- exports --------------------------------------------------------

    def to_json(self) -> dict:
        """The full timeline as a JSON-ready dict (columnar + windows)."""
        return {
            "interval_ns": self.interval_ns,
            "samples": len(self.t),
            "t_ns": list(self.t),
            "columns": {k: list(v) for k, v in sorted(self.cols.items())},
            "series": self.series(),
        }

    def perfetto_events(self) -> list[dict]:
        """Chrome trace-event counter tracks (``ph: "C"``).

        Rate columns render per window (utilization/miss-rate as derived
        above); occupancy renders per sample.  Append the result to a
        :class:`~repro.obs.chrometrace.ChromeTraceSink`'s events (the
        CLI's ``--timeline`` flag does) and Perfetto draws the counters
        under the span/flow tracks.
        """
        from repro.obs.chrometrace import PID_TIMELINE, _us

        events = [{
            "ph": "M", "pid": PID_TIMELINE, "tid": 0,
            "name": "process_name", "args": {"name": "timeline"},
        }]
        for win in self.series():
            ts = _us(win["start_ns"])
            for key in ("bus_utilization", "miss_rate",
                        "bandwidth_bytes_per_us"):
                events.append({
                    "ph": "C", "pid": PID_TIMELINE, "tid": 0, "ts": ts,
                    "name": key, "args": {"value": win[key]},
                })
        if "am_occupancy" in self.cols:
            for t, v in zip(self.t, self.cols["am_occupancy"]):
                events.append({
                    "ph": "C", "pid": PID_TIMELINE, "tid": 0, "ts": _us(t),
                    "name": "am_occupancy", "args": {"value": v},
                })
        return events


def format_timeline_series(sampler: TimelineSampler, width: int = 40) -> str:
    """ASCII strip chart of bus utilization over simulated time."""
    series = sampler.series()
    if not series:
        return "timeline: fewer than two samples"
    out = ["bus utilization over simulated time "
           "(one row per sample window):"]
    for win in series:
        n = int(round(width * min(win["bus_utilization"], 1.0)))
        extra = (f"  occ={win['am_occupancy']:.3f}"
                 if "am_occupancy" in win else "")
        out.append(
            f"  {win['start_ns'] / 1e6:8.3f}-{win['end_ns'] / 1e6:8.3f} ms "
            f"util={win['bus_utilization']:5.3f} "
            f"miss={win['miss_rate']:5.3f}{extra} |{'#' * n}"
        )
    return "\n".join(out)
