"""Chrome trace-event exporter (Perfetto / chrome://tracing).

Produces the JSON object format of the Trace Event spec: duration events
(``ph: "X"``) for memory accesses, sync waits and span-tree phases,
instant events (``ph: "i"``) for protocol transitions, bus transactions
and replacement steps, flow events (``ph: "s"``/``"t"``) that draw each
span tree as connected arrows, counter tracks (``ph: "C"``) for the
timeline sampler, and metadata events naming one track per processor,
per node and per bus.  Open the file directly in https://ui.perfetto.dev.

Simulated nanoseconds map to trace microseconds (the spec's unit), so a
148 ns AM access renders as 0.148 µs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.obs.sink import TraceSink, expand_tree

#: Synthetic process ids: one "process" per hardware layer.
PID_PROCESSORS = 1
PID_NODES = 2
PID_BUSES = 3
PID_SPANS = 4
PID_TIMELINE = 5


def _us(t_ns: int) -> float:
    return t_ns / 1000.0


class ChromeTraceSink(TraceSink):
    """Collect trace events in memory; write JSON on :meth:`close`."""

    #: Drawing span trees costs one slice + one flow event per span, so
    #: the machine only builds spans when a sink asks (see
    #: :class:`~repro.obs.sink.TraceSink`).  Off by default to keep the
    #: flat-event export byte-identical to pre-span versions; the CLI's
    #: ``--spans`` flag flips the instance attribute.
    wants_spans = False

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.trace_events: list[dict] = []
        self.count = 0
        self._bus_tids: dict[str, int] = {}
        self._seen_tids: set[tuple[int, int]] = set()
        self._span_pid_named = False

    # -- typed entry points --------------------------------------------

    def access(self, t, proc, op, line, level, latency_ns,
               addr: int = -1) -> None:
        self._add({
            "ph": "X", "pid": PID_PROCESSORS, "tid": proc,
            "ts": _us(t), "dur": _us(latency_ns),
            "name": f"{op} {level}", "cat": "access",
            "args": {"line": hex(line), "level": level, "lat_ns": latency_ns},
        })
        self._name_thread(PID_PROCESSORS, proc, f"P{proc}")

    def transition(self, t, node, line, cause, before, after) -> None:
        self._add({
            "ph": "i", "s": "t", "pid": PID_NODES, "tid": node,
            "ts": _us(t), "name": f"{before}->{after} {cause}",
            "cat": "protocol",
            "args": {"line": hex(line), "cause": cause,
                     "before": before, "after": after},
        })
        self._name_thread(PID_NODES, node, f"node {node}")

    def bus(self, t, bus, tx, cls, nbytes, origin, line) -> None:
        tid = self._bus_tids.setdefault(bus, len(self._bus_tids))
        args = {"class": cls, "bytes": nbytes, "origin": origin}
        if line >= 0:
            args["line"] = hex(line)
        self._add({
            "ph": "i", "s": "t", "pid": PID_BUSES, "tid": tid,
            "ts": _us(t), "name": tx, "cat": "bus", "args": args,
        })
        self._name_thread(PID_BUSES, tid, bus)

    def replacement(self, t, src, dst, line, outcome, hops) -> None:
        self._add({
            "ph": "i", "s": "t", "pid": PID_NODES, "tid": src,
            "ts": _us(t), "name": f"reloc {outcome}", "cat": "replacement",
            "args": {"line": hex(line), "dst": dst, "hops": hops},
        })
        self._name_thread(PID_NODES, src, f"node {src}")

    def sync(self, t, proc, primitive, obj, wait_ns) -> None:
        self._add({
            "ph": "X", "pid": PID_PROCESSORS, "tid": proc,
            "ts": _us(t - wait_ns), "dur": _us(wait_ns),
            "name": f"{primitive} {obj} wait", "cat": "sync",
            "args": {"obj": obj, "wait_ns": wait_ns},
        })
        self._name_thread(PID_PROCESSORS, proc, f"P{proc}")

    def span(self, t, dur_ns, trace_id, span_id, parent_id, name,
             proc, line, op, level, relocs: int = 0) -> None:
        root = parent_id == 0
        args = {"trace": trace_id, "span": span_id, "parent": parent_id,
                "line": hex(line), "dur_ns": dur_ns}
        if relocs:
            args["relocs"] = relocs
        self._add({
            "ph": "X", "pid": PID_SPANS, "tid": proc,
            "ts": _us(t), "dur": _us(dur_ns),
            "name": f"{op} -> {level}" if root else name,
            "cat": "span", "args": args,
        })
        # Flow arrows stitch the tree: the root starts flow ``trace_id``,
        # each phase is a step, so Perfetto draws root -> phase arrows.
        self._add({
            "ph": "s" if root else "t", "pid": PID_SPANS, "tid": proc,
            "ts": _us(t), "id": trace_id, "name": "access-flow",
            "cat": "span",
        })
        self._name_thread(PID_SPANS, proc, f"P{proc} spans")
        if not self._span_pid_named:
            self._span_pid_named = True
            self.trace_events.append({
                "ph": "M", "pid": PID_SPANS, "tid": 0,
                "name": "process_name", "args": {"name": "spans"},
            })

    #: A span tree is drawn span by span.
    tree = expand_tree

    # -- plumbing -------------------------------------------------------

    def _add(self, d: dict) -> None:
        self.trace_events.append(d)
        self.count += 1

    def _name_thread(self, pid: int, tid: int, name: str) -> None:
        if (pid, tid) in self._seen_tids:
            return
        self._seen_tids.add((pid, tid))
        self.trace_events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        })

    def _metadata(self) -> list[dict]:
        return [
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": name}}
            for pid, name in ((PID_PROCESSORS, "processors"),
                              (PID_NODES, "nodes"),
                              (PID_BUSES, "interconnect"))
        ]

    def to_json(self) -> str:
        obj = {
            "displayTimeUnit": "ns",
            "traceEvents": self._metadata() + self.trace_events,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def close(self) -> None:
        if self.path is not None:
            self.path.write_text(self.to_json() + "\n")


def validate_trace_events(obj: dict) -> list[str]:
    """Check an exported object against the trace-event JSON shape.

    Returns a list of problems (empty = valid).  Used by the test suite
    and cheap enough for CI smoke checks.
    """
    problems = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' array"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in e:
                problems.append(f"event {i}: missing required key {key!r}")
        ph = e.get("ph")
        if ph not in ("X", "i", "M", "B", "E", "C", "s", "t", "f"):
            problems.append(f"event {i}: unexpected phase {ph!r}")
        if ph in ("X", "i", "C", "s", "t", "f") and "ts" not in e:
            problems.append(f"event {i}: {ph!r} event needs 'ts'")
        if ph == "X" and "dur" not in e:
            problems.append(f"event {i}: duration event needs 'dur'")
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            problems.append(f"event {i}: instant event needs scope 's'")
        if ph in ("s", "t", "f") and "id" not in e:
            problems.append(f"event {i}: flow event needs 'id'")
    return problems
