"""Host-time layer tracer for the end-to-end benchmark.

:class:`HostTracer` wraps the public entry points of each simulator layer
at class (or module) level and accumulates, per layer, the exact host
time spent in it minus the time of the wrapped calls it made (its *self*
time).  The layers are this repository's modules:

================  ===========================================================
layer             wrapped calls
================  ===========================================================
experiments       ``runner.run_spec``, ``runner.build_simulation``
sim               ``Simulation.run`` (what remains of the event loop)
workloads         ``next()`` on every thread generator
cpu               ``WriteBuffer.try_coalesce/wait_for_slot/push/drain``
coma              ``ComaMachine.read/write/rmw/write_stalling``
coma.replacement  ``ReplacementEngine.make_room/relocate_owner``
bus               ``SharedBus.phase/record/arb_start``
================  ===========================================================

The caches and ``timing`` are inlined into ``coma``'s hot path, so their
time lands in ``coma``.  Wrapping happens on the classes before any
simulation is built, so it stays correct if a later change pre-binds
methods in ``__init__``.  :meth:`HostTracer.install` patches those classes
for the rest of the process: install it only in a process of its own.

Every wrapped call is also a span (name, start, end, parent).  At most
``max_spans`` are kept: root spans always, the others when their call
index is a multiple of a stride that doubles whenever the buffer fills,
so the sample is deterministic for a given run.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from pathlib import Path

LAYERS = ("experiments", "sim", "workloads", "cpu", "coma", "coma.replacement", "bus")

#: (layer, class path, method names) wrapped by :meth:`HostTracer.install`.
CLASS_CALLS = (
    ("sim", "repro.sim.simulator.Simulation", ("run",)),
    ("cpu", "repro.cpu.writebuffer.WriteBuffer",
     ("try_coalesce", "wait_for_slot", "push", "drain")),
    ("coma", "repro.coma.machine.ComaMachine",
     ("read", "write", "rmw", "write_stalling")),
    ("coma.replacement", "repro.coma.replacement.ReplacementEngine",
     ("make_room", "relocate_owner")),
    ("bus", "repro.bus.sharedbus.SharedBus", ("phase", "record", "arb_start")),
)


def _import(path: str):
    module, _, name = path.rpartition(".")
    return getattr(__import__(module, fromlist=[name]), name)


class _TracedThread:
    """A workload thread whose ``next()`` is timed as the workloads layer."""

    __slots__ = ("_next",)

    def __init__(self, next_fn) -> None:
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class HostTracer:
    """Exact per-layer self time plus a bounded, sampled span buffer."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        #: Per span name (indexed by name id): calls, self ns, total ns.
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        #: Summed duration of root spans: the time the shares divide.
        self.root_ns = [0]
        #: (name id, start ns, end ns, call index, parent call index or -1)
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.stride = [1]
        self._stack: list[list[int]] = []
        self._counter = itertools.count()

    # -- wrapping ------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        li = LAYERS.index(layer)
        for ni, (n, lj) in enumerate(zip(self.names, self.name_layer)):
            if n == name and lj == li:
                return ni
        self.names.append(name)
        self.name_layer.append(li)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        return len(self.names) - 1

    def wrap(self, layer: str, name: str, fn):
        """``fn`` timed as one span named ``name`` in ``layer``."""
        ni = self._name_id(layer, name)
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        root_ns, spans, stride, counter = self.root_ns, self.spans, self.stride, self._counter
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = next(counter)
            frame = [0, idx]  # [child ns, call index]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[ni] += 1
                self_ns[ni] += dur - frame[0]
                total_ns[ni] += dur
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    if idx % stride[0] == 0:
                        spans.append((ni, t0, t1, idx, parent[1]))
                        if len(spans) >= self.max_spans:
                            self._thin()
                else:
                    root_ns[0] += dur
                    spans.append((ni, t0, t1, idx, -1))

        return traced

    def _thin(self) -> None:
        self.stride[0] *= 2
        s = self.stride[0]
        self.spans[:] = [sp for sp in self.spans if sp[4] < 0 or sp[3] % s == 0]

    def _thread_factory(self, thread):
        wrap = self.wrap

        def traced_thread(wl, tid):
            return _TracedThread(wrap("workloads", "next", thread(wl, tid).__next__))

        return traced_thread

    def install(self) -> None:
        """Patch every layer's entry points (for the rest of the process)."""
        import repro.workloads  # noqa: F401  (registers every workload class)
        from repro.experiments import runner
        from repro.workloads.base import Workload

        runner.run_spec = self.wrap("experiments", "run_spec", runner.run_spec)
        runner.build_simulation = self.wrap(
            "experiments", "build_simulation", runner.build_simulation)
        for layer, path, methods in CLASS_CALLS:
            cls = _import(path)
            for m in methods:
                setattr(cls, m, self.wrap(layer, m, getattr(cls, m)))
        todo = [Workload]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "thread" in cls.__dict__:
                cls.thread = self._thread_factory(cls.__dict__["thread"])

    # -- results -------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``share`` of root time, ``calls`` and
        self ``ns_per_call``."""
        total = self.root_ns[0]
        out = {}
        for li, layer in enumerate(LAYERS):
            mine = [ni for ni, lj in enumerate(self.name_layer) if lj == li]
            ns = sum(self.self_ns[ni] for ni in mine)
            n = sum(self.calls[ni] for ni in mine)
            out[layer] = {
                "self_s": ns / 1e9,
                "share": ns / total if total else 0.0,
                "calls": n,
                "ns_per_call": ns / n if n else 0.0,
            }
        return out

    def call(self, layer: str, name: str) -> dict[str, float]:
        """Exact totals for one wrapped call: ``calls``, ``self_s`` and
        ``total_s`` (self plus the wrapped calls it made)."""
        ni = self._name_id(layer, name)
        return {"calls": self.calls[ni], "self_s": self.self_ns[ni] / 1e9,
                "total_s": self.total_ns[ni] / 1e9}

    def write(self, out_dir: Path, meta: dict) -> tuple[Path, Path]:
        """Write ``layers.json`` (table + spans) and ``trace.json``
        (Chrome trace-event format, loadable in Perfetto)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        base = min((sp[1] for sp in self.spans), default=0)
        layers_path = out_dir / "layers.json"
        layers_path.write_text(json.dumps({
            **meta,
            "layers": self.table(),
            "root_s": self.root_ns[0] / 1e9,
            "span_stride": self.stride[0],
            "span_fields": ["name", "layer", "start_ns", "end_ns", "id", "parent"],
            "spans": [
                [self.names[n], LAYERS[self.name_layer[n]], t0 - base, t1 - base, i, p]
                for n, t0, t1, i, p in self.spans
            ],
        }) + "\n")
        chrome_path = out_dir / "trace.json"
        chrome_path.write_text(json.dumps({
            "displayTimeUnit": "ns",
            "traceEvents": [
                {"name": self.names[n], "cat": LAYERS[self.name_layer[n]],
                 "ph": "X", "pid": 1, "tid": 1,
                 "ts": (t0 - base) / 1000, "dur": (t1 - t0) / 1000,
                 "args": {"id": i, "parent": p}}
                for n, t0, t1, i, p in self.spans
            ],
        }) + "\n")
        return layers_path, chrome_path
