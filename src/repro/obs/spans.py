"""Causal span trees and simulated-time latency attribution.

The paper's core results are latency *decompositions*: execution time
split into busy / read-stall / write-stall / sync components, and the
remote-access cost split across bus arbitration, AM lookup and
inter-cluster transfer.  This module makes every simulated cycle of an
access attributable:

* :class:`SpanBuilder` — the observation slot (``machine.obs``) itself
  when an attached sink sets ``wants_spans``: a tee over the attached
  sinks that, in between forwarding their events, records *checkpoints*
  — monotone completion times along one access — and turns them into
  child spans when the access completes.  Because children are differences of a
  monotone cut sequence over ``[issue, completion]``, their durations
  sum to the access latency **by construction**: the conservation
  invariant costs nothing to maintain and is enforced by the test suite
  on every machine flavour.  Each sink receives a completed tree in one
  :meth:`~repro.obs.sink.TraceSink.tree` call.
* :class:`StallAttribution` — a :class:`~repro.obs.sink.TraceSink` that
  folds span trees into the paper-style breakdown per processor,
  per line and per workload phase (barrier episodes delimit phases),
  keeps log2 latency histograms per access class, and retains the full
  span trees of the N slowest accesses as tail exemplars.

Span ids are deterministic sequence numbers (same RunSpec + seed ⇒
byte-identical span streams); all times are simulated nanoseconds.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.common.hotpath import hotpath
from repro.obs.events import SpanEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import TeeSink, TraceSink, tree_events


class SpanBuilder(TeeSink):
    """The observation slot while span trees are on.

    A :class:`~repro.obs.sink.TeeSink` over every attached sink that
    also records one in-flight access's phase checkpoints: :meth:`begin`
    opens the root, :meth:`phase` cuts a phase, :meth:`access` (the
    access's completion event) forwards the flat event and then delivers
    the span tree, and :meth:`replacement` counts the background
    relocations the open access triggered.  An access the kernel
    retires on its fused path arrives as one :meth:`hit`, which delivers
    the same flat event and one-phase tree.  The machine's access entry
    points are strictly sequential (the event loop never interleaves two
    accesses of one machine), so one mutable builder per machine
    suffices.  Lists are reused across accesses — the per-access cost is
    appends plus one :meth:`~repro.obs.sink.TraceSink.tree` call per
    sink that reads trees.
    """

    __slots__ = ("_next_trace", "_next_span", "_open",
                 "t0", "cursor", "proc", "op", "line", "addr", "relocs",
                 "_names", "_starts", "_ends")

    def __init__(self, *sinks: TraceSink) -> None:
        super().__init__(*sinks)
        self._next_trace = 0
        self._next_span = 0
        self._open = False
        self.t0 = 0
        self.cursor = 0
        self.proc = -1
        self.op = ""
        self.line = -1
        self.addr = -1
        self.relocs = 0
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        #: A fused hit's one tail phase, and the empty phase list.
        self._hit_names = [""]
        self._hit_starts = [0]
        self._hit_ends = [0]
        self._no_phase: list = []

    # -- checkpoints ----------------------------------------------------

    def begin(self, t: int, proc: int, op: str, line: int,
              addr: int = -1) -> None:
        """Open the root span of one access issued at ``t``."""
        self._open = True
        self.t0 = t
        self.cursor = t
        self.proc = proc
        self.op = op
        self.line = line
        self.addr = addr
        self.relocs = 0
        self._names.clear()
        self._starts.clear()
        self._ends.clear()

    def phase(self, name: str, t: int) -> None:
        """Close the current phase at completion time ``t``.

        Checkpoints must be non-decreasing; a checkpoint at (or before)
        the cursor contributes a zero-duration phase and is skipped, so
        uncontended steps never clutter the tree.
        """
        if not self._open or t <= self.cursor:
            return
        self._names.append(name)
        self._starts.append(self.cursor)
        self._ends.append(t)
        self.cursor = t

    # -- events that close or annotate the open access ------------------

    def access(self, t, proc, op, line, level, latency_ns, addr=-1):
        """Forward the completed access, then emit its span tree."""
        for f in self._access:
            f(t, proc, op, line, level, latency_ns, addr)
        self.end(t + latency_ns, level)

    @hotpath
    def hit(self, t, proc, op, line, level, latency_ns, addr=-1):
        """A fused access: forward it, then emit the tree :meth:`begin`
        and :meth:`access` would — the root alone, or with one tail
        phase named ``level`` when the latency is positive."""
        for f in self._hit:
            f(t, proc, op, line, level, latency_ns, addr)
        done = t + latency_ns
        root_id = self._next_span + 1
        if latency_ns > 0:
            names = self._hit_names
            starts = self._hit_starts
            ends = self._hit_ends
            names[0] = level
            starts[0] = t
            ends[0] = done
            self._next_span = root_id + 1
        else:
            names = starts = ends = self._no_phase
            self._next_span = root_id
        trace_id = self._next_trace + 1
        self._next_trace = trace_id
        for f in self._tree:
            f(t, done, trace_id, root_id, proc, line, op, level, 0,
              names, starts, ends)

    def replacement(self, t, src, dst, line, outcome, hops):
        """Forward one relocation step and count it on the open access
        (traffic, not latency — annotated on the root).  An abandoned
        optional allocation (``uncached``) relocates nothing."""
        for f in self._replacement:
            f(t, src, dst, line, outcome, hops)
        if self._open and outcome != "uncached":
            self.relocs += 1

    def on_simulation_error(self, exc: BaseException) -> Optional[str]:
        """The sinks' dump, followed by the in-flight span stack so a
        crash dump shows *where in an access* the run died."""
        dump = super().on_simulation_error(exc)
        stack = self.open_stack_text()
        if stack:
            dump = f"{dump}\n{stack}" if dump else stack
        return dump

    def end(self, t: int, level: str) -> None:
        """Complete the access at ``t``; the un-annotated remainder
        ``[cursor, t]`` becomes a tail phase named after ``level``.
        Each sink receives the whole tree in one
        :meth:`~repro.obs.sink.TraceSink.tree` call."""
        if not self._open:
            return
        names, starts, ends = self._names, self._starts, self._ends
        if t > self.cursor:
            names.append(level)
            starts.append(self.cursor)
            ends.append(t)
        self._open = False
        self._next_trace += 1
        root_id = self._next_span + 1
        self._next_span += 1 + len(names)
        for f in self._tree:
            f(self.t0, t, self._next_trace, root_id, self.proc, self.line,
              self.op, level, self.relocs, names, starts, ends)

    # -- failure introspection ------------------------------------------

    def open_stack_text(self) -> str:
        """Render the in-flight span stack (empty string when idle).

        Folded into ``exc.flight_dump`` by :meth:`on_simulation_error`.
        """
        if not self._open:
            return ""
        out = [
            "=== open span stack ===",
            f"P{self.proc} {self.op} line {self.line:#x} "
            f"issued at {self.t0} ns",
        ]
        for name, s, e in zip(self._names, self._starts, self._ends):
            out.append(f"  {name:<12} {s}..{e} (+{e - s} ns)")
        out.append(f"  (in flight since {self.cursor} ns, "
                   f"{self.relocs} relocation(s) so far)")
        return "\n".join(out)


# ----------------------------------------------------------------------
# attribution aggregator
# ----------------------------------------------------------------------

#: Number of slowest accesses whose full span trees are retained.
DEFAULT_TOP_SPANS = 10


class StallAttribution(TraceSink):
    """Aggregate span trees into paper-style latency attributions.

    Folds each access's ``tree`` (per-phase cycle sums by processor,
    line and workload phase) in place, ``sync`` calls (blocked time per
    processor) and barrier ``syncop`` arrivals (workload-phase
    boundaries); no event object is built except for the trees kept as
    tail exemplars.  The report's per-phase sums conserve cycles: for
    every processor and operation class, the phase sums equal the
    root-span sums exactly.
    """

    wants_spans = True

    def __init__(self, top_spans: int = DEFAULT_TOP_SPANS) -> None:
        self.top_spans = top_spans
        #: proc -> op -> phase name -> ns (children of the span trees).
        self.phase_ns: dict[int, dict[str, dict[str, int]]] = {}
        #: proc -> op -> ns (root durations; the conservation partner).
        self.root_ns: dict[int, dict[str, int]] = {}
        #: line -> ns of access latency spent on it (root durations).
        self.line_ns: dict[int, int] = {}
        #: workload phase index -> op -> ns.  Phase k of a processor is
        #: the number of barrier arrivals it has performed.
        self.wphase_ns: dict[int, dict[str, int]] = {}
        self._wphase: dict[int, int] = {}
        #: proc -> blocked ns (lock/barrier waits from sync events).
        self.sync_ns: dict[int, int] = {}
        #: proc -> background relocations triggered by its accesses.
        self.reloc_count: dict[int, int] = {}
        self.accesses = 0
        #: Latency histograms per access class, in a private registry so
        #: the OpenMetrics exporter renders them directly.
        self.registry = MetricsRegistry()
        self._latency = self.registry.histogram(
            "span_access_latency_ns",
            "access latency from span roots by operation and level",
            labels=("op", "level"),
        )
        #: op -> level -> [bound histogram child, slowest duration,
        #: its trace id] (duration -1 until the first access).
        self._cls: dict[str, dict[str, list]] = {}
        #: Min-heap of (dur, trace_id) for the N slowest accesses.
        self._slowest: list[tuple[int, int]] = []
        #: trace_id -> [root, child, ...] for retained exemplar trees.
        self._trees: dict[int, list[SpanEvent]] = {}

    # -- event intake ---------------------------------------------------

    def sync(self, t, proc, primitive, obj, wait_ns):
        self.sync_ns[proc] = self.sync_ns.get(proc, 0) + wait_ns

    def syncop(self, t, proc, op, primitive, obj):
        if op == "arrive":
            self._wphase[proc] = self._wphase.get(proc, 0) + 1

    def tree(self, t0, t, trace_id, root_id, proc, line, op, level, relocs,
             names, starts, ends):
        dur = t - t0
        self.accesses += 1
        by_op = self.root_ns.get(proc)
        if by_op is None:
            by_op = self.root_ns[proc] = {}
        by_op[op] = by_op.get(op, 0) + dur
        line_ns = self.line_ns
        line_ns[line] = line_ns.get(line, 0) + dur
        wp = self._wphase.get(proc, 0)
        by_wp = self.wphase_ns.get(wp)
        if by_wp is None:
            by_wp = self.wphase_ns[wp] = {}
        by_wp[op] = by_wp.get(op, 0) + dur
        if relocs:
            self.reloc_count[proc] = self.reloc_count.get(proc, 0) + relocs
        levels = self._cls.get(op)
        if levels is None:
            levels = self._cls[op] = {}
        rec = levels.get(level)
        if rec is None:
            rec = levels[level] = [self._latency.labels(op, level), -1, 0]
        rec[0].observe(dur)
        if dur > rec[1]:
            rec[1] = dur
            rec[2] = trace_id
        if names:
            by_proc = self.phase_ns.get(proc)
            if by_proc is None:
                by_proc = self.phase_ns[proc] = {}
            phases = by_proc.get(op)
            if phases is None:
                phases = by_proc[op] = {}
            for name, start, end in zip(names, starts, ends):
                phases[name] = phases.get(name, 0) + end - start
        # Keep the tree if it is among the N slowest so far: if
        # (dur, trace_id) ranks above the heap's least.
        slowest = self._slowest
        if len(slowest) < self.top_spans:
            heapq.heappush(slowest, (dur, trace_id))
        elif slowest:
            low_dur, low_id = slowest[0]
            if dur < low_dur or (dur == low_dur and trace_id <= low_id):
                return
            heapq.heapreplace(slowest, (dur, trace_id))
            del self._trees[low_id]
        else:
            return
        self._trees[trace_id] = tree_events(
            t0, t, trace_id, root_id, proc, line, op, level, relocs,
            names, starts, ends)

    # -- results --------------------------------------------------------

    def slowest_spans(self) -> list[list[SpanEvent]]:
        """The retained span trees, slowest first (root at index 0)."""
        order = sorted(self._slowest, reverse=True)
        return [self._trees[tid] for _, tid in order]

    def conservation_errors(self) -> list[str]:
        """Per-(proc, op) mismatch between phase sums and root sums.

        Empty for every correctly instrumented machine: the builder cuts
        phases out of the root interval, so the sums agree exactly.
        """
        problems = []
        procs = set(self.root_ns) | set(self.phase_ns)
        for proc in sorted(procs):
            roots = self.root_ns.get(proc, {})
            phased = self.phase_ns.get(proc, {})
            for op in sorted(set(roots) | set(phased)):
                want = roots.get(op, 0)
                got = sum(phased.get(op, {}).values())
                if want != got:
                    problems.append(
                        f"P{proc} {op}: phases sum to {got} ns, "
                        f"roots total {want} ns"
                    )
        return problems

    def exemplars(self) -> dict[str, dict[tuple[str, ...], tuple[dict, int]]]:
        """OpenMetrics exemplars: the slowest access per class, labeled
        with its trace id so ``coma-sim explain``/Perfetto can find it."""
        per_class = {}
        for op, levels in sorted(self._cls.items()):
            for level, (_hist, dur, tid) in sorted(levels.items()):
                per_class[(op, level)] = ({"trace_id": str(tid)}, dur)
        return {"span_access_latency_ns": per_class}

    def report(self, stalls: Optional[list[dict]] = None,
               elapsed_ns: int = 0) -> dict:
        """The full attribution as a plain (JSON-ready) dict.

        ``stalls`` — per-processor stall accounting from the simulation
        result — adds the busy/read/write/sync conservation view: those
        categories are the ground truth the kernel charges (they sum to
        each processor's cycles exactly); the span phases subdivide the
        stall portion.
        """
        per_proc = []
        procs = sorted(set(self.root_ns) | set(self.phase_ns)
                       | set(self.sync_ns))
        for proc in procs:
            phased = self.phase_ns.get(proc, {})
            per_proc.append({
                "proc": proc,
                "access_ns": {
                    op: ns
                    for op, ns in sorted(self.root_ns.get(proc, {}).items())
                },
                "phases": {
                    op: dict(sorted(names.items()))
                    for op, names in sorted(phased.items())
                },
                "sync_wait_ns": self.sync_ns.get(proc, 0),
                "relocations": self.reloc_count.get(proc, 0),
            })
        out = {
            "accesses": self.accesses,
            "per_proc": per_proc,
            "per_workload_phase": [
                {"phase": wp, "access_ns": dict(sorted(ops.items()))}
                for wp, ops in sorted(self.wphase_ns.items())
            ],
            "top_lines": [
                {"line": hex(line), "access_ns": ns}
                for line, ns in sorted(
                    self.line_ns.items(), key=lambda kv: (-kv[1], kv[0])
                )[:20]
            ],
            "latency_histograms": self.registry.snapshot(),
            "top_spans": [
                [e.to_record() for e in tree]
                for tree in self.slowest_spans()
            ],
            "conservation_errors": self.conservation_errors(),
        }
        if stalls is not None:
            out["stall_accounting"] = [
                {**s, "total_ns": sum(s.values())} for s in stalls
            ]
        if elapsed_ns:
            out["elapsed_ns"] = elapsed_ns
        return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def format_span_tree(tree: list[SpanEvent]) -> str:
    """One retained span tree as indented text (root first)."""
    if not tree:
        return "(empty span tree)"
    root = tree[0]
    out = [
        f"trace {root.trace_id}: P{root.proc} {root.op} "
        f"line {root.line:#x} -> {root.level}  +{root.dur_ns} ns "
        f"(issued {root.t} ns"
        + (f", {root.relocs} relocation(s))" if root.relocs else ")")
    ]
    for child in tree[1:]:
        pct = 100.0 * child.dur_ns / root.dur_ns if root.dur_ns else 0.0
        out.append(
            f"    {child.name:<12} {child.t:>10}..{child.t + child.dur_ns:<10}"
            f" +{child.dur_ns:>6} ns  {pct:5.1f}%"
        )
    return "\n".join(out)


def format_attribution(report: dict) -> str:
    """Human rendering of :meth:`StallAttribution.report` (table mode)."""
    out = [f"latency attribution over {report['accesses']} accesses"]
    stalls = report.get("stall_accounting")
    if stalls:
        cats = [c for c in stalls[0] if c != "total_ns"]
        header = "  proc  " + "".join(f"{c:>12}" for c in cats) + f"{'total':>14}"
        out.append("per-processor cycles (kernel stall accounting, "
                   "sums exactly to each processor's clock):")
        out.append(header)
        for i, s in enumerate(stalls):
            row = f"  P{i:<4}" + "".join(f"{s[c]:>12}" for c in cats)
            out.append(row + f"{s['total_ns']:>14}")
    out.append("per-processor span phases (ns; phases partition each "
               "access's latency):")
    for row in report["per_proc"]:
        out.append(f"  P{row['proc']}: sync_wait={row['sync_wait_ns']} "
                   f"relocations={row['relocations']}")
        for op, phases in row["phases"].items():
            total = row["access_ns"].get(op, 0)
            detail = "  ".join(f"{k}={v}" for k, v in phases.items())
            out.append(f"    {op:<3} total={total:<12} {detail}")
    wps = report.get("per_workload_phase", ())
    if len(wps) > 1:
        out.append("per workload phase (barrier episodes):")
        for row in wps:
            detail = "  ".join(f"{k}={v}" for k, v in row["access_ns"].items())
            out.append(f"  phase {row['phase']:<3} {detail}")
    if report.get("top_lines"):
        out.append("hottest lines by access latency:")
        for row in report["top_lines"][:10]:
            out.append(f"  {row['line']:>8}  {row['access_ns']} ns")
    errs = report.get("conservation_errors", ())
    if errs:
        out.append("CONSERVATION VIOLATIONS:")
        out.extend(f"  {e}" for e in errs)
    else:
        out.append("conservation: OK (phase sums equal root sums for "
                   "every processor and op)")
    return "\n".join(out)
