"""Coherence sanitizer: dynamic race, value and liveness checking (R/V/L rules).

A :class:`CoherenceSanitizer` is a :class:`repro.obs.sink.EventSink` —
attach it to any simulation (``sim.attach(...)``, alone or next to
other observers) and it checks the live event stream against three
property families, reporting findings in the shared
:class:`repro.analysis.report.Finding` vocabulary:

* **R-rules — data races.**  A FastTrack-style vector-clock detector.
  Synchronization events (lock acquire/release, barrier arrive/depart —
  the ``syncop`` events the simulator emits) advance per-processor
  vector clocks; two accesses to the same byte address conflict when at
  least one is a store and neither happens-before the other.  Accesses
  to the ``sync`` segment (the lock/barrier words themselves) are
  exempt.  Workloads may additionally *declare* sharing patterns
  (:meth:`repro.workloads.base.Workload.declared_sharing`); an address
  in a segment declared private that is touched by two different
  processors is flagged even when the accesses are ordered.
* **V-rules — value integrity.**  A golden shadow memory
  (:class:`repro.mem.shadow.ShadowMemory`) tracks the last committed
  store per line; a per-node copy table, advanced by protocol
  transition and replacement events, tracks which nodes hold the line
  and at which version.  Reads served by a copy older than the golden
  version are stale (V001); relocations that move a stale copy
  propagate corruption (V002); hits, writes or relocations on copies
  the protocol never installed are lost-copy desyncs (V003).
* **L003 — relocation ping-pong.**  A runtime watchdog complementing
  the model-level liveness proof (:mod:`repro.analysis.liveness`): a
  line bouncing *back and forth between the same two nodes*, with no
  intervening processor access, is being shuffled by capacity pressure
  without serving anyone.  (A line merely wandering node to node is
  normal hot-potato migration at high memory pressure and is not
  flagged — only the two-node oscillation is a livelock symptom.)

Every finding carries the last ``window`` events (flight-recorder
style) in ``Finding.detail`` so the defect is diagnosable without
re-running.  Findings dedupe per (rule, location); rule IDs can be
suppressed with ``allow=...``.  ``coma-sim sanitize`` is the CLI front
end; the ``sanitizer`` pytest fixture attaches one to unit-test
machines.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Iterable, Optional

from repro.analysis.report import AnalysisReport, Finding
from repro.mem.shadow import ShadowMemory
from repro.obs.events import format_event
from repro.obs.sink import EventSink
from repro.workloads.base import SHARING_PRIVATE, SHARING_SYNC

#: Default number of trailing events attached to each finding.
DEFAULT_WINDOW = 32
#: Consecutive bounce-backs of one line between the same two nodes,
#: with no intervening access, before the ping-pong watchdog fires.
DEFAULT_PINGPONG_THRESHOLD = 24
#: Total findings kept before the sanitizer stops recording new ones.
DEFAULT_MAX_FINDINGS = 100

#: Replacement outcomes that move the copy to another node.
_MOVING_OUTCOMES = frozenset({"to_sharer", "to_invalid", "to_shared", "cascade"})
#: Access levels served by a copy the local node must hold.
_LOCAL_LEVELS = frozenset({"l1", "slc", "am"})


class CoherenceSanitizer(EventSink):
    """Checks a live event stream for races, stale values and ping-pong.

    Parameters
    ----------
    node_of:
        ``proc -> node`` mapping (default: identity, fine for synthetic
        streams and one-processor-per-node machines).
    segments:
        ``(name, base, end)`` triples describing the address space, used
        to attribute addresses to segments (end exclusive).
    sharing:
        segment name -> ``SHARING_*`` declaration.  The segment named
        ``"sync"`` is always treated as :data:`SHARING_SYNC`.
    allow:
        rule IDs to suppress (matching findings are counted, not kept).
    window:
        trailing events attached to each finding's detail.
    pingpong_threshold:
        chained relocations before L003 fires.
    max_findings:
        recording stops (counting continues) past this many findings.
    provenance:
        optional dict stamped into the report (:func:`sanitizer_for` stamps
        :func:`repro.obs.manifest.provenance` with the spec and seed).
    """

    def __init__(
        self,
        *,
        node_of=None,
        segments: Iterable[tuple[str, int, int]] = (),
        sharing: Optional[dict[str, str]] = None,
        allow: Iterable[str] = (),
        window: int = DEFAULT_WINDOW,
        pingpong_threshold: int = DEFAULT_PINGPONG_THRESHOLD,
        max_findings: int = DEFAULT_MAX_FINDINGS,
        provenance: Optional[dict] = None,
    ) -> None:
        self._node_of = node_of if node_of is not None else (lambda p: p)
        segs = sorted(segments, key=lambda s: s[1])
        self._seg_bases = [s[1] for s in segs]
        self._segs = segs
        self.sharing = dict(sharing or {})
        self.allow = frozenset(allow)
        self.pingpong_threshold = pingpong_threshold
        self.max_findings = max_findings
        self.provenance = provenance
        #: The last ``window`` events, formatted only into a finding.
        self._window: deque = deque(maxlen=max(1, window))

        # -- R-rules: vector clocks ------------------------------------
        self._vc: dict[int, dict[int, int]] = {}
        self._lock_vc: dict[int, dict[int, int]] = {}
        self._barrier_pending: dict[int, dict[int, int]] = {}
        self._barrier_episode: dict[int, dict[int, int]] = {}
        self._barrier_departing: dict[int, bool] = {}
        #: addr -> (proc, clock, t) of the last store
        self._last_write: dict[int, tuple[int, int, int]] = {}
        #: addr -> {proc: (clock, t)} reads since the last store
        self._reads: dict[int, dict[int, tuple[int, int]]] = {}
        #: addr -> first proc to touch a private-declared address
        self._private_owner: dict[int, int] = {}

        # -- V-rules: golden memory + copy table -----------------------
        self.golden = ShadowMemory()
        #: line -> {node: installed version}
        self._copies: dict[int, dict[int, int]] = {}
        #: version carried by the replacement event preceding an inject
        self._pending_reloc: Optional[tuple[int, int]] = None

        # -- L003: ping-pong watchdog ----------------------------------
        #: line -> (bounce count, last hop's src, last hop's dst)
        self._pingpong: dict[int, tuple[int, int, int]] = {}

        self.findings: list[Finding] = []
        self._seen_keys: set[tuple] = set()
        self.stats: dict[str, int] = {
            "events": 0, "accesses": 0, "syncops": 0,
            "transitions": 0, "replacements": 0, "suppressed": 0,
        }

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------

    def emit(self, ev) -> None:
        self.stats["events"] += 1
        self._window.append(ev)
        kind = ev.kind
        if kind == "access":
            self.stats["accesses"] += 1
            self._on_access(ev)
        elif kind == "transition":
            self.stats["transitions"] += 1
            self._on_transition(ev)
        elif kind == "replacement":
            self.stats["replacements"] += 1
            self._on_replacement(ev)
        elif kind == "syncop":
            self.stats["syncops"] += 1
            self._on_syncop(ev)
        # bus / sync-stall events only contribute to the window

    # ------------------------------------------------------------------
    # R-rules: happens-before race detection
    # ------------------------------------------------------------------

    def _proc_vc(self, proc: int) -> dict[int, int]:
        vc = self._vc.get(proc)
        if vc is None:
            vc = {proc: 1}
            self._vc[proc] = vc
        return vc

    @staticmethod
    def _join(into: dict[int, int], other: Optional[dict[int, int]]) -> None:
        if not other:
            return
        for p, c in other.items():
            if into.get(p, 0) < c:
                into[p] = c

    def _on_syncop(self, ev) -> None:
        vc = self._proc_vc(ev.proc)
        if ev.primitive == "lock":
            if ev.op == "acquire":
                self._join(vc, self._lock_vc.get(ev.obj))
            elif ev.op == "release":
                self._lock_vc[ev.obj] = dict(vc)
                vc[ev.proc] += 1
        elif ev.primitive == "barrier":
            if ev.op == "arrive":
                if self._barrier_departing.get(ev.obj):
                    # first arrival of a new episode
                    self._barrier_pending[ev.obj] = {}
                    self._barrier_departing[ev.obj] = False
                pending = self._barrier_pending.setdefault(ev.obj, {})
                self._join(pending, vc)
            elif ev.op == "depart":
                if not self._barrier_departing.get(ev.obj):
                    # first departure: the episode's join is complete
                    self._barrier_episode[ev.obj] = dict(
                        self._barrier_pending.get(ev.obj, {})
                    )
                    self._barrier_departing[ev.obj] = True
                self._join(vc, self._barrier_episode.get(ev.obj))
                vc[ev.proc] += 1

    def _segment_of(self, addr: int) -> Optional[tuple[str, int, int]]:
        i = bisect.bisect_right(self._seg_bases, addr) - 1
        if i >= 0 and addr < self._segs[i][2]:
            return self._segs[i]
        return None

    def _race_check(self, ev) -> None:
        addr = ev.addr
        if addr < 0:
            return  # pre-addr trace; race detection needs byte addresses
        seg = self._segment_of(addr)
        seg_name = seg[0] if seg else None
        pattern = self.sharing.get(seg_name) if seg_name else None
        if seg_name == "sync" or pattern == SHARING_SYNC:
            return
        u = ev.proc
        vc = self._proc_vc(u)
        where = f"addr {addr:#x}" + (f" ({seg_name})" if seg_name else "")

        if pattern == SHARING_PRIVATE:
            owner = self._private_owner.setdefault(addr, u)
            if owner != u:
                self._report(
                    "R003", ("R003", addr),
                    f"{where}: declared private but touched by P{owner} "
                    f"and P{u} ({ev.op} at t={ev.t}) — partitioning bug "
                    "in the workload",
                    where,
                )

        lw = self._last_write.get(addr)
        if lw is not None:
            w, c, tw = lw
            if w != u and vc.get(w, 0) < c:
                rule = "R001" if ev.op != "r" else "R002"
                what = ("write/write" if ev.op != "r" else "write/read")
                self._report(
                    rule, (rule, addr),
                    f"{where}: {what} race — P{w} stored at t={tw} and "
                    f"P{u} {_opname(ev.op)} at t={ev.t} with no "
                    "happens-before ordering (missing lock or barrier)",
                    where,
                )
        if ev.op == "r":
            self._reads.setdefault(addr, {})[u] = (vc[u], ev.t)
        else:
            reads = self._reads.get(addr)
            if reads:
                for r, (c, tr) in reads.items():
                    if r != u and vc.get(r, 0) < c:
                        self._report(
                            "R002", ("R002", addr),
                            f"{where}: read/write race — P{r} loaded at "
                            f"t={tr} and P{u} {_opname(ev.op)} at t={ev.t} "
                            "with no happens-before ordering",
                            where,
                        )
                        break
            self._reads[addr] = {}
            self._last_write[addr] = (u, vc[u], ev.t)

    # ------------------------------------------------------------------
    # V-rules: golden shadow memory
    # ------------------------------------------------------------------

    def _on_access(self, ev) -> None:
        self._race_check(ev)
        line = ev.line
        node = self._node_of(ev.proc)
        self._pingpong.pop(line, None)  # a demand access ends any chain
        copies = self._copies.setdefault(line, {})
        where = f"line {line:#x}"
        if ev.op == "r" or ev.op == "rmw":
            v = copies.get(node)
            if v is None:
                if ev.op == "r" and ev.level in _LOCAL_LEVELS:
                    self._report(
                        "V003", ("V003", line),
                        f"{where}: P{ev.proc} read hit at {ev.level} on "
                        f"node {node} but the protocol never installed a "
                        "copy there — copy tracking lost the line",
                        where,
                    )
            elif v < self.golden.version(line):
                gv, gw, gt = self.golden.last(line)
                self._report(
                    "V001", ("V001", line),
                    f"{where}: stale read — P{ev.proc} read version {v} "
                    f"on node {node} but P{gw} committed version {gv} at "
                    f"t={gt} (a missed invalidation left the copy behind)",
                    where,
                )
        if ev.op != "r":
            version = self.golden.commit(line, ev.proc, ev.t)
            if node not in copies and ev.level in _LOCAL_LEVELS:
                self._report(
                    "V003", ("V003", line),
                    f"{where}: P{ev.proc} store completed at {ev.level} on "
                    f"node {node} with no copy installed there",
                    where,
                )
            copies[node] = version

    def _on_transition(self, ev) -> None:
        line, node = ev.line, ev.node
        copies = self._copies.setdefault(line, {})
        where = f"line {line:#x}"
        if ev.after == "I":
            # invalidate / drop: the node's copy is gone.
            copies.pop(node, None)
            return
        if ev.cause == "inject":
            if ev.before == "S":
                # ownership moved onto an existing replica
                if node not in copies:
                    self._report(
                        "V003", ("V003", line),
                        f"{where}: inject onto node {node} claims a Shared "
                        "replica that copy tracking never saw",
                        where,
                    )
                    copies[node] = self.golden.version(line)
                return
            # fresh copy carries the relocated data's version
            if (self._pending_reloc is not None
                    and self._pending_reloc[0] == line):
                copies[node] = self._pending_reloc[1]
                self._pending_reloc = None
            else:
                copies[node] = self.golden.version(line)
            return
        if ev.cause in ("materialize", "fill", "read_exclusive"):
            copies[node] = self.golden.version(line)
            return
        # state-only changes (remote_read E->O, upgrade S/O->E): the copy
        # and its version are retained.
        if node not in copies:
            copies[node] = self.golden.version(line)

    def _on_replacement(self, ev) -> None:
        line = ev.line
        where = f"line {line:#x}"
        if ev.outcome == "uncached":
            return
        copies = self._copies.setdefault(line, {})
        if ev.outcome in ("overflow_park", "to_slc"):
            if ev.src not in copies:
                self._report(
                    "V003", ("V003", line),
                    f"{where}: {ev.outcome} at node {ev.src} but copy "
                    "tracking shows no copy there",
                    where,
                )
            return
        if ev.outcome not in _MOVING_OUTCOMES:
            return
        v = copies.pop(ev.src, None)
        if v is None:
            self._report(
                "V003", ("V003", line),
                f"{where}: relocation {ev.outcome} out of node {ev.src} "
                "but copy tracking shows no copy there — the line was "
                "already lost",
                where,
            )
        elif v < self.golden.version(line):
            gv, gw, gt = self.golden.last(line)
            self._report(
                "V002", ("V002", line),
                f"{where}: stale relocation — node {ev.src} relocated "
                f"version {v} to node {ev.dst} but P{gw} committed "
                f"version {gv} at t={gt}; the stale value now spreads",
                where,
            )
        self._pending_reloc = (line, v if v is not None
                               else self.golden.version(line))
        self._watch_pingpong(ev, where)

    # ------------------------------------------------------------------
    # L003: relocation ping-pong watchdog
    # ------------------------------------------------------------------

    def _watch_pingpong(self, ev, where: str) -> None:
        line = ev.line
        prev = self._pingpong.get(line)
        # A bounce is a hop that exactly reverses the previous one:
        # ...A -> B, then B -> A.  A line moving on to a *third* node is
        # ordinary hot-potato migration under pressure and resets the
        # count.
        if prev is not None and prev[2] == ev.src and prev[1] == ev.dst:
            count = prev[0] + 1
        else:
            count = 1
        self._pingpong[line] = (count, ev.src, ev.dst)
        if count >= self.pingpong_threshold:
            self._report(
                "L003", ("L003", line),
                f"{where}: relocation ping-pong — bounced between node "
                f"{ev.dst} and node {ev.src} {count} times in a row "
                f"(last hop at t={ev.t}) with no processor access in "
                "between; the copies are shuttling without serving anyone",
                where,
            )

    # ------------------------------------------------------------------
    # findings plumbing
    # ------------------------------------------------------------------

    def _report(self, rule: str, key: tuple, message: str, where: str) -> None:
        if key in self._seen_keys:
            return
        self._seen_keys.add(key)
        if rule in self.allow:
            self.stats["suppressed"] += 1
            return
        if len(self.findings) >= self.max_findings:
            self.stats["findings_dropped"] = (
                self.stats.get("findings_dropped", 0) + 1
            )
            return
        detail = "last events before the finding:\n" + "\n".join(
            "  " + format_event(ev) for ev in self._window
        )
        self.findings.append(
            Finding(rule=rule, message=message, path=where, detail=detail)
        )

    def finish(self) -> AnalysisReport:
        """Close out the run and return the aggregate report."""
        report = AnalysisReport(findings=list(self.findings),
                                stats=dict(self.stats))
        report.stats["lines_tracked"] = len(self._copies)
        report.stats["addrs_tracked"] = len(self._last_write)
        return report


def _opname(op: str) -> str:
    return {"r": "loaded", "w": "stored", "rmw": "read-modify-wrote"}.get(op, op)


# ----------------------------------------------------------------------
# wiring helpers
# ----------------------------------------------------------------------

def sanitizer_for(sim, spec=None, **kwargs) -> CoherenceSanitizer:
    """Build a sanitizer configured for a :class:`Simulation`.

    Pulls the processor-to-node mapping and segment map off the machine
    and the sharing declarations off the workload (when the runner
    attached one).  Attach the result with ``sim.attach(...)`` *before*
    ``sim.run()`` — copy tracking must see the stream from the first
    materialization.
    """
    machine = sim.machine
    config = machine.config
    segments = [(s.name, s.base, s.end) for s in machine.space.segments]
    sharing = {}
    wl = getattr(sim, "workload", None)
    if wl is not None:
        sharing.update(wl.declared_sharing())
    sharing.setdefault("sync", SHARING_SYNC)
    if spec is not None and "provenance" not in kwargs:
        from dataclasses import asdict

        from repro.obs.manifest import provenance

        kwargs["provenance"] = provenance(spec=asdict(spec), seed=spec.seed)
    return CoherenceSanitizer(
        node_of=config.node_of_proc,
        segments=segments,
        sharing=sharing,
        **kwargs,
    )
