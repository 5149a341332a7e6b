"""Static latency bounds derived from the protocol table.

The span trees of :mod:`repro.obs.spans` decompose every access into
phase children whose durations sum to the access latency by
construction.  This module derives, *without simulating*, the set of
phase sequences each machine flavour can emit and a closed-form
min/max duration expression for every phase — straight from the
E/O/S/I table rows (:mod:`repro.coma.protocol`) and the named
timing parameters of :class:`repro.common.config.TimingConfig`.

Two kinds of envelope exist, and conflating them would make the
analysis unsound:

* **exact** segments — a fixed number of wire/array cycles follows the
  checkpoint that opens them (a bus transfer after an explicit
  arbitration cut, a directory lookup, the fixed remote overhead).
  These carry a finite max and any excursion is a timing-model bug.
* **min-only** segments — the cut embeds a queueing wait (NC ports,
  DRAM banks, bus arbitration).  Contention can stretch them without
  bound, so only the lower bound is static; the upper bound is
  ``None`` (rendered "unbounded(contention)").

:class:`BoundsCertifier` is a :class:`~repro.obs.sink.TraceSink` that
replays observed span trees against the enumerated path set:

==== ==============================================================
B101 a span phase exceeds its static maximum (exact segment)
B102 a span phase is shorter than its static minimum
B103 the phase sequence is not in the enumerated path set
==== ==============================================================

Each violation carries a minimal witness: the offending span tree plus
the closest statically enumerated path.  ``coma-sim bounds <wl>
--check`` runs a workload under the certifier and exits non-zero on
any violation; ``coma-sim bounds`` alone prints the symbolic bound
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.analysis.report import Finding
from repro.coma.protocol import TRANSITIONS, Transition, validate_table
from repro.coma.states import state_name
from repro.common.config import TimingConfig
from repro.obs.sink import TraceSink, tree_events
from repro.obs.spans import format_span_tree

#: Rule catalogue (merged into the registry in repro.analysis.report).
BOUNDS_RULES: dict[str, str] = {
    "B101": "observed span phase exceeds its static maximum — an exact "
            "segment (bus transfer after an arbitration cut, directory "
            "lookup, fixed remote overhead) took longer than the timing "
            "table allows",
    "B102": "observed span phase is shorter than its static minimum — "
            "the access skipped latency the timing table says is "
            "unavoidable on that path",
    "B103": "observed phase sequence is not in the statically enumerated "
            "path set for its (op, level) class",
}

#: Machine flavours the analyzer knows how to enumerate.
FLAVOURS: tuple[str, ...] = ("coma", "hcoma", "numa")

#: Canonical timing parameter names the expressions range over.
PARAMS: tuple[str, ...] = (
    "l1_hit", "slc_hit", "nc", "dram_lat", "bus_phase", "remote_overhead",
)


# ----------------------------------------------------------------------
# symbolic linear expressions over timing parameters
# ----------------------------------------------------------------------


class Expr:
    """A linear combination of timing parameters plus a constant.

    Immutable by convention; arithmetic returns new objects.  Rendering
    is canonical (parameters in :data:`PARAMS` order) so expressions are
    directly comparable as strings in tests and reports.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: int = 0,
                 terms: Optional[Mapping[str, int]] = None) -> None:
        self.const = const
        self.terms: dict[str, int] = {
            k: v for k, v in (terms or {}).items() if v
        }

    @classmethod
    def of(cls, *params: str, const: int = 0) -> "Expr":
        """``Expr.of("nc", "nc", "dram_lat")`` -> ``2*nc + dram_lat``."""
        terms: dict[str, int] = {}
        for p in params:
            if p not in PARAMS:
                raise ValueError(f"unknown timing parameter {p!r}")
            terms[p] = terms.get(p, 0) + 1
        return cls(const, terms)

    def __add__(self, other: "Expr") -> "Expr":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return Expr(self.const + other.const, terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Expr) and self.const == other.const
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.const, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"Expr({self.render()!r})"

    def render(self) -> str:
        parts: list[str] = []
        for p in PARAMS:
            c = self.terms.get(p, 0)
            if c == 1:
                parts.append(p)
            elif c:
                parts.append(f"{c}*{p}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)

    def evaluate(self, params: Mapping[str, int]) -> int:
        total = self.const
        for p, c in self.terms.items():
            total += c * params[p]
        return total


ZERO: Expr = Expr()


def timing_params(timing: Any = None) -> dict[str, int]:
    """The named parameter values of a :class:`TimingConfig` (the
    defaults when ``timing`` is None)."""
    if timing is None:
        timing = TimingConfig()
    return {
        "l1_hit": timing.l1_hit_ns,
        "slc_hit": timing.slc_hit_ns,
        "nc": timing.nc_ns,
        "dram_lat": timing.dram_latency_ns,
        "bus_phase": timing.bus_phase_ns,
        "remote_overhead": timing.remote_overhead_ns,
    }


# ----------------------------------------------------------------------
# path templates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One phase of a statically enumerated path.

    ``max_`` is ``None`` when the segment embeds a queueing wait:
    contention can stretch it without bound, so only the minimum is a
    static fact.
    """

    name: str
    min_: Expr
    max_: Optional[Expr]
    note: str = ""


def _exact(name: str, expr: Expr, note: str = "") -> Segment:
    return Segment(name, expr, expr, note)


def _atleast(name: str, expr: Expr, note: str = "") -> Segment:
    return Segment(name, expr, None, note)


def _wait(name: str, note: str = "") -> Segment:
    return Segment(name, ZERO, None, note)


@dataclass(frozen=True)
class PathTemplate:
    """One root-to-leaf phase path through a machine flavour's dispatch,
    keyed by the (op, level, state, sharers) cell it serves."""

    op: str
    level: str
    state: str    # initial protocol state of the accessing node, or "-"
    sharers: str  # "-", "alone" or "sharers"
    segments: tuple[Segment, ...]
    note: str = ""

    @property
    def min_(self) -> Expr:
        total = ZERO
        for seg in self.segments:
            total = total + seg.min_
        return total

    @property
    def max_(self) -> Optional[Expr]:
        total = ZERO
        for seg in self.segments:
            if seg.max_ is None:
                return None
            total = total + seg.max_
        return total

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.segments)


def _hit_paths(op: str, state: str) -> list[PathTemplate]:
    """Silent local hits: the level is a cache-residency fact, not a
    protocol fact, so every silent state offers all three."""
    slc_tail = (
        [_wait("slc_wait", "SLC port queue"),
         _exact("slc", Expr.of("slc_hit"))]
        if op == "r" else
        # Writes fold the SLC port wait into the tail cut.
        [_atleast("slc", Expr.of("slc_hit"), "SLC port queue + array")]
    )
    am = _atleast("am", Expr.of("nc", "nc", "dram_lat"),
                  "NC out + AM DRAM + NC back, each behind a queue")
    return [
        PathTemplate(op, "l1", state, "-",
                     (_exact("l1", Expr.of("l1_hit")),)),
        PathTemplate(op, "slc", state, "-", tuple(slc_tail)),
        PathTemplate(op, "am", state, "-", (am,)),
    ]


def _remote_core(flavour: str) -> list[list[Segment]]:
    """The request/response interconnect crossings of a remote fetch, up
    to data arrival at the local controller (one variant per route)."""
    nc = Expr.of("nc")
    bus = Expr.of("bus_phase")
    ram = Expr.of("nc", "dram_lat")
    if flavour in ("coma", "numa"):
        return [[
            _atleast("nc_out", nc),
            _wait("bus_arb"),
            _exact("bus_req", bus),
            _atleast("remote_am", ram, "owner NC + AM DRAM"),
            _wait("bus_arb"),
            _exact("bus_reply", bus),
            _atleast("nc_ret", nc),
        ]]
    # hcoma: snooped within the group, or forwarded over the top bus.
    in_group = [
        _atleast("nc_out", nc),
        _wait("bus_arb"),
        _exact("gbus_req", bus),
        _atleast("remote_am", ram, "owner NC + AM DRAM"),
        _wait("bus_arb"),
        _exact("gbus_reply", bus),
        _atleast("nc_ret", nc),
    ]
    cross_group = [
        _atleast("nc_out", nc),
        _wait("bus_arb"),
        _exact("gbus_req", bus),
        _exact("dir_lookup", nc, "local group directory"),
        _wait("bus_arb"),
        _exact("tbus_req", bus),
        _exact("dir_lookup", nc, "owner group directory"),
        _wait("bus_arb"),
        _exact("gbus_req", bus, "descend into the owner group"),
        _atleast("remote_am", ram, "owner NC + AM DRAM"),
        _atleast("gbus_reply", Expr.of("bus_phase"),
                 "owner group reply; arbitration folded into the cut"),
        _wait("bus_arb"),
        _exact("tbus_reply", bus),
        _atleast("gbus_reply", Expr.of("nc", "bus_phase"),
                 "descent into the local group + its directory"),
        _atleast("nc_ret", nc),
    ]
    return [in_group, cross_group]


def _upgrade_prefix() -> list[Segment]:
    return [
        _atleast("nc_out", Expr.of("nc")),
        _atleast("upgrade_bus", Expr.of("bus_phase"),
                 "erase broadcast; arbitration (and, hierarchical, the "
                 "top-bus crossing) folded into the cut"),
    ]


def enumerate_paths(
    flavour: str,
    transitions: Sequence[Transition] = TRANSITIONS,
) -> tuple[PathTemplate, ...]:
    """Every root-to-leaf phase path ``flavour`` can emit, per
    (op, level, state, sharers) cell, derived from the table rows.

    The protocol table decides *which* paths exist (a silent
    ``local_write`` stays local; an ``upgrade`` action prepends the
    erase broadcast; ``read``/``read_excl`` cross the interconnect);
    the flavour decides what the interconnect crossing looks like.
    """
    if flavour not in FLAVOURS:
        raise ValueError(f"unknown machine flavour {flavour!r}; "
                         f"expected one of {FLAVOURS}")
    transitions = tuple(transitions)
    validate_table(transitions)
    rows = {(t.state, t.event): t for t in transitions}
    dram = Expr.of("dram_lat")
    overhead = Expr.of("remote_overhead")
    # COMA allocates after the data lands (a DRAM write behind a queue);
    # NUMA's home already did, so its fill is a fixed-latency tail.
    fill = (_exact("fill_dram", dram) if flavour == "numa"
            else _atleast("fill_dram", dram, "local AM allocate"))
    tail = _exact("remote", overhead, "fixed remote overhead")
    out: list[PathTemplate] = []
    for op, event in (("r", "local_read"), ("w", "local_write"),
                      ("rmw", "local_write")):
        for state_id in range(4):
            row = rows[(state_id, event)]
            if row.next_state is None:
                continue
            state = state_name(state_id)
            action = row.bus_action
            if action == "":
                out.extend(_hit_paths(op, state))
            elif action == "read":
                for core in _remote_core(flavour):
                    out.append(PathTemplate(
                        op, "remote", state, "-",
                        tuple(core + [fill, tail]), "cached read miss"))
                    out.append(PathTemplate(
                        op, "remote", state, "-",
                        tuple(core + [tail]),
                        "uncached read: no local copy retained"))
            elif action == "upgrade":
                prefix = _upgrade_prefix()
                out.append(PathTemplate(
                    op, "slc", state, "-",
                    tuple(prefix
                          + [_atleast("slc", Expr.of("slc_hit"))]),
                    "upgrade, then the local SLC write"))
                out.append(PathTemplate(
                    op, "am", state, "-",
                    tuple(prefix
                          + [_atleast("am", Expr.of("nc", "nc", "dram_lat"))]),
                    "upgrade, then the local AM write"))
            elif action == "read_excl":
                for core in _remote_core(flavour):
                    out.append(PathTemplate(
                        op, "remote", state, "-",
                        tuple(core + [fill, tail]), "write miss"))
    if flavour == "numa":
        # The MSI directory can demand an invalidation round before a
        # write that then still misses (or hits) locally — the upgrade
        # prefix composes with every write tail.
        for core in _remote_core(flavour):
            out.append(PathTemplate(
                "w", "remote", "S", "-",
                tuple(_upgrade_prefix() + core + [fill, tail]),
                "invalidate round, then the miss"))
            out.append(PathTemplate(
                "rmw", "remote", "S", "-",
                tuple(_upgrade_prefix() + core + [fill, tail]),
                "invalidate round, then the miss"))
        for op in ("w", "rmw"):
            out.append(PathTemplate(
                op, "am", "S", "-",
                tuple(_upgrade_prefix()
                      + [_atleast("am", Expr.of("nc", "nc", "dram_lat"))]),
                "invalidate round, then home memory"))
    return tuple(out)


# ----------------------------------------------------------------------
# the evaluated bound table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One evaluated cell of the bound table."""

    op: str
    level: str
    state: str
    sharers: str
    path: tuple[str, ...]
    min_expr: str
    max_expr: Optional[str]
    min_ns: int
    max_ns: Optional[int]
    note: str = ""

    def to_record(self) -> dict[str, Any]:
        return {
            "op": self.op, "level": self.level, "state": self.state,
            "sharers": self.sharers, "path": list(self.path),
            "min_expr": self.min_expr, "max_expr": self.max_expr,
            "min_ns": self.min_ns, "max_ns": self.max_ns,
            "note": self.note,
        }


def bound_table(
    flavour: str,
    timing: Any = None,
    transitions: Sequence[Transition] = TRANSITIONS,
) -> list[BoundRow]:
    """The per-cell bound table: every enumerated path with its total
    min/max expression evaluated against ``timing``."""
    params = timing_params(timing)
    rows: list[BoundRow] = []
    for tpl in enumerate_paths(flavour, transitions):
        mn, mx = tpl.min_, tpl.max_
        rows.append(BoundRow(
            op=tpl.op, level=tpl.level, state=tpl.state,
            sharers=tpl.sharers, path=tpl.names(),
            min_expr=mn.render(),
            max_expr=None if mx is None else mx.render(),
            min_ns=mn.evaluate(params),
            max_ns=None if mx is None else mx.evaluate(params),
            note=tpl.note,
        ))
    return rows


def format_bounds(rows: Sequence[BoundRow], flavour: str = "") -> str:
    head = "static latency bounds"
    if flavour:
        head += f" ({flavour})"
    out = [
        head,
        f"{'op':>4} {'state':>5} {'level':>7} {'min ns':>8} {'max ns':>10}"
        "  min expression",
        "-" * 78,
    ]
    for r in rows:
        mx = "unbounded" if r.max_ns is None else str(r.max_ns)
        out.append(
            f"{r.op:>4} {r.state:>5} {r.level:>7} {r.min_ns:>8} {mx:>10}"
            f"  {r.min_expr}"
        )
        out.append(f"{'':>38}path: {' -> '.join(r.path) or '(none)'}"
                   + (f"  [{r.note}]" if r.note else ""))
    out.append("max 'unbounded': the path crosses a queued resource — "
               "contention has no static ceiling; per-phase exact "
               "segments are still certified (B101).")
    return "\n".join(out)


# ----------------------------------------------------------------------
# the runtime certifier
# ----------------------------------------------------------------------


#: One evaluated segment: (name, min_ns, max_ns-or-None).
EvalSeg = tuple[str, int, Optional[int]]


class Envelope:
    """The enumerated path set evaluated against one timing table,
    grouped by the (op, level) class span roots carry."""

    def __init__(self, flavour: str, params: Mapping[str, int],
                 templates: Sequence[PathTemplate]) -> None:
        self.flavour = flavour
        self.params = dict(params)
        self.by_class: dict[tuple[str, str], list[list[EvalSeg]]] = {}
        seen: set[tuple[str, str, tuple[EvalSeg, ...]]] = set()
        for tpl in templates:
            path: list[EvalSeg] = [
                (s.name, s.min_.evaluate(params),
                 None if s.max_ is None else s.max_.evaluate(params))
                for s in tpl.segments
            ]
            key = (tpl.op, tpl.level, tuple(path))
            if key in seen:
                continue
            seen.add(key)
            self.by_class.setdefault((tpl.op, tpl.level), []).append(path)

    @staticmethod
    def match(path: Sequence[EvalSeg],
              names: Sequence[str]) -> Optional[list[EvalSeg]]:
        """Align observed phase names against ``path``.

        A segment whose static minimum is zero may be absent (the
        builder drops zero-duration phases); every other segment must
        appear, in order.  Returns the matched segment per observed
        phase, or None when the sequence cannot come from this path.
        """
        out: list[EvalSeg] = []
        i = 0
        for name in names:
            while i < len(path) and path[i][0] != name and path[i][1] == 0:
                i += 1
            if i >= len(path) or path[i][0] != name:
                return None
            out.append(path[i])
            i += 1
        for seg in path[i:]:
            if seg[1] != 0:
                return None
        return out


def envelope_for(
    flavour: str,
    timing: Any = None,
    transitions: Sequence[Transition] = TRANSITIONS,
) -> Envelope:
    """Build the evaluated envelope for one flavour + timing table."""
    return Envelope(flavour, timing_params(timing),
                    enumerate_paths(flavour, transitions))


class BoundsCertifier(TraceSink):
    """Check every observed span tree against its static envelope.

    Attach to a simulation (``sim.attach``): each access is checked as
    its :meth:`tree` arrives.  Call :meth:`finalize` after the run, then
    read :attr:`findings` / :meth:`counts` / :meth:`ok`.
    """

    wants_spans = True

    def __init__(self, envelope: Envelope,
                 max_witnesses: int = 25) -> None:
        self.envelope = envelope
        self.max_witnesses = max_witnesses
        self.findings: list[Finding] = []
        self.checked = 0
        self._counts: dict[str, int] = {r: 0 for r in BOUNDS_RULES}

    def finalize(self) -> None:
        """End-of-run hook (call once, after the run).  Every tree was
        already checked as it completed, so nothing is left to flush."""

    # -- results --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def ok(self) -> bool:
        return not any(self._counts.values())

    def report(self) -> dict[str, Any]:
        """JSON-ready summary (same finding shape as the linter)."""
        return {
            "flavour": self.envelope.flavour,
            "params": dict(self.envelope.params),
            "spans_checked": self.checked,
            "violations": self.counts(),
            "findings": [
                {"rule": f.rule, "message": f.message, "line": f.line,
                 "detail": f.detail}
                for f in self.findings
            ],
        }

    # -- checking -------------------------------------------------------

    def _record(self, rule: str, message: str, line: int,
                detail: str) -> None:
        self._counts[rule] += 1
        if len(self.findings) < self.max_witnesses:
            self.findings.append(
                Finding(rule=rule, message=message, line=line, detail=detail)
            )

    def tree(self, t0: int, t: int, trace_id: int, root_id: int,
             proc: int, line: int, op: str, level: str, relocs: int,
             names: Sequence[str], starts: Sequence[int],
             ends: Sequence[int]) -> None:
        """Check one completed access against its class's paths."""
        self.checked += 1
        paths = self.envelope.by_class.get((op, level))
        best: Optional[tuple[list[EvalSeg],
                             list[tuple[str, int, EvalSeg]]]] = None
        for path in paths or ():
            matched = Envelope.match(path, names)
            if matched is None:
                continue
            viols: list[tuple[str, int, EvalSeg]] = []
            for seg, start, end in zip(matched, starts, ends):
                _, lo, hi = seg
                dur = end - start
                if hi is not None and dur > hi:
                    viols.append(("B101", dur, seg))
                elif dur < lo:
                    viols.append(("B102", dur, seg))
            if not viols:
                return  # within the envelope of at least one path
            if best is None or len(viols) < len(best[1]):
                best = (path, viols)
        who = (f"P{proc} {op} line {line:#x} -> {level} "
               f"(+{t - t0} ns, trace {trace_id})")
        witness = format_span_tree(tree_events(
            t0, t, trace_id, root_id, proc, line, op, level, relocs,
            names, starts, ends))
        if paths is None:
            self._record(
                "B103",
                f"{who}: no enumerated path for class ({op}, {level})",
                line, witness)
            return
        if best is None:
            candidates = "; ".join(
                " -> ".join(s[0] for s in p) or "(empty)" for p in paths
            )
            self._record(
                "B103",
                f"{who}: phase sequence {' -> '.join(names) or '(empty)'} "
                f"not in the enumerated path set",
                line,
                f"{witness}\nenumerated paths for ({op}, {level}): "
                f"{candidates}")
            return
        path, found = best
        env = " -> ".join(
            f"{n}[{lo},{'∞' if hi is None else hi}]" for n, lo, hi in path
        )
        for rule, dur, (name, lo, hi) in found:
            if rule == "B101":
                msg = f"{who}: phase {name} took {dur} ns, static max {hi} ns"
            else:
                msg = f"{who}: phase {name} took {dur} ns, static min {lo} ns"
            self._record(rule, msg, line,
                         f"{witness}\nclosest static path: {env}")


def certify_bounds(sim: Any, flavour: str,
                   max_witnesses: int = 25) -> BoundsCertifier:
    """Convenience: attach a certifier built from ``sim``'s own timing
    config, run the simulation, and return the finalized certifier."""
    timing = sim.machine.config.timing
    cert = BoundsCertifier(envelope_for(flavour, timing),
                           max_witnesses=max_witnesses)
    sim.attach(cert)
    sim.run()
    cert.finalize()
    return cert
