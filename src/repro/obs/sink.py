"""The :class:`TraceSink` receiver interface: the one observation channel.

Machines, their buses and the simulation kernel hold one ``obs``
attribute that is ``None`` by default; every emission site is guarded by
a single

    if obs is not None:
        obs.access(...)

so a run with nothing attached costs one local load and an ``is``-check
per site — no event objects are ever allocated.
:meth:`repro.sim.simulator.Simulation.attach` is the only way in: it
composes every attached sink into one :class:`TeeSink` — a
:class:`repro.obs.spans.SpanBuilder`, the tee that also builds span
trees, when any of them wants spans.

Every entry point of :class:`TraceSink` does nothing: a sink overrides
the typed calls it reads, and nothing else reaches it.  Sinks that keep
or write whole events (the collector, the JSONL writer, the flight
recorder, line biographies, the coherence sanitizer) derive from
:class:`EventSink`, the one adapter that turns typed calls into event
dataclasses and hands each to :meth:`EventSink.emit`.  A completed span
tree arrives whole through :meth:`TraceSink.tree`; :func:`expand_tree`
turns it into one :meth:`TraceSink.span` call per span for sinks that
draw or keep spans one by one.  An access the simulation kernel retires
on its fused hit path arrives as one :meth:`TraceSink.hit` call, which
by default is the :meth:`~TraceSink.begin` + :meth:`~TraceSink.access`
pair the machine's own path makes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.events import (
    BusTx,
    MemAccess,
    Replacement,
    SpanEvent,
    SyncOp,
    SyncStall,
    Transition,
)


class TraceSink:
    """The receiver interface: every entry point is a no-op, and
    :meth:`hit` is the :meth:`begin` + :meth:`access` pair."""

    #: Span emission is opt-in: building a span tree per access costs
    #: allocations the classic flat events avoid, so ``Simulation.attach``
    #: only installs a :class:`repro.obs.spans.SpanBuilder` when an
    #: attached sink asks for it.  Sinks that consume span events set
    #: this True (class attribute or per instance).
    wants_spans = False

    def bind(self, machine) -> None:
        """Learn the machine's shape before the first event (called by
        ``Simulation.attach``)."""

    # -- emission API used by the instrumented machines ----------------

    def access(self, t: int, proc: int, op: str, line: int,
               level: str, latency_ns: int, addr: int = -1) -> None:
        """One processor operation completed (:class:`MemAccess`)."""

    def hit(self, t: int, proc: int, op: str, line: int, level: str,
            latency_ns: int, addr: int = -1) -> None:
        """One access the kernel retired on its fused hit path: an L1
        read hit or a posted write to an owned, SLC-resident line.  It
        has no phase checkpoints, so it is the :meth:`begin` +
        :meth:`access` pair the machine's path emits, and that is what
        it does unless overridden."""
        self.begin(t, proc, op, line, addr)
        self.access(t, proc, op, line, level, latency_ns, addr)

    def transition(self, t: int, node: int, line: int, cause: str,
                   before: str, after: str) -> None:
        """One protocol state change (:class:`Transition`)."""

    def bus(self, t: int, bus: str, tx: str, cls: str, nbytes: int,
            origin: int, line: int) -> None:
        """One metered bus transaction (:class:`BusTx`)."""

    def replacement(self, t: int, src: int, dst: int, line: int,
                    outcome: str, hops: int) -> None:
        """One replacement step (:class:`Replacement`)."""

    def sync(self, t: int, proc: int, primitive: str, obj: int,
             wait_ns: int) -> None:
        """One completed lock or barrier wait (:class:`SyncStall`)."""

    def syncop(self, t: int, proc: int, op: str, primitive: str,
               obj: int) -> None:
        """One synchronization ordering point (:class:`SyncOp`)."""

    def span(self, t: int, dur_ns: int, trace_id: int, span_id: int,
             parent_id: int, name: str, proc: int, line: int, op: str,
             level: str, relocs: int = 0) -> None:
        """One span of a span tree (:class:`SpanEvent`)."""

    def tree(self, t0: int, t: int, trace_id: int, root_id: int,
             proc: int, line: int, op: str, level: str, relocs: int,
             names: Sequence[str], starts: Sequence[int],
             ends: Sequence[int]) -> None:
        """One completed access's span tree, delivered whole.

        The root covers ``[t0, t]``; phase ``i`` covers
        ``[starts[i], ends[i]]``.  The three lists belong to the caller
        and are reused: copy what you keep.  :func:`expand_tree` turns
        the tree into :meth:`span` calls.
        """

    # -- facts no event carries -----------------------------------------

    def bus_phase(self, bus: str, wait_ns: int, busy_ns: int) -> None:
        """One bus phase waited ``wait_ns`` for arbitration and then
        occupied ``bus`` for ``busy_ns``."""

    def begin(self, t: int, proc: int, op: str, line: int,
              addr: int = -1) -> None:
        """An access is issued at ``t`` (a span checkpoint)."""

    def phase(self, name: str, t: int) -> None:
        """The in-flight access finished phase ``name`` at ``t`` (a span
        checkpoint)."""

    def run_end(self, t: int, events: int, machine) -> None:
        """The run completed at simulated time ``t`` after ``events``
        workload events."""

    # -- sink lifecycle -------------------------------------------------

    def close(self) -> None:
        """Flush and release resources (file-backed sinks)."""

    def on_simulation_error(self, exc: BaseException) -> Optional[str]:
        """Hook called by the simulation kernel when a run dies.

        The flight recorder overrides this to dump its buffer; the return
        value (a rendered dump, or None) is attached to the exception as
        ``exc.flight_dump`` by the kernel.
        """
        return None


def expand_tree(sink: TraceSink, t0: int, t: int, trace_id: int,
                root_id: int, proc: int, line: int, op: str, level: str,
                relocs: int, names: Sequence[str], starts: Sequence[int],
                ends: Sequence[int]) -> None:
    """Deliver one :meth:`TraceSink.tree` to ``sink`` as :meth:`span`
    calls: the root (``root_id``, parent 0, carrying ``relocs``), then
    each phase in order with ids ``root_id + 1`` onwards and parent
    ``root_id``."""
    sink.span(t0, t - t0, trace_id, root_id, 0, "access", proc, line, op,
              level, relocs)
    span_id = root_id
    for name, start, end in zip(names, starts, ends):
        span_id += 1
        sink.span(start, end - start, trace_id, span_id, root_id, name,
                  proc, line, op, level)


class EventSink(TraceSink):
    """The adapter from typed calls to event objects.

    Each typed call builds its event dataclass and passes it to
    :meth:`emit`, which subclasses implement; a span tree arrives as its
    span events, root first.  Only sinks that keep or write whole events
    derive from it, so no other observer pays for the objects.
    """

    def access(self, t, proc, op, line, level, latency_ns, addr=-1):
        self.emit(MemAccess(t, proc, op, line, level, latency_ns, addr))

    def transition(self, t, node, line, cause, before, after):
        self.emit(Transition(t, node, line, cause, before, after))

    def bus(self, t, bus, tx, cls, nbytes, origin, line):
        self.emit(BusTx(t, bus, tx, cls, nbytes, origin, line))

    def replacement(self, t, src, dst, line, outcome, hops):
        self.emit(Replacement(t, src, dst, line, outcome, hops))

    def sync(self, t, proc, primitive, obj, wait_ns):
        self.emit(SyncStall(t, proc, primitive, obj, wait_ns))

    def syncop(self, t, proc, op, primitive, obj):
        self.emit(SyncOp(t, proc, op, primitive, obj))

    def span(self, t, dur_ns, trace_id, span_id, parent_id, name, proc,
             line, op, level, relocs=0):
        self.emit(SpanEvent(t, dur_ns, trace_id, span_id, parent_id,
                            name, proc, line, op, level, relocs))

    tree = expand_tree

    def emit(self, ev) -> None:
        raise NotImplementedError


class CollectorSink(EventSink):
    """Keep every event in a list (tests, in-process analysis)."""

    def __init__(self, wants_spans: bool = False) -> None:
        self.events: list = []
        if wants_spans:
            self.wants_spans = True

    def emit(self, ev) -> None:
        self.events.append(ev)

    def of_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]


def tree_events(t0: int, t: int, trace_id: int, root_id: int, proc: int,
                line: int, op: str, level: str, relocs: int,
                names: Sequence[str], starts: Sequence[int],
                ends: Sequence[int]) -> list[SpanEvent]:
    """One :meth:`TraceSink.tree` as the span events :func:`expand_tree`
    delivers (root first) — for consumers that keep a tree."""
    sink = CollectorSink()
    sink.tree(t0, t, trace_id, root_id, proc, line, op, level, relocs,
              names, starts, ends)
    return sink.events


#: The typed calls a :class:`TeeSink` forwards: each only to the members
#: whose class overrides it.
_FORWARDED = ("access", "transition", "bus", "replacement", "sync",
              "syncop", "span", "tree", "bus_phase", "run_end")


def _overrides(sink, name: str) -> bool:
    """Whether ``sink``'s class overrides :class:`TraceSink`'s no-op
    ``name``."""
    base = getattr(TraceSink, name)
    return getattr(type(sink), name, base) is not base


class TeeSink(TraceSink):
    """Fan every call out to several observers, in attach order.

    The one composite of the observation channel: ``Simulation.attach``
    tees trace sinks into the ``obs`` slot and sampling profilers into
    the ``profiler`` slot with it.  Typed calls are forwarded as typed
    calls, so each member sees exactly what it would see alone, and each
    goes only to the members that override it: a call no member reads
    costs one loop over an empty list.  Checkpoints (``begin``, ``phase``)
    are not forwarded; a fused :meth:`hit` reaches a member as its own
    ``hit`` if it overrides it, else as ``access``.
    """

    def __init__(self, *sinks) -> None:
        self.sinks = list(sinks)
        self._route()

    def add(self, sink) -> None:
        """Append ``sink`` after the current members."""
        self.sinks.append(sink)
        self._route()

    def _route(self) -> None:
        """Bind, per forwarded call, the members that read it."""
        for name in _FORWARDED:
            setattr(self, "_" + name, [getattr(s, name) for s in self.sinks
                                       if _overrides(s, name)])
        self._hit = [s.hit if _overrides(s, "hit") else s.access
                     for s in self.sinks
                     if _overrides(s, "hit") or _overrides(s, "access")]

    def bind(self, machine) -> None:
        for s in self.sinks:
            s.bind(machine)

    def access(self, t, proc, op, line, level, latency_ns, addr=-1):
        for f in self._access:
            f(t, proc, op, line, level, latency_ns, addr)

    def hit(self, t, proc, op, line, level, latency_ns, addr=-1):
        for f in self._hit:
            f(t, proc, op, line, level, latency_ns, addr)

    def transition(self, t, node, line, cause, before, after):
        for f in self._transition:
            f(t, node, line, cause, before, after)

    def bus(self, t, bus, tx, cls, nbytes, origin, line):
        for f in self._bus:
            f(t, bus, tx, cls, nbytes, origin, line)

    def replacement(self, t, src, dst, line, outcome, hops):
        for f in self._replacement:
            f(t, src, dst, line, outcome, hops)

    def sync(self, t, proc, primitive, obj, wait_ns):
        for f in self._sync:
            f(t, proc, primitive, obj, wait_ns)

    def syncop(self, t, proc, op, primitive, obj):
        for f in self._syncop:
            f(t, proc, op, primitive, obj)

    def span(self, t, dur_ns, trace_id, span_id, parent_id, name, proc,
             line, op, level, relocs=0):
        for f in self._span:
            f(t, dur_ns, trace_id, span_id, parent_id, name, proc, line, op,
              level, relocs)

    def tree(self, t0, t, trace_id, root_id, proc, line, op, level, relocs,
             names, starts, ends):
        for f in self._tree:
            f(t0, t, trace_id, root_id, proc, line, op, level, relocs,
              names, starts, ends)

    def bus_phase(self, bus, wait_ns, busy_ns):
        for f in self._bus_phase:
            f(bus, wait_ns, busy_ns)

    def run_end(self, t, events, machine):
        for f in self._run_end:
            f(t, events, machine)

    def sample(self, machine) -> None:
        """The profiler hook: every member takes its periodic sample."""
        for s in self.sinks:
            s.sample(machine)

    def close(self) -> None:
        for s in self.sinks:
            s.close()

    def on_simulation_error(self, exc: BaseException) -> Optional[str]:
        dump = None
        for s in self.sinks:
            dump = s.on_simulation_error(exc) or dump
        return dump


def tee(current, observer):
    """``current`` (None, one observer or a :class:`TeeSink`) with
    ``observer`` added after its members."""
    if current is None:
        return observer
    if isinstance(current, TeeSink):
        current.add(observer)
        return current
    return TeeSink(current, observer)
