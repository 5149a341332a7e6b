"""Line biographies: the full history of one cache line.

The COMA protocol's interesting behaviour — a line degrading E->O as it
gets shared, bouncing between attraction memories under replacement
pressure, getting erased by an upgrade — is per *line*, but a raw trace
interleaves every line's events.  :class:`LineBiography` indexes a trace
by line and reconstructs the owner/sharer set event by event, which is
what ``coma-sim explain --line`` prints.
"""

from __future__ import annotations

from repro.obs.events import EV_REPLACEMENT, EV_TRANSITION, format_event
from repro.obs.sink import EventSink

#: Transition causes after which the acting node is the (sole) owner.
_TAKES_OWNERSHIP = frozenset({
    "materialize", "read_exclusive", "upgrade", "inject",
})


class LineBiography(EventSink):
    """Index every line-bearing event by line number."""

    def __init__(self) -> None:
        self._by_line: dict[int, list] = {}

    def emit(self, ev) -> None:
        line = getattr(ev, "line", -1)
        if line >= 0:
            self._by_line.setdefault(line, []).append(ev)

    # ------------------------------------------------------------------
    def lines(self) -> list[int]:
        """Traced lines, busiest first (ties broken by line number)."""
        return sorted(self._by_line, key=lambda ln: (-len(self._by_line[ln]), ln))

    def history(self, line: int) -> list:
        """Every event that touched ``line``, in emission order."""
        return list(self._by_line.get(line, ()))

    # ------------------------------------------------------------------
    def narrate(self, line: int) -> str:
        """Render ``line``'s history with the owner/sharer set it implies.

        The reconstruction follows the protocol: materialization, upgrades,
        read-exclusive fills and replacement injects move ownership; Shared
        fills add sharers; invalidations and silent drops remove copies.
        """
        events = sorted(self.history(line), key=lambda e: e.t)
        if not events:
            busiest = ", ".join(f"{ln:#x}" for ln in self.lines()[:8])
            hint = f" (busiest traced lines: {busiest})" if busiest else ""
            return f"line {line:#x}: no trace events{hint}"
        owner = None
        sharers: set[int] = set()
        out = [f"line {line:#x}: {len(events)} event(s)"]
        for ev in events:
            annotate = ""
            if ev.kind == EV_TRANSITION:
                owner, sharers = _apply(ev, owner, sharers)
                annotate = "   | " + _membership(owner, sharers)
            elif ev.kind == EV_REPLACEMENT and ev.dst >= 0 and owner == ev.src:
                # The matching inject transition also moves ownership; the
                # replacement event just records *why* (outcome, hops).
                annotate = "   | " + _membership(ev.dst, sharers)
            out.append(format_event(ev) + annotate)
        out.append(f"final: {_membership(owner, sharers)}")
        return "\n".join(out)


def _apply(ev, owner, sharers):
    """Fold one protocol transition into the (owner, sharers) picture."""
    node = ev.node
    if ev.cause in _TAKES_OWNERSHIP:
        owner = node
        sharers = {s for s in sharers if s != node}
        if ev.cause in ("upgrade", "read_exclusive"):
            sharers = set()
    elif ev.cause == "fill" and ev.after == "S":
        sharers = sharers | {node}
    elif ev.cause in ("invalidate", "drop"):
        sharers = {s for s in sharers if s != node}
        if owner == node:
            owner = None
    # "remote_read" (E->O) leaves membership unchanged.
    return owner, sharers


def _membership(owner, sharers) -> str:
    own = f"N{owner}" if owner is not None else "?"
    shr = "{" + ",".join(f"N{s}" for s in sorted(sharers)) + "}"
    return f"owner={own} sharers={shr}"
