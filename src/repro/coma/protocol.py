"""Declarative specification of the E/O/S/I coherence protocol.

The executable machine lives in :mod:`repro.coma.machine`; this module
states the protocol as data — the local-state transition table for every
(state, event) pair — and provides a reference oracle the test suite uses
to cross-validate the machine's behaviour.  It also renders the table as
text for documentation (``coma-sim protocol``).

Events, from the perspective of one node's copy of a line:

=============  ==========================================================
event          meaning
=============  ==========================================================
local_read     a processor in this node loads the line
local_write    a processor in this node stores to the line
remote_read    another node's read miss is snooped on the bus
remote_write   another node's upgrade/read-exclusive is snooped
evict          the replacement engine displaces this copy
inject         an evicted owner line is accepted into this node
=============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.coma.states import EXCLUSIVE, INVALID, OWNER, SHARED, state_name
from repro.common.errors import ProtocolError

EVENTS = (
    "local_read",
    "local_write",
    "remote_read",
    "remote_write",
    "evict",
    "inject",
)

STATES = (INVALID, SHARED, OWNER, EXCLUSIVE)


@dataclass(frozen=True)
class Transition:
    """One row of the protocol table.

    ``next_state`` is the resulting state when, after the event, no *other*
    node holds a Shared copy of the line; ``next_state_sharers`` (when not
    None) is the resulting state when sharers remain.  Only the ``inject``
    rows are sharer-dependent: a node accepting a relocated owner ends up
    Exclusive when it receives the only copy in the machine and Owner when
    replicas survive elsewhere.  Use :meth:`resolved` / :func:`resolved_next`
    to pick the right one.
    """

    state: int
    event: str
    next_state: Optional[int]  # None = transition not allowed / no copy
    bus_action: str            # "", "read", "read_excl", "upgrade", "replace"
    notes: str = ""
    next_state_sharers: Optional[int] = None

    def resolved(self, sharers_exist: bool) -> Optional[int]:
        """Next state given whether other sharers hold the line."""
        if sharers_exist and self.next_state_sharers is not None:
            return self.next_state_sharers
        return self.next_state


#: The complete table.  ``INVALID + local_*`` covers the miss paths.
TRANSITIONS: tuple[Transition, ...] = (
    # Invalid (no copy in this node)
    Transition(INVALID, "local_read", SHARED, "read",
               "fetch a replica; supplier stays owner (E degrades to O)"),
    Transition(INVALID, "local_write", EXCLUSIVE, "read_excl",
               "fetch and erase every other copy"),
    Transition(INVALID, "remote_read", None, "", "not involved"),
    Transition(INVALID, "remote_write", None, "", "not involved"),
    Transition(INVALID, "evict", None, "", "nothing to evict"),
    Transition(INVALID, "inject", EXCLUSIVE, "replace",
               "accepts a relocated owner",
               next_state_sharers=OWNER),
    # Shared
    Transition(SHARED, "local_read", SHARED, "", "hit"),
    Transition(SHARED, "local_write", EXCLUSIVE, "upgrade",
               "erase other copies, take ownership"),
    Transition(SHARED, "remote_read", SHARED, "", "owner supplies, not us"),
    Transition(SHARED, "remote_write", INVALID, "", "erased"),
    Transition(SHARED, "evict", INVALID, "",
               "dropped silently: an owner exists elsewhere"),
    Transition(SHARED, "inject", EXCLUSIVE, "replace",
               "sharer takeover: ownership moves here without data",
               next_state_sharers=OWNER),
    # Owner (shared copies may exist elsewhere)
    Transition(OWNER, "local_read", OWNER, "", "hit"),
    Transition(OWNER, "local_write", EXCLUSIVE, "upgrade",
               "erase the replicas"),
    Transition(OWNER, "remote_read", OWNER, "", "supplies the data"),
    Transition(OWNER, "remote_write", INVALID, "", "erased by new owner"),
    Transition(OWNER, "evict", INVALID, "replace",
               "must be relocated (accept-based receiver search)"),
    Transition(OWNER, "inject", None, "", "cannot hold a second copy"),
    # Exclusive (the only copy in the machine)
    Transition(EXCLUSIVE, "local_read", EXCLUSIVE, "", "hit"),
    Transition(EXCLUSIVE, "local_write", EXCLUSIVE, "", "silent"),
    Transition(EXCLUSIVE, "remote_read", OWNER, "",
               "supplies the data, a replica now exists"),
    Transition(EXCLUSIVE, "remote_write", INVALID, "", "erased by new owner"),
    Transition(EXCLUSIVE, "evict", INVALID, "replace",
               "must be relocated — the only copy"),
    Transition(EXCLUSIVE, "inject", None, "", "cannot hold a second copy"),
)

_TABLE = {(t.state, t.event): t for t in TRANSITIONS}


def transition(state: int, event: str) -> Transition:
    """Look up the table entry for ``(state, event)``."""
    try:
        return _TABLE[(state, event)]
    except KeyError:
        raise KeyError(f"no transition for ({state_name(state)}, {event})") from None


def next_state(state: int, event: str) -> Optional[int]:
    return transition(state, event).next_state


def resolved_next(state: int, event: str, sharers_exist: bool) -> Optional[int]:
    """Next state for ``(state, event)`` given the machine-wide sharer set.

    ``sharers_exist`` must be True when, after the event completes, at
    least one *other* node still holds a Shared copy of the line.
    """
    return transition(state, event).resolved(sharers_exist)


def is_complete() -> bool:
    """Every (state, event) pair must be specified."""
    return all((s, e) in _TABLE for s in STATES for e in EVENTS)


#: Timing parameters each bus action's latency model consults.  A
#: config that leaves one of these unset (or negative) would silently
#: miscount simulated time, so ``validate_table(timing=...)`` rejects it
#: when a machine is built (see ``ComaMachine.__init__``).
ACTION_TIMING_PARAMS: dict[str, tuple[str, ...]] = {
    "read": ("nc_ns", "bus_phase_ns", "dram_latency_ns",
             "remote_overhead_ns"),
    "read_excl": ("nc_ns", "bus_phase_ns", "dram_latency_ns",
                  "remote_overhead_ns"),
    "upgrade": ("nc_ns", "bus_phase_ns"),
    "replace": ("nc_ns", "bus_phase_ns", "dram_latency_ns"),
}


def validate_table(transitions: Iterable[Transition] = TRANSITIONS,
                   timing: object = None) -> None:
    """Check the table is *total*: every (state, event) pair present exactly
    once, no row for an unknown state, event or bus action.  Raises
    :class:`~repro.common.errors.ProtocolError` on the first defect.

    With ``timing`` (a :class:`~repro.common.config.TimingConfig` or
    anything attribute-compatible), additionally checks that every bus
    action the table references has its timing parameters present and
    non-negative — the error names the (action, parameter) pair.

    Runs at import time (totality only) so a malformed table can never
    drive a simulation; ``ComaMachine`` re-runs it with the machine's
    timing config.
    """
    transitions = tuple(transitions)
    seen: dict[tuple[int, str], Transition] = {}
    for t in transitions:
        if t.state not in STATES:
            raise ProtocolError(
                f"({state_name(t.state)}, {t.event}): unknown state "
                f"{t.state!r} — states are I/S/O/E = 0..3"
            )
        if t.event not in EVENTS:
            raise ProtocolError(
                f"({state_name(t.state)}, {t.event}): unknown event "
                f"{t.event!r} — events are {', '.join(EVENTS)}"
            )
        if t.bus_action and t.bus_action not in ACTION_TIMING_PARAMS:
            raise ProtocolError(
                f"({state_name(t.state)}, {t.event}): unknown bus action "
                f"{t.bus_action!r} — actions are {', '.join(ACTION_TIMING_PARAMS)}"
            )
        key = (t.state, t.event)
        if key in seen:
            raise ProtocolError(
                f"({state_name(t.state)}, {t.event}): duplicate transition "
                f"row — already defined as next={seen[key].next_state!r}"
            )
        seen[key] = t
    for s in STATES:
        for e in EVENTS:
            if (s, e) not in seen:
                raise ProtocolError(
                    f"protocol table not total: missing ({state_name(s)}, {e})"
                )
    if timing is not None:
        referenced = sorted({t.bus_action for t in transitions
                             if t.bus_action})
        for action in referenced:
            for param in ACTION_TIMING_PARAMS[action]:
                value = getattr(timing, param, None)
                if value is None:
                    raise ProtocolError(
                        f"action {action!r}: timing parameter {param} is "
                        f"missing from {type(timing).__name__}"
                    )
                if value < 0:
                    raise ProtocolError(
                        f"action {action!r}: timing parameter {param} is "
                        f"negative ({value})"
                    )


def format_table() -> str:
    """Render the protocol table for documentation.

    A sharer-dependent next state renders as ``alone/shr`` — e.g. ``E/O``
    means Exclusive when no other sharer survives, Owner otherwise.
    """
    lines = [
        "E/O/S/I protocol transition table (one node's copy of a line)",
        f"{'state':>6s} {'event':13s} {'next':>5s} {'bus':10s} notes",
        "-" * 78,
    ]
    for t in TRANSITIONS:
        nxt = state_name(t.next_state) if t.next_state is not None else "-"
        if t.next_state_sharers is not None and t.next_state_sharers != t.next_state:
            nxt = f"{nxt}/{state_name(t.next_state_sharers)}"
        lines.append(
            f"{state_name(t.state):>6s} {t.event:13s} {nxt:>5s} "
            f"{t.bus_action or '-':10s} {t.notes}"
        )
    return "\n".join(lines)


validate_table()
