"""Abstract global-state semantics of the E/O/S/I protocol.

The declarative table in :mod:`repro.coma.protocol` describes one node's
copy of a line.  This module lifts it to a *machine-wide* transition
system over small configurations so the model checker can enumerate every
reachable global state: a global state assigns one of I/S/O/E to each
(line, node) pair, and a step is a locally-triggered event — a load, a
store or an eviction at one node — together with the bus side effects the
table prescribes for every other node.

The lifting rules mirror the simulator exactly:

* a ``local_read``/``local_write`` whose table row carries a bus action
  makes every other node snoop the matching remote event (``read`` →
  ``remote_read``; ``read_excl``/``upgrade`` → ``remote_write``);
* an eviction whose row carries ``replace`` is the accept-based
  relocation: some *receiver* node applies its ``inject`` row, resolved
  against the surviving sharer set (:meth:`Transition.resolved`).  All
  possible receivers are explored nondeterministically;
* evictions of Shared copies are silent local drops.

Lines do not interact (the abstract model has no capacity), so multiple
lines compose as an interleaved product — useful for checking that the
invariants are genuinely per-line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.coma.protocol import TRANSITIONS, Transition
from repro.coma.states import EXCLUSIVE, INVALID, SHARED, state_name

#: Events a node can trigger on its own; the remaining events in
#: :data:`repro.coma.protocol.EVENTS` only ever occur as side effects.
LOCAL_EVENTS = ("local_read", "local_write", "evict")

#: Per-line global state: one protocol state per node.
LineState = tuple[int, ...]
#: Full global state: one LineState per modeled line.
GlobalState = tuple[LineState, ...]


@dataclass(frozen=True)
class Step:
    """One atomic global transition: ``event`` triggered at ``node`` for
    ``line``, relocating into ``receiver`` when the event is an owner
    eviction."""

    line: int
    node: int
    event: str
    receiver: Optional[int] = None

    def describe(self) -> str:
        s = f"node {self.node} {self.event}"
        if self.receiver is not None:
            s += f" -> inject@node {self.receiver}"
        if self.line:
            s += f" [line {self.line}]"
        return s


def format_line_state(states: LineState) -> str:
    return " ".join(state_name(s) for s in states)


def format_global_state(gs: GlobalState) -> str:
    return " | ".join(format_line_state(ls) for ls in gs)


class ProtocolModel:
    """The table lifted to a finite transition system."""

    def __init__(
        self,
        transitions: Sequence[Transition] | Mapping[tuple[int, str], Transition] = TRANSITIONS,
        n_nodes: int = 3,
        n_lines: int = 1,
    ) -> None:
        if n_nodes < 2:
            raise ValueError("the protocol is only meaningful with >= 2 nodes")
        if n_lines < 1:
            raise ValueError("need at least one line")
        if isinstance(transitions, Mapping):
            self.table = dict(transitions)
        else:
            self.table = {(t.state, t.event): t for t in transitions}
        self.n_nodes = n_nodes
        self.n_lines = n_lines

    # ------------------------------------------------------------------
    def initial_state(self) -> GlobalState:
        """Every line freshly materialized at node 0 in Exclusive state —
        exactly what first-touch page allocation produces.  All other
        owner placements are reachable from here by relocation, so one
        symmetric start suffices."""
        ls = (EXCLUSIVE,) + (INVALID,) * (self.n_nodes - 1)
        return (ls,) * self.n_lines

    def _row(self, state: int, event: str) -> Optional[Transition]:
        return self.table.get((state, event))

    # ------------------------------------------------------------------
    def steps(self, gs: GlobalState) -> list[Step]:
        """All steps enabled in ``gs`` (excluding stuck relocations)."""
        out: list[Step] = []
        for line, ls in enumerate(gs):
            for node, state in enumerate(ls):
                for event in LOCAL_EVENTS:
                    row = self._row(state, event)
                    if row is None or row.next_state is None:
                        continue
                    if event == "evict" and row.bus_action == "replace":
                        for rcv in self.receivers(ls, node):
                            out.append(Step(line, node, event, rcv))
                    else:
                        out.append(Step(line, node, event))
        return out

    def stuck_relocations(self, gs: GlobalState) -> list[Step]:
        """Owner evictions that are enabled but have no willing receiver:
        applying one would drop the machine's last copy of the line."""
        out: list[Step] = []
        for line, ls in enumerate(gs):
            for node, state in enumerate(ls):
                row = self._row(state, "evict")
                if row is None or row.next_state is None:
                    continue
                if row.bus_action == "replace" and not self.receivers(ls, node):
                    out.append(Step(line, node, "evict"))
        return out

    def receivers(self, ls: LineState, evictor: int) -> list[int]:
        """Nodes whose ``inject`` row can accept a relocated line."""
        out = []
        for node, state in enumerate(ls):
            if node == evictor:
                continue
            row = self._row(state, "inject")
            if row is not None and row.next_state is not None:
                out.append(node)
        return out

    # ------------------------------------------------------------------
    def apply(self, gs: GlobalState, step: Step) -> GlobalState:
        """The global state after ``step``."""
        ls = list(gs[step.line])
        actor = step.node
        row = self._row(ls[actor], step.event)
        if row is None or row.next_state is None:
            raise ValueError(f"step not enabled: {step.describe()}")

        # Bus side effects: every other node snoops the matching remote
        # event.  (``replace`` is handled below via the receiver.)
        if row.bus_action == "read":
            self._broadcast(ls, actor, "remote_read")
        elif row.bus_action in ("read_excl", "upgrade"):
            self._broadcast(ls, actor, "remote_write")

        ls[actor] = row.next_state

        if step.receiver is not None:
            rcv_row = self._row(ls[step.receiver], "inject")
            if rcv_row is None or rcv_row.next_state is None:
                raise ValueError(f"receiver cannot accept: {step.describe()}")
            sharers_exist = any(
                s == SHARED
                for n, s in enumerate(ls)
                if n not in (actor, step.receiver)
            )
            ls[step.receiver] = rcv_row.resolved(sharers_exist)

        new = list(gs)
        new[step.line] = tuple(ls)
        return tuple(new)

    def _broadcast(self, ls: list[int], actor: int, remote_event: str) -> None:
        for node in range(self.n_nodes):
            if node == actor:
                continue
            row = self._row(ls[node], remote_event)
            if row is not None and row.next_state is not None:
                ls[node] = row.next_state
