"""Protocol table coverage: reachable cells vs cells workloads exercise.

The model checker (:mod:`repro.analysis.model`) proves which
(state, event, sharers) table cells are *reachable* in the abstract
machine; the trace stream shows which cells a concrete workload actually
*exercises*.  Intersecting the two classifies every allowed cell of
:data:`repro.coma.protocol.TRANSITIONS` into one of three buckets:

* **covered** — reachable and observed in at least one trace;
* **gap** — reachable in the model but never exercised by any supplied
  workload (a candidate for a directed micro-workload, see
  :data:`MICRO_RECIPES`);
* **dead** — present in the table but unreachable even in the abstract
  model (a candidate for deletion from the spec).

The unit of coverage is a *cell*: ``(state, event, tag)`` where ``tag``
distinguishes the sharer-dependent ``inject`` outcomes (``alone`` vs
``sharers``) and is ``-`` for every sharer-independent row.  Rows whose
``next_state`` is None (disallowed transitions) are outside the universe:
they cannot fire by construction and :func:`validate_table` already
checks totality.

Mapping the event stream back to table cells needs care because the
machine reports *effects* (state transitions) while the table is keyed by
*causes* at the moment the event hit the old state:

* A ``fill``/``read_exclusive``/``upgrade`` transition names the actor
  cell directly — and arrives *before* the access event for the same
  miss, so the access handler must not re-attribute the access against
  the already-updated mirror (the ``_pending`` mark).
* A supplier that degrades E→O emits a ``remote_read`` transition; a
  supplier that is *already* Owner serves the read silently (O is a
  fixpoint of ``remote_read``), so that cell is recovered at the
  subsequent remote access event from the mirror (the ``_degraded``
  mark suppresses double counting in the E→O case).
* Hits emit no transition at all: the actor cell is read off the mirror.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.analysis.model import ProtocolModel, Step
from repro.coma.protocol import TRANSITIONS, Transition
from repro.coma.states import SHARED, state_name
from repro.obs.sink import TraceSink

#: One coverage cell: (state letter, event, sharer tag).  ``tag`` is
#: "alone"/"sharers" for the sharer-dependent inject rows, "-" otherwise.
Cell = tuple[str, str, str]

#: Sharer tag for sharer-independent cells.
NO_TAG = "-"

#: Replacement outcomes that displace the copy out of ``src`` (the others
#: either keep the line inside the node — ``to_slc`` — or describe a
#: failed relocation that parks/drops without a donor state change we can
#: attribute beyond the transition events already emitted).
_EVICTING_OUTCOMES = frozenset({"to_sharer", "to_invalid", "to_shared", "cascade"})


def cell_key(cell: Cell) -> str:
    """Stable string form, e.g. ``"O:remote_read"`` / ``"I:inject:alone"``."""
    state, event, tag = cell
    return f"{state}:{event}" if tag == NO_TAG else f"{state}:{event}:{tag}"


def parse_cell(key: str) -> Cell:
    parts = key.split(":")
    if len(parts) == 2:
        return (parts[0], parts[1], NO_TAG)
    if len(parts) == 3:
        return (parts[0], parts[1], parts[2])
    raise ValueError(f"malformed cell key {key!r}")


def _sort_key(cell: Cell) -> tuple[int, str, str]:
    order = {"E": 0, "O": 1, "S": 2, "I": 3}
    return (order.get(cell[0], 9), cell[1], cell[2])


# ---------------------------------------------------------------------------
# The universe: every allowed cell of the table.
# ---------------------------------------------------------------------------

def table_cells(transitions: Sequence[Transition] = TRANSITIONS) -> set[Cell]:
    """All allowed cells, with sharer-dependent rows split in two."""
    cells: set[Cell] = set()
    for t in transitions:
        if t.next_state is None:
            continue
        state = state_name(t.state)
        if t.next_state_sharers is not None and t.next_state_sharers != t.next_state:
            cells.add((state, t.event, "alone"))
            cells.add((state, t.event, "sharers"))
        else:
            cells.add((state, t.event, NO_TAG))
    return cells


# ---------------------------------------------------------------------------
# The reachable set: BFS over the abstract model, recording the cells each
# step fires.  Mirrors ProtocolModel.apply exactly (broadcast first, actor
# next, receiver inject resolved against the surviving sharer set).
# ---------------------------------------------------------------------------

def _step_cells(
    model: ProtocolModel, gs: tuple[tuple[int, ...], ...], step: Step
) -> set[Cell]:
    cells: set[Cell] = set()
    ls = list(gs[step.line])
    actor = step.node
    row = model.table[(ls[actor], step.event)]
    cells.add((state_name(ls[actor]), step.event, NO_TAG))

    remote: Optional[str] = None
    if row.bus_action == "read":
        remote = "remote_read"
    elif row.bus_action in ("read_excl", "upgrade"):
        remote = "remote_write"
    if remote is not None:
        for node, state in enumerate(ls):
            if node == actor:
                continue
            rrow = model.table.get((state, remote))
            if rrow is not None and rrow.next_state is not None:
                cells.add((state_name(state), remote, NO_TAG))
                ls[node] = rrow.next_state
    assert row.next_state is not None  # step came from model.steps()
    ls[actor] = row.next_state

    if step.receiver is not None:
        rcv_state = ls[step.receiver]
        rcv_row = model.table[(rcv_state, "inject")]
        tag = NO_TAG
        if (
            rcv_row.next_state_sharers is not None
            and rcv_row.next_state_sharers != rcv_row.next_state
        ):
            sharers_exist = any(
                s == SHARED
                for n, s in enumerate(ls)
                if n not in (actor, step.receiver)
            )
            tag = "sharers" if sharers_exist else "alone"
        cells.add((state_name(rcv_state), "inject", tag))
    return cells


def reachable_cells(
    transitions: Sequence[Transition] = TRANSITIONS,
    n_nodes: int = 3,
) -> set[Cell]:
    """Every cell fired along some path from the initial global state.

    ``n_nodes=3`` suffices to distinguish alone/sharers inject outcomes
    (actor, receiver, plus one potential surviving sharer) and matches
    the model checker's default configuration.
    """
    model = ProtocolModel(transitions, n_nodes=n_nodes, n_lines=1)
    init = model.initial_state()
    seen = {init}
    frontier = [init]
    cells: set[Cell] = set()
    while frontier:
        gs = frontier.pop()
        for step in model.steps(gs):
            cells |= _step_cells(model, gs, step)
            nxt = model.apply(gs, step)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return cells


# ---------------------------------------------------------------------------
# The exercised set: a TraceSink that maps the concrete event stream back
# to table cells.
# ---------------------------------------------------------------------------

class CoverageMap(TraceSink):
    """Record which table cells a run exercises.

    Maintains a per-line mirror of each node's protocol state (fed by
    transition events) so that hit accesses — which emit no transition —
    can be attributed to the correct ``(state, local_*)`` cell.
    """

    def __init__(self) -> None:
        self.exercised: set[Cell] = set()
        #: line -> {node: state letter}; absent node means Invalid.
        self._mirror: dict[int, dict[int, str]] = {}
        self._node_of: list[int] = []
        #: lines whose actor cell was already recorded by the transition
        #: event of the in-flight miss (fill/upgrade/read_exclusive) —
        #: the matching access event must not re-attribute against the
        #: post-transition mirror.
        self._pending: set[int] = set()
        #: lines whose supplier degraded E->O for the in-flight read —
        #: the access handler must not also record the (already updated)
        #: owner state as a second supplier cell.
        self._degraded: set[int] = set()

    # -- wiring ---------------------------------------------------------

    def bind(self, machine: object) -> None:
        """Learn the processor->node mapping (needed to read the mirror
        at access events, which carry a processor id, not a node id)."""
        config = getattr(machine, "config")
        n = int(getattr(config, "n_processors"))
        node_of: Callable[[int], int] = getattr(config, "node_of_proc")
        self._node_of = [node_of(p) for p in range(n)]

    # -- event handlers -------------------------------------------------

    def transition(self, t: int, node: int, line: int, cause: str,
                   before: str, after: str) -> None:
        if cause == "fill":
            self.exercised.add(("I", "local_read", NO_TAG))
            self._pending.add(line)
        elif cause == "read_exclusive":
            self.exercised.add(("I", "local_write", NO_TAG))
            self._pending.add(line)
        elif cause == "upgrade":
            self.exercised.add((before, "local_write", NO_TAG))
            self._pending.add(line)
        elif cause == "invalidate":
            self.exercised.add((before, "remote_write", NO_TAG))
        elif cause == "remote_read":
            self.exercised.add((before, "remote_read", NO_TAG))
            self._degraded.add(line)
        elif cause == "drop":
            self.exercised.add(("S", "evict", NO_TAG))
        elif cause == "inject":
            tag = "alone" if after == "E" else "sharers"
            self.exercised.add((before, "inject", tag))
        # "materialize" is first-touch page creation, not a table cell.

        mirror = self._mirror.setdefault(line, {})
        if after == "I":
            mirror.pop(node, None)
        else:
            mirror[node] = after

    def access(self, t: int, proc: int, op: str, line: int, level: str,
               latency_ns: int, addr: int = -1) -> None:
        event = "local_read" if op == "r" else "local_write"
        mirror = self._mirror.get(line)
        if level == "remote":
            if op == "r" and line not in self._degraded and mirror:
                # The supplier served the read without a state change:
                # it was already Owner (or the snoop found it Exclusive
                # and the transition event was filtered).  Attribute the
                # silent supply to the owning node's cell.
                node = self._node_of[proc] if proc < len(self._node_of) else -1
                for n, s in mirror.items():
                    if n != node and s in ("E", "O"):
                        self.exercised.add((s, "remote_read", NO_TAG))
                        break
            if line not in self._pending:
                # Uncached fallback paths complete without a fill.
                self.exercised.add(("I", event, NO_TAG))
        elif line not in self._pending:
            node = self._node_of[proc] if proc < len(self._node_of) else -1
            state = (mirror or {}).get(node)
            if state is not None:
                self.exercised.add((state, event, NO_TAG))
        self._pending.discard(line)
        self._degraded.discard(line)

    def replacement(self, t: int, src: int, dst: int, line: int,
                    outcome: str, hops: int) -> None:
        if outcome not in _EVICTING_OUTCOMES:
            return
        mirror = self._mirror.get(line)
        if not mirror:
            return
        state = mirror.pop(src, None)
        if state in ("E", "O"):
            self.exercised.add((state, "evict", NO_TAG))


# ---------------------------------------------------------------------------
# Analysis: classify the universe against reachable + exercised sets.
# ---------------------------------------------------------------------------

class CoverageAnalysis:
    """Aggregate one or more runs' exercised sets into a coverage report."""

    def __init__(
        self,
        transitions: Sequence[Transition] = TRANSITIONS,
        n_nodes: int = 3,
    ) -> None:
        self.n_nodes = n_nodes
        self.universe = table_cells(transitions)
        self.reachable = reachable_cells(transitions, n_nodes=n_nodes) & self.universe
        self.runs: dict[str, set[Cell]] = {}

    def add_run(self, label: str, exercised: Iterable[Cell]) -> None:
        self.runs[label] = set(exercised) & self.universe

    # -- classification -------------------------------------------------

    @property
    def exercised(self) -> set[Cell]:
        out: set[Cell] = set()
        for cells in self.runs.values():
            out |= cells
        return out

    def dead_cells(self) -> list[Cell]:
        """In the table, unreachable even abstractly — deletion candidates."""
        return sorted(self.universe - self.reachable, key=_sort_key)

    def gap_cells(self) -> list[Cell]:
        """Reachable in the model, never exercised by any added run."""
        return sorted(self.reachable - self.exercised, key=_sort_key)

    def covered_cells(self) -> list[Cell]:
        return sorted(self.reachable & self.exercised, key=_sort_key)

    def pct(self, label: Optional[str] = None) -> float:
        ex = self.runs.get(label, set()) if label is not None else self.exercised
        if not self.reachable:
            return 100.0
        return 100.0 * len(ex & self.reachable) / len(self.reachable)

    # -- reporting ------------------------------------------------------

    def report(self) -> dict[str, Any]:
        gaps = self.gap_cells()
        return {
            "n_nodes": self.n_nodes,
            "universe": sorted(cell_key(c) for c in self.universe),
            "reachable": sorted(cell_key(c) for c in self.reachable),
            "covered": [cell_key(c) for c in self.covered_cells()],
            "dead": [cell_key(c) for c in self.dead_cells()],
            "gaps": [
                {
                    "cell": cell_key(c),
                    "micro_workload": _recipe_json(MICRO_RECIPES.get(c)),
                }
                for c in gaps
            ],
            "per_run_pct": {
                label: round(self.pct(label), 2) for label in sorted(self.runs)
            },
            "total_pct": round(self.pct(), 2),
        }


def _recipe_json(
    recipe: Optional[tuple["MicroStep", ...]],
) -> Optional[list[dict[str, Any]]]:
    if recipe is None:
        return None
    return [{"op": op, "proc": proc, "line": line} for op, proc, line in recipe]


def format_coverage(report: Mapping[str, Any]) -> str:
    """Render a coverage report dict as an aligned text table."""
    lines = [
        "Protocol table coverage "
        f"({len(report['reachable'])} reachable cells of "
        f"{len(report['universe'])} allowed, model n_nodes="
        f"{report['n_nodes']})",
        "",
        f"{'cell':<24} {'status':<10} note",
        f"{'-' * 24} {'-' * 10} {'-' * 34}",
    ]
    covered = set(report["covered"])
    dead = set(report["dead"])
    gap_micro = {g["cell"]: g["micro_workload"] for g in report["gaps"]}
    for key in report["universe"]:
        if key in dead:
            status, note = "DEAD", "unreachable in the abstract model"
        elif key in covered:
            status, note = "covered", ""
        elif key in gap_micro:
            status = "GAP"
            note = (
                "directed micro-workload available"
                if gap_micro[key] is not None
                else "no known driving sequence"
            )
        else:
            status, note = "?", ""
        lines.append(f"{key:<24} {status:<10} {note}".rstrip())
    lines.append("")
    for label, pct in sorted(report["per_run_pct"].items()):
        lines.append(f"  {label:<28} {pct:6.2f} % of reachable cells")
    lines.append(f"  {'TOTAL':<28} {report['total_pct']:6.2f} % of reachable cells")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Directed micro-workloads: minimal access sequences that drive one cell.
# ---------------------------------------------------------------------------

#: One scripted access: (op, processor, line index).  Addresses are
#: ``line * line_size`` on the micro machine below.
MicroStep = tuple[str, int, int]

#: Minimal driving sequences on :func:`micro_machine` (4 nodes, one
#: processor per node, one-way attraction memories of 2 sets so line
#: indices 0 and 2 conflict and force relocations).  ``None`` marks a
#: cell with no known driving sequence under the machine's accept
#: policy: a relocation prefers a surviving sharer (``to_sharer``), so
#: an Invalid receiver is only chosen when no sharer exists — which is
#: exactly the ``alone`` outcome.
MICRO_RECIPES: dict[Cell, Optional[tuple[MicroStep, ...]]] = {
    ("E", "local_read", NO_TAG): (("w", 0, 0), ("r", 0, 0)),
    ("E", "local_write", NO_TAG): (("w", 0, 0), ("w", 0, 0)),
    ("E", "remote_read", NO_TAG): (("w", 0, 0), ("r", 1, 0)),
    ("E", "remote_write", NO_TAG): (("w", 0, 0), ("w", 1, 0)),
    ("E", "evict", NO_TAG): (("w", 0, 0), ("w", 0, 2)),
    ("O", "local_read", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("r", 0, 0)),
    ("O", "local_write", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("w", 0, 0)),
    ("O", "remote_read", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("r", 2, 0)),
    ("O", "remote_write", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("w", 2, 0)),
    ("O", "evict", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("w", 0, 2)),
    ("S", "local_read", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("r", 1, 0)),
    ("S", "local_write", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("w", 1, 0)),
    ("S", "remote_write", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("w", 2, 0)),
    ("S", "evict", NO_TAG): (("w", 0, 0), ("r", 1, 0), ("w", 1, 2)),
    ("S", "inject", "alone"): (("w", 0, 0), ("r", 1, 0), ("w", 0, 2)),
    ("S", "inject", "sharers"): (
        ("w", 0, 0), ("r", 1, 0), ("r", 2, 0), ("w", 0, 2),
    ),
    ("I", "local_read", NO_TAG): (("w", 0, 0), ("r", 1, 0)),
    ("I", "local_write", NO_TAG): (("w", 0, 0), ("w", 1, 0)),
    ("I", "inject", "alone"): (("w", 0, 0), ("w", 0, 2)),
    # The accept policy always prefers a surviving sharer, so an Invalid
    # receiver never coexists with sharers on the concrete machine.
    ("I", "inject", "sharers"): None,
    # (S, remote_read) is structurally dead on the concrete machine: the
    # supplier lookup targets the owner, so a Shared copy never observes
    # the snoop.  Reachable abstractly — a permanent, documented gap.
    ("S", "remote_read", NO_TAG): None,
}


def micro_machine():  # type: ignore[no-untyped-def]
    """A 4-node machine with exactly-controlled conflict geometry: one
    processor per node, one-way AMs of 2 sets (line indices with equal
    parity conflict), single-line SLC/L1, one line per page so each line
    is homed at its first toucher."""
    from repro.coma.machine import ComaMachine
    from repro.common.config import MachineConfig, TimingConfig
    from repro.mem.address import AddressSpace

    line = 64
    cfg = MachineConfig(
        n_processors=4,
        procs_per_node=1,
        line_size=line,
        page_size=line,
        am_assoc=1,
        memory_pressure=Fraction(1, 2),
        am_bytes_per_node=2 * line,
        slc_bytes=line,
        l1_bytes=line,
        timing=TimingConfig(),
    )
    space = AddressSpace(page_size=line)
    space.alloc(1 << 16, "micro")
    return ComaMachine(cfg, space)


def run_micro(
    steps: Sequence[MicroStep], machine=None  # type: ignore[no-untyped-def]
) -> CoverageMap:
    """Execute a scripted sequence and return the exercised-cell map."""
    from repro.sim.simulator import Simulation

    m = machine if machine is not None else micro_machine()
    cov = CoverageMap()
    Simulation(m, []).attach(cov)
    t = 0
    for op, proc, line_ix in steps:
        addr = line_ix * m.config.line_size
        if op == "r":
            m.read(proc, addr, t)
        else:
            m.write_stalling(proc, addr, t)
        t += 10_000
    return cov


__all__ = [
    "Cell",
    "CoverageAnalysis",
    "CoverageMap",
    "MICRO_RECIPES",
    "MicroStep",
    "cell_key",
    "format_coverage",
    "micro_machine",
    "parse_cell",
    "reachable_cells",
    "run_micro",
    "table_cells",
]
