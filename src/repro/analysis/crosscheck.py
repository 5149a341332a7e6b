"""Cross-validation of the executable machine against the protocol table.

The model checker proves the *table* sound; this pass proves the
*simulator implements the table*.  Two sub-passes:

* :func:`crosscheck_sequences` — exhaustively drives a real
  :class:`~repro.coma.machine.ComaMachine` through every read/write
  sequence up to a bounded depth on one line (one processor per node,
  roomy attraction memories so no eviction interferes) and compares the
  per-node attraction-memory states after every operation against the
  abstract model's prediction.  Any divergence is a ``C001`` finding
  carrying the offending operation sequence.

* :func:`crosscheck_relocations` — scripted single-set scenarios that
  force the evict/inject paths the sequence pass cannot reach (accept to
  an invalid way, sharer takeover with and without surviving sharers,
  relocation of an Owner whose sharers all dropped silently) and check
  the receiving node's state against the table's resolved ``inject``
  row.  Divergences are ``C002`` findings.

Both run in well under a second and are part of ``coma-sim verify``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from repro.analysis.model import ProtocolModel, Step, format_line_state
from repro.analysis.report import AnalysisReport, Finding
from repro.coma.machine import ComaMachine
from repro.coma.states import EXCLUSIVE, INVALID, OWNER, SHARED
from repro.coma import protocol
from repro.common.config import MachineConfig, TimingConfig
from repro.mem.address import AddressSpace

LINE_SIZE = 64


def _machine(
    nodes: int,
    am_sets: int = 8,
    am_assoc: int = 4,
    page_lines: int = 1,
) -> ComaMachine:
    """A one-processor-per-node machine with exactly controlled geometry."""
    cfg = MachineConfig(
        n_processors=nodes,
        procs_per_node=1,
        line_size=LINE_SIZE,
        page_size=page_lines * LINE_SIZE,
        am_assoc=am_assoc,
        memory_pressure=Fraction(1, 2),
        am_bytes_per_node=am_sets * am_assoc * LINE_SIZE,
        slc_bytes=4 * LINE_SIZE,
        l1_bytes=2 * LINE_SIZE,
        inclusive=True,
        timing=TimingConfig(),
    )
    space = AddressSpace(page_size=cfg.page_size)
    space.alloc(1 << 20, "crosscheck")
    return ComaMachine(cfg, space)


def _am_states(m: ComaMachine, line: int) -> tuple[int, ...]:
    """Per-node attraction-memory state of ``line`` (I when absent)."""
    return tuple(node.am.state_of(line) for node in m.nodes)


# ----------------------------------------------------------------------
# pass A: exhaustive read/write sequences
# ----------------------------------------------------------------------

def crosscheck_sequences(nodes: int = 3, depth: int = 3) -> AnalysisReport:
    """Compare machine vs. model for every op sequence up to ``depth``.

    Ops are ``(kind, node)`` with one processor per node; the first op
    materializes the line Exclusive at its node (first-touch paging),
    matching the model's initial state, so the model is seeded from the
    first op and stepped for each subsequent one.
    """
    report = AnalysisReport()
    model = ProtocolModel(n_nodes=nodes)
    ops = [(kind, n) for kind in "rw" for n in range(nodes)]
    checked = 0
    for length in range(1, depth + 1):
        for seq in itertools.product(ops, repeat=length):
            finding = _run_sequence(model, nodes, seq)
            checked += 1
            if finding is not None:
                report.findings.append(finding)
                report.stats["sequences"] = checked
                return report  # first divergence is the clearest one
    report.stats["sequences"] = checked
    return report


def _run_sequence(model, nodes, seq):
    m = _machine(nodes)
    first_kind, first_node = seq[0]
    line_states = (
        (EXCLUSIVE,) + (INVALID,) * (nodes - 1)
        if first_node == 0
        else tuple(
            EXCLUSIVE if n == first_node else INVALID for n in range(nodes)
        )
    )
    t = 0
    for i, (kind, node) in enumerate(seq):
        if kind == "r":
            t, _ = m.read(node, 0, t)
        else:
            t = m.write(node, 0, t)
        if i > 0:
            event = "local_read" if kind == "r" else "local_write"
            (line_states,) = model.apply(
                (line_states,), Step(0, node, event)
            )
        actual = _am_states(m, 0)
        if actual != line_states:
            ops_text = " ".join(f"{k}@n{n}" for k, n in seq[: i + 1])
            return Finding(
                rule="C001",
                message="machine diverges from the protocol table",
                path="crosscheck",
                detail=(
                    f"sequence: {ops_text}\n"
                    f"table predicts: {format_line_state(line_states)}\n"
                    f"machine holds:  {format_line_state(actual)}"
                ),
            )
        m.check_consistency()
    return None


# ----------------------------------------------------------------------
# pass B: scripted relocation scenarios
# ----------------------------------------------------------------------

def crosscheck_relocations() -> AnalysisReport:
    """Force each evict/inject path and check the table's resolved state."""
    report = AnalysisReport()
    scenarios = (
        _relocate_to_invalid_way,
        _takeover_by_last_sharer,
        _takeover_with_surviving_sharer,
        _relocate_owner_without_sharers,
    )
    for scenario in scenarios:
        finding = scenario()
        report.stats["scenarios"] = report.stats.get("scenarios", 0) + 1
        if finding is not None:
            report.findings.append(finding)
    return report


def _c002(name: str, want: int, got: int, node: int) -> Finding:
    return Finding(
        rule="C002",
        message=f"relocation scenario {name!r} diverges from the table",
        path="crosscheck",
        detail=(
            f"receiving node {node}: table resolves inject to "
            f"{protocol.state_name(want)}, machine installed "
            f"{protocol.state_name(got)}"
        ),
    )


def _relocate_to_invalid_way():
    """E evicted into another node's invalid way: I + inject, no sharers."""
    m = _machine(2, am_sets=1, am_assoc=1)
    m.write(0, 0, 0)                   # node 0 owns line 0 (E)
    m.write(0, LINE_SIZE, 1000)        # single way: line 0 relocates to node 1
    want = protocol.resolved_next(INVALID, "inject", sharers_exist=False)
    got = _am_states(m, 0)[1]
    m.check_consistency()
    return None if got == want else _c002("invalid-way", want, got, 1)


def _takeover_by_last_sharer():
    """Owner evicts while one sharer exists: S + inject, taker now alone."""
    m = _machine(2, am_sets=1, am_assoc=1)
    m.write(0, 0, 0)                   # node 0: E
    m.read(1, 0, 1000)                 # node 1: S, node 0: O
    m.write(0, LINE_SIZE, 2000)        # node 0 evicts -> sharer takeover
    want = protocol.resolved_next(SHARED, "inject", sharers_exist=False)
    got = _am_states(m, 0)[1]
    m.check_consistency()
    return None if got == want else _c002("takeover-last", want, got, 1)


def _takeover_with_surviving_sharer():
    """Takeover while another sharer survives: S + inject with sharers."""
    m = _machine(3, am_sets=1, am_assoc=1)
    m.write(0, 0, 0)                   # node 0: E
    m.read(1, 0, 1000)                 # node 1: S
    m.read(2, 0, 2000)                 # node 2: S, node 0: O
    m.write(0, LINE_SIZE, 3000)        # node 0 evicts -> node 1 takes over
    want = protocol.resolved_next(SHARED, "inject", sharers_exist=True)
    states = _am_states(m, 0)
    m.check_consistency()
    if states[1] != want:
        return _c002("takeover-shared", want, states[1], 1)
    if states[2] != SHARED:
        return _c002("takeover-shared", SHARED, states[2], 2)
    return None


def _relocate_owner_without_sharers():
    """An Owner whose sharers all dropped silently relocates: the replace
    probe is snooped machine-wide, so the receiver installs Exclusive —
    the sharer-dependent I + inject row with an empty sharer set."""
    m = _machine(3, am_sets=1, am_assoc=2)
    m.write(0, 0, 0)                       # node 0: E(l0)
    m.read(1, 0, 1000)                     # node 1: S(l0), node 0: O(l0)
    m.read(1, LINE_SIZE, 2000)             # node 1 way 2: E(l1)
    m.read(1, 2 * LINE_SIZE, 3000)         # node 1 full: S(l0) dropped silently
    assert _am_states(m, 0)[0] == OWNER and not m.lines.get(0).sharers
    m.write(0, 3 * LINE_SIZE, 4000)        # node 0 way 2: E(l3)
    m.write(0, 4 * LINE_SIZE, 5000)        # node 0 full: l0 (LRU owner) evicts
    want = protocol.resolved_next(INVALID, "inject", sharers_exist=False)
    got = _am_states(m, 0)[2]              # receiver: node 2 (empty ways)
    m.check_consistency()
    return None if got == want else _c002("owner-no-sharers", want, got, 2)


def crosscheck(nodes: int = 3, depth: int = 3) -> AnalysisReport:
    """Run both cross-check passes."""
    report = crosscheck_sequences(nodes=nodes, depth=depth)
    report.extend(crosscheck_relocations())
    return report
