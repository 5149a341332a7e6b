"""Lockstep checks of machine code opened in line.

``ComaMachine._fill_hierarchy`` installs a line into the SLC with
``SecondLevelCache.fill`` and the common case of
``ComaMachine._handle_slc_victim`` written out in its body.  Here a
reference ``_fill_hierarchy`` built from those two methods runs beside
the shipped one: two machines take the same op soup, and after every op
every SLC and attraction-memory array must match column for column,
with the same victim each set would give up next.
"""

from __future__ import annotations

import random
import types
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.caches.slc import NO_VICTIM
from repro.coma.machine import ComaMachine
from repro.common.config import MachineConfig
from repro.mem.address import AddressSpace
from repro.mem.soa import VICTIM_LRU

pytestmark = pytest.mark.lockstep

LINE = 64
N_LINES = 48  # data lines the soups touch; the caches below overflow


def _fill_hierarchy(self, proc, node, line, way):
    """Reference fill: ``SecondLevelCache.fill`` and ``_handle_slc_victim``
    called as methods."""
    node.am.aux_a[way] |= 1 << (proc % self._ppn)
    slc = self.slcs[proc]
    if line not in slc.index:
        packed = slc.fill(line)
        if packed != NO_VICTIM:
            self._handle_slc_victim(proc, node, packed)
    if line in slc.index:
        self.l1s[proc].fill(line)
    self.reference_fills += 1


def make(ppn: int, inclusive: bool, reference: bool) -> ComaMachine:
    """An 8-processor machine whose 2-way AMs hold 64 lines in all for
    the soups' 48, with a one-set 4-way SLC and a 2-line L1."""
    cfg = MachineConfig(
        n_processors=8,
        procs_per_node=ppn,
        line_size=LINE,
        page_size=256,
        am_assoc=2,
        memory_pressure=Fraction(1, 2),
        am_bytes_per_node=8 * ppn * LINE,
        slc_bytes=4 * LINE,
        slc_assoc=4,
        l1_bytes=2 * LINE,
        inclusive=inclusive,
    )
    space = AddressSpace(page_size=256)
    space.alloc(N_LINES * LINE, "data")
    m = ComaMachine(cfg, space)
    if reference:
        m.reference_fills = 0
        m._fill_hierarchy = types.MethodType(_fill_hierarchy, m)
    return m


def arrays(m: ComaMachine) -> list:
    """Every SLC and AM array's columns, index and tick, and the way
    each of its sets would give up next."""
    out = []
    for a, mode in ([(s.array, VICTIM_LRU) for s in m.slcs]
                    + [(n.am, m._victim_mode) for n in m.nodes]):
        out.append((
            list(a.line_a), list(a.state_a), list(a.lru_a),
            list(a.dirty_a), list(a.aux_a), dict(a.index), a.tick,
            [a.victim_way(s, mode) for s in range(a.num_sets)],
        ))
    return out


def state(m: ComaMachine) -> tuple:
    """What else a fill touches: L1 tags, node-level SLC residency,
    counters and the node timelines."""
    return (
        [list(l1.tags) for l1 in m.l1s],
        [({k: list(v) for k, v in n.slc_resident.items()}, dict(n.overflow),
          tuple(n.dram.free), n.dram.uses) for n in m.nodes],
        m.counters.as_dict(),
    )


def check_same(fast: ComaMachine, ref: ComaMachine, where: tuple) -> None:
    """Name the first array or field that differs.  A plain raise keeps
    pytest from diffing the whole snapshot on every shrink step."""
    for name, got, want in (("arrays", arrays(fast), arrays(ref)),
                            ("state", state(fast), state(ref))):
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                raise AssertionError(f"after op {where}: {name}[{i}] "
                                     f"differs:\n  {g}\n  {w}")


def run_lockstep(ops, ppn: int, inclusive: bool) -> tuple[ComaMachine, ComaMachine]:
    """Run ``ops`` on the shipped and the reference machine, comparing
    after every op; returns both machines."""
    fast = make(ppn, inclusive, reference=False)
    ref = make(ppn, inclusive, reference=True)
    now = 0
    for i, (op, proc, line, word, gap) in enumerate(ops):
        now += gap
        addr = line * LINE + 8 * word
        if op == "r":
            got, want = fast.read(proc, addr, now), ref.read(proc, addr, now)
        else:
            got, want = fast.write(proc, addr, now), ref.write(proc, addr, now)
        where = (i, op, proc, line)
        if got != want:
            raise AssertionError(f"after op {where}: {got} != {want}")
        check_same(fast, ref, where)
    fast.check_consistency()
    ref.check_consistency()
    return fast, ref


def _op(kind: str, proc: int, k: int, word: int, gap: int) -> tuple:
    """Processor ``proc`` touches the ``k``-th of its 24 lines; the bands
    of neighbouring processors overlap, so lines are also shared."""
    return kind, proc, (6 * proc + k) % N_LINES, word, gap


soup_op = st.builds(
    _op,
    st.sampled_from(["r", "r", "w"]),
    st.integers(0, 7),
    st.integers(0, 23),
    st.integers(0, 7),
    st.integers(0, 400),
)


class TestSlcFillLockstep:
    @given(ops=st.lists(soup_op, min_size=20, max_size=150),
           ppn=st.sampled_from([1, 4]),
           inclusive=st.booleans())
    # No explain phase: on a failure it replays hundreds of full soups.
    @settings(max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink))
    def test_op_soup(self, ops, ppn, inclusive):
        run_lockstep(ops, ppn, inclusive)

    @pytest.mark.parametrize("inclusive", [True, False],
                             ids=["inclusive", "noninclusive"])
    @pytest.mark.parametrize("ppn", [1, 4])
    def test_seeded_soup_reaches_every_victim_case(self, ppn, inclusive):
        """A long seeded soup displaces dirty SLC victims, relocates AM
        owners and (non-inclusive) writes back owner victims that only
        the SLCs held."""
        rng = random.Random(1997 + ppn)
        ops = [_op(rng.choice("rrw"), rng.randrange(8), rng.randrange(24),
                   rng.randrange(8), rng.randrange(400)) for _ in range(1500)]
        fast, ref = run_lockstep(ops, ppn, inclusive)
        c = fast.counters
        assert ref.reference_fills > 300
        assert c.slc_writebacks > 0 and c.replacements > 0
        assert (c.slc_owner_reinserts > 0) is not inclusive
