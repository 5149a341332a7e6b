"""Lockstep checks of machine code opened in line.

``ComaMachine._fill_hierarchy`` installs a line into the SLC with
``SecondLevelCache.fill`` and the common case of
``ComaMachine._handle_slc_victim`` written out in its body.  Here a
reference ``_fill_hierarchy`` built from those two methods runs beside
the shipped one: two machines take the same op soup, and after every op
every SLC and attraction-memory array must match column for column,
with the same victim each set would give up next.

The LRU stamps written in line get the same treatment: the SLC and AM
hit stamps of ``ComaMachine.read`` and the AM stamps of
``_write_access`` against a reference built from methods, and the AM and
SLC stamps of the kernel's fused posted write against
``ComaMachine.write``, compared before every event.

So does ``read``'s node miss, whose classification, shadow-tag update,
supplier degrade, free-way and Shared-victim allocation and fill are
written in line: against the methods, on coma and hcoma.
"""

from __future__ import annotations

import random
import types
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.caches.slc import NO_VICTIM
from repro.bus.transaction import TxKind
from repro.coma.hierarchy import HierarchicalComaMachine
from repro.coma.linetable import LOC_AM, LOC_OVERFLOW
from repro.coma.machine import LEVEL_AM, LEVEL_REMOTE, LEVEL_SLC, ComaMachine
from repro.coma.node import REMOVED_INVALIDATED
from repro.coma.states import EXCLUSIVE, SHARED
from repro.common.config import MachineConfig
from repro.mem.address import AddressSpace
from repro.mem.soa import VICTIM_LRU
from repro.obs.sink import TraceSink
from repro.sim.simulator import Simulation

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


def touch(a, way: int) -> None:
    """The LRU stamp ``LineArray.fill_way`` and ``SecondLevelCache.lookup``
    leave: the array's next tick."""
    a.tick += 1
    a.lru_a[way] = a.tick


class StampReference(ComaMachine):
    """``read`` and ``_write_access`` with every in-line LRU stamp taken
    through a method: SLC and AM read hits, writes to an EXCLUSIVE line
    and upgrades of a line the node's AM holds.  Every other access
    takes the shipped path.  ``ref_hits`` and ``ref_writes`` count the
    accesses it served itself."""

    ref_hits = ref_writes = 0

    def read(self, proc, addr, now):
        line = addr >> self._shift
        node = self.nodes[self._node_of[proc]]
        slc = self.slcs[proc]
        if (self.l1s[proc].lookup(line)
                or (line not in slc.index and line not in node.am.index)):
            return super().read(proc, addr, now)
        self.ref_hits += 1
        self.now = now
        c = self.counters
        c.reads += 1
        start = self.slc_res[proc].acquire(now, self._t_slc_occ, self._port)
        if slc.lookup(line):
            c.slc_read_hits += 1
            self.l1s[proc].fill(line)
            return start + self._t_slc, LEVEL_SLC
        way = node.am.index[line]
        done = self._node_access(node.nc, node.dram, now)
        touch(node.am, way)
        node.shadow.access(line)
        c.am_read_hits += 1
        self._fill_hierarchy(proc, node, line, way)
        return done, LEVEL_AM

    def _write_access(self, proc, addr, now):
        line = addr >> self._shift
        node = self.nodes[self._node_of[proc]]
        am = node.am
        way = am.index.get(line)
        if way is None:
            return super()._write_access(proc, addr, now)
        self.ref_writes += 1
        self.now = now
        slc_hit = line in self.slcs[proc].index
        t = now
        if am.state_a[way] != EXCLUSIVE:
            self.counters.upgrades += 1
            s = node.nc.acquire(now, self._t_nc_busy, self._port)
            t = self._upgrade_broadcast(node, line, s + self._t_nc)
            self._invalidate_others(line, node)
            am.state_a[way] = EXCLUSIVE
            info = self.lines.get(line)
            info.owner_node = node.id
            info.owner_loc = LOC_AM
            info.sharers.clear()
        touch(am, way)
        node.shadow.access(line)
        return self._local_write_finish(proc, node, line, way, None, slc_hit,
                                        t)


def make(ppn: int, inclusive: bool, reference: bool,
         cls: type = ComaMachine, n_lines: int = N_LINES,
         **kw) -> ComaMachine:
    """An 8-processor machine whose 2-way AMs hold 64 lines in all for
    the soups' ``n_lines`` (48 by default), with a one-set 4-way SLC and
    a 2-line L1; ``kw`` goes to ``cls``."""
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
    space.alloc(n_lines * LINE, "data")
    m = cls(cfg, space, **kw)
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


def distinct_stamps(m: ComaMachine) -> None:
    """No two valid ways of one set carry the same LRU stamp."""
    for a in [s.array for s in m.slcs] + [n.am for n in m.nodes]:
        for base in range(0, a.num_sets * a.assoc, a.assoc):
            stamps = [a.lru_a[w] for w in range(base, base + a.assoc)
                      if a.state_a[w]]
            assert len(set(stamps)) == len(stamps), (base, stamps)
            assert all(0 < t <= a.tick for t in stamps), (base, stamps)


def run_lockstep(ops, ppn: int, inclusive: bool,
                 ref_cls: type = None) -> tuple[ComaMachine, ComaMachine]:
    """Run ``ops`` on the shipped and the reference machine, comparing
    after every op; returns both machines.  The reference is the
    method-based ``_fill_hierarchy``, or a ``ref_cls`` machine."""
    fast = make(ppn, inclusive, reference=False)
    if ref_cls is None:
        ref = make(ppn, inclusive, reference=True)
    else:
        ref = make(ppn, inclusive, reference=False, cls=ref_cls)
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
        distinct_stamps(fast)
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


def kernel_run(ops, ppn: int, inclusive: bool, fused: bool) -> tuple:
    """Run ``ops`` as per-processor programs on the simulation kernel;
    returns the machine's state before every event and how many writes
    the kernel retired without ``ComaMachine.write``."""
    m = make(ppn, inclusive, reference=False)
    if not fused:
        m.hit_path = lambda: None
    programs = [[] for _ in range(8)]
    for op, proc, line, word, gap in ops:
        if gap % 4 == 0:
            programs[proc].append(("c", gap))
        programs[proc].append((op, line * LINE + 8 * word))
    seen = []
    check = m.check_consistency

    def record():
        seen.append((arrays(m), state(m),
                     [(tuple(r.free), r.busy_ns, r.uses) for r in m.slc_res]))
        check()

    m.check_consistency = record
    write_calls = [0]
    write = m.write

    def counted(*args):
        write_calls[0] += 1
        return write(*args)

    m.write = counted
    sim = Simulation(m, [iter(p) for p in programs])
    sim.check_every = 1
    sim.run()
    record()
    return seen, m.counters.writes - write_calls[0]


def compare_kernel(ops, ppn: int, inclusive: bool) -> int:
    """The fused kernel against the machine path, before every event;
    returns how many writes the fused run retired itself."""
    fused, n_fused = kernel_run(ops, ppn, inclusive, fused=True)
    full, n_full = kernel_run(ops, ppn, inclusive, fused=False)
    assert n_full == 0 and len(fused) == len(full)
    for i, (got, want) in enumerate(zip(fused, full)):
        if got != want:
            names = ("arrays", "state", "slc ports")
            for name, g, w in zip(names, got, want):
                if g != w:
                    raise AssertionError(f"before event {i}: {name} differs:"
                                         f"\n  {g}\n  {w}")
    return n_fused


class TestLruStampLockstep:
    """The in-line LRU stamps against their method-based references.

    Equal stamps are not reachable: every stamping site, in line or not,
    takes its array's next tick, so the valid ways of a set always carry
    distinct stamps (``distinct_stamps`` checks it after every op).  The
    LRU picks run only over sets with no invalid way, so a ``<`` -> ``<=``
    tie-break mutant of them picks the same way on every reachable state
    and no soup can tell it apart.
    """

    @given(ops=st.lists(soup_op, min_size=20, max_size=150),
           ppn=st.sampled_from([1, 4]),
           inclusive=st.booleans())
    @settings(max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink))
    def test_machine_stamps(self, ops, ppn, inclusive):
        run_lockstep(ops, ppn, inclusive, ref_cls=StampReference)

    @pytest.mark.parametrize("inclusive", [True, False],
                             ids=["inclusive", "noninclusive"])
    @pytest.mark.parametrize("ppn", [1, 4])
    def test_seeded_soup_reaches_every_stamp(self, ppn, inclusive):
        """A long seeded soup hits in the SLC and the AM, writes to
        EXCLUSIVE lines and upgrades shared ones."""
        rng = random.Random(4242 + ppn)
        ops = [_op(rng.choice("rrw"), rng.randrange(8), rng.randrange(24),
                   rng.randrange(8), rng.randrange(400)) for _ in range(1500)]
        fast, ref = run_lockstep(ops, ppn, inclusive, ref_cls=StampReference)
        c = fast.counters
        assert c.slc_read_hits > 50 and c.am_read_hits > 50
        assert c.upgrades > 50
        assert ref.ref_hits > 100 and ref.ref_writes > 100

    @given(ops=st.lists(soup_op, min_size=20, max_size=150),
           ppn=st.sampled_from([1, 4]),
           inclusive=st.booleans())
    @settings(max_examples=40, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink))
    def test_fused_write_stamps(self, ops, ppn, inclusive):
        compare_kernel(ops, ppn, inclusive)

    def test_seeded_soup_fuses_writes(self):
        rng = random.Random(1997)
        ops = [_op(rng.choice("rww"), rng.randrange(8), rng.randrange(6),
                   rng.randrange(8), rng.randrange(40)) for _ in range(800)]
        fused_writes = compare_kernel(ops, 4, True)
        assert fused_writes > 100


# ----------------------------------------------------------------------
# the read node miss
# ----------------------------------------------------------------------

def classify_read_miss(m: ComaMachine, node, line: int) -> None:
    """The miss classification ``ComaMachine.read`` opens in line."""
    c = m.counters
    if line not in node.ever:
        c.read_miss_cold += 1
    elif node.removal_reason.get(line) == REMOVED_INVALIDATED:
        c.read_miss_coherence += 1
    elif line in node.shadow:
        c.read_miss_conflict += 1
    else:
        c.read_miss_capacity += 1


class ReadMissMethods:
    """``read``'s node-miss tail built from methods: the classification
    above, ``ShadowTags.access``, ``LineTable.get``,
    ``_owner_to_shared_state``, ``ReplacementEngine.make_room`` (with
    ``drop_shared_copy``), ``LineArray.fill_way``, ``ComaNode.note_present``
    and ``Resource.acquire``.  Every other read takes the shipped path.
    ``cases`` tallies which allocation and supplier cases it served."""

    def read(self, proc, addr, now):
        line = addr >> self._shift
        node = self.nodes[self._node_of[proc]]
        am = node.am
        if ((addr // self._page_size) not in self._page_home
                or self._l1_tags[proc][line % self._l1_nsets] == line
                or line in self.slcs[proc].index or line in am.index
                or line in node.overflow
                or (not self._inclusive and line in node.slc_resident)):
            return super().read(proc, addr, now)
        self.now = now
        c = self.counters
        c.reads += 1
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, "r", line, addr)
        self.slc_res[proc].acquire(now, self._t_slc_occ, self._port)
        c.node_read_misses += 1
        classify_read_miss(self, node, line)
        node.shadow.access(line)
        info = self.lines.get(line)
        owner = self.nodes[info.owner_node]
        t = self._fetch_remote(TxKind.READ_DATA, node, owner, line, now)
        self._tally(self._owner_case(owner, line, info))
        self._owner_to_shared_state(owner, line, info)
        self._tally(self._room_case(am, line))
        way = self.repl.make_room(node, line, t, mandatory=False)
        if way is None:
            done = t + self._t_remote
            if obs is not None:
                obs.access(now, proc, "r", line, LEVEL_REMOTE, done - now,
                           addr)
            return done, LEVEL_REMOTE
        am.fill_way(way, line, SHARED)
        node.note_present(line)
        info.sharers.add(node.id)
        if obs is not None:
            obs.transition(t, node.id, line, "fill", "I", "S")
        s = node.dram.acquire(t, self._t_dram_busy, self._port)
        done = s + self._t_dram_lat + self._t_remote
        self._fill_hierarchy(proc, node, line, way)
        if obs is not None:
            obs.phase("fill_dram", s + self._t_dram_lat)
            obs.access(now, proc, "r", line, LEVEL_REMOTE, done - now, addr)
        return done, LEVEL_REMOTE

    def _tally(self, case: str) -> None:
        self.cases[case] = self.cases.get(case, 0) + 1

    @staticmethod
    def _owner_case(owner, line: int, info) -> str:
        if line in owner.am.index:
            return "owner in am"
        return "owner in overflow" if info.owner_loc == LOC_OVERFLOW \
            else "owner in slc"

    def _room_case(self, am, line: int) -> str:
        set_idx = line % am.num_sets
        if am.free_way_idx(set_idx) >= 0:
            return "free way"
        victim = am.victim_way(set_idx, self._victim_mode)
        if am.state_a[victim] != SHARED:
            return "owner victim"
        return "shared victim" + (" in slc" if am.aux_a[victim] else "")


class ReadMissReference(ReadMissMethods, ComaMachine):
    pass


class HierReadMissReference(ReadMissMethods, HierarchicalComaMachine):
    pass


class Recorder(TraceSink):
    """Every call the read miss and its callees make on the ``obs``
    slot, in order."""

    def __init__(self) -> None:
        self.calls: list = []

    def begin(self, *args):
        self.calls.append(("begin", args))

    def phase(self, *args):
        self.calls.append(("phase", args))

    def bus_phase(self, *args):
        self.calls.append(("bus_phase", args))

    def access(self, *args):
        self.calls.append(("access", args))

    def transition(self, *args):
        self.calls.append(("transition", args))

    def bus(self, *args):
        self.calls.append(("bus", args))

    def replacement(self, *args):
        self.calls.append(("replacement", args))


#: Data lines of the dense soup: past the 64 AM ways, so some sets are
#: over capacity (owners parked in overflow) and full of owners
#: (uncached reads).
DENSE_LINES = 68


def make_miss(ppn: int, inclusive: bool, hier: bool, reference: bool,
              observed: bool) -> ComaMachine:
    cls = ((HierReadMissReference if reference else HierarchicalComaMachine)
           if hier else (ReadMissReference if reference else ComaMachine))
    kw = {"n_groups": 2} if hier else {}
    m = make(ppn, inclusive, reference=False, cls=cls, n_lines=DENSE_LINES,
             **kw)
    m.cases = {}
    if observed:
        m.obs = Recorder()
        for bus in m.buses:
            bus.obs = m.obs
    return m


def resource_state(r) -> tuple:
    return tuple(r.free), r.busy_ns, r.uses


def miss_state(m: ComaMachine) -> tuple:
    """What a read miss touches beyond the arrays: the node-level
    tracking, the line table, counters, every resource and bus."""
    nodes = [(list(n.shadow._lines), sorted(n.ever), dict(n.removal_reason),
              resource_state(n.nc), resource_state(n.dram))
             for n in m.nodes]
    table = sorted((line, i.owner_node, i.owner_loc, sorted(i.sharers))
                   for line, i in m.lines.items())
    buses = [(b.name, list(b._counts), list(b._bytes),
              resource_state(b.resource)) for b in m.buses]
    return nodes, table, buses, [resource_state(r) for r in m.slc_res]


def run_miss_lockstep(ops, ppn: int, inclusive: bool, hier: bool,
                      observed: bool) -> tuple[ComaMachine, ComaMachine]:
    fast = make_miss(ppn, inclusive, hier, False, observed)
    ref = make_miss(ppn, inclusive, hier, True, observed)
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
        for j, (g, w) in enumerate(zip(miss_state(fast), miss_state(ref))):
            if g != w:
                raise AssertionError(f"after op {where}: miss_state[{j}] "
                                     f"differs:\n  {g}\n  {w}")
        if observed:
            if fast.obs.calls != ref.obs.calls:
                raise AssertionError(f"after op {where}: obs calls differ:"
                                     f"\n  {fast.obs.calls}"
                                     f"\n  {ref.obs.calls}")
            fast.obs.calls.clear()
            ref.obs.calls.clear()
    fast.check_consistency()
    ref.check_consistency()
    return fast, ref


def _miss_op(kind: str, proc: int, k: int, word: int, gap: int) -> tuple:
    """Like ``_op`` over the dense soup's lines."""
    return kind, proc, (8 * proc + k) % DENSE_LINES, word, gap


miss_op = st.builds(
    _miss_op,
    st.sampled_from(["r", "r", "r", "w"]),
    st.integers(0, 7),
    st.integers(0, 23),
    st.integers(0, 7),
    st.integers(0, 400),
)


class TestReadMissLockstep:
    """``ComaMachine.read``'s in-line node miss against
    :class:`ReadMissMethods`, on coma and 2-group hcoma, after every op:
    every AM and SLC array, the shadow order, ``ever``,
    ``removal_reason``, the line table, the counters, every resource,
    the bus counts and (observed) every call on the ``obs`` slot."""

    @given(ops=st.lists(miss_op, min_size=20, max_size=150),
           ppn=st.sampled_from([1, 4]),
           inclusive=st.booleans(),
           hier=st.booleans(),
           observed=st.booleans())
    @settings(max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink))
    def test_op_soup(self, ops, ppn, inclusive, hier, observed):
        run_miss_lockstep(ops, ppn, inclusive, hier, observed)

    @pytest.mark.parametrize("hier", [False, True], ids=["coma", "hcoma"])
    @pytest.mark.parametrize("inclusive", [True, False],
                             ids=["inclusive", "noninclusive"])
    @pytest.mark.parametrize("ppn", [1, 4])
    def test_seeded_soup_reaches_every_case(self, ppn, inclusive, hier):
        """The soup first stays within 48 lines (free ways, Shared and
        owner victims), then spreads over all 68 (uncached reads, owners
        parked in overflow)."""
        rng = random.Random(28 + ppn)
        ops = [_miss_op(rng.choice("rrrw"), rng.randrange(8),
                        rng.randrange(24), rng.randrange(8),
                        rng.randrange(400)) for _ in range(1200)]
        ops = [op for op in ops if op[2] < N_LINES] + ops
        fast, ref = run_miss_lockstep(ops, ppn, inclusive, hier,
                                      observed=ppn == 4)
        cases = ref.cases
        assert {"free way", "owner victim", "shared victim",
                "shared victim in slc", "owner in am",
                "owner in overflow"} <= set(cases), cases
        assert ("owner in slc" in cases) is not inclusive, cases
        assert fast.counters.uncached_reads > 0
        assert fast.counters.overflow_parks > 0
