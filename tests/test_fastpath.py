"""Lockstep equivalence of the kernel's fused hit path.

The simulation kernel retires L1 read hits and posted writes to owned,
SLC-resident lines itself, using the bindings from
``ComaMachine.hit_path()``.  Every test here runs the same programs twice
— with the fused loop, and with ``hit_path`` replaced on the machine
instance by one returning None, which sends every access through the
machine's full ``read``/``write`` paths — and requires identical results,
cache arrays, resource timelines and write buffers.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coma.hierarchy import HierarchicalComaMachine
from repro.coma.machine import ComaMachine
from repro.common.config import MachineConfig, TimingConfig
from repro.common.errors import SimulationError
from repro.experiments.runner import RunSpec, build_simulation
from repro.mem.address import AddressSpace
from repro.obs.sink import CollectorSink
from repro.sim.simulator import Simulation
from repro.sync.primitives import SyncSpace

pytestmark = pytest.mark.fastpath

LINE = 64
N_LINES = 24  # data lines the soups touch; tiny caches below overflow them


def make(kind: str, ppn: int, inclusive: bool, consistency: str,
         coalescing: bool, l1_ns: int) -> ComaMachine:
    """A tiny 8-processor machine: 8 or 2 nodes of 2-way AM sets."""
    cfg = MachineConfig(
        n_processors=8,
        procs_per_node=ppn,
        line_size=LINE,
        page_size=256,
        am_assoc=2,
        memory_pressure=Fraction(1, 2),
        am_bytes_per_node=4 * ppn * LINE,
        slc_bytes=4 * LINE,
        l1_bytes=2 * LINE,
        inclusive=inclusive,
        consistency=consistency,
        write_buffer_coalescing=coalescing,
        timing=TimingConfig(l1_hit_ns=l1_ns),
    )
    space = AddressSpace(page_size=256)
    space.alloc(N_LINES * LINE, "data")
    if kind == "hcoma":
        return HierarchicalComaMachine(cfg, space, n_groups=2)
    return ComaMachine(cfg, space)


def unfused(m) -> None:
    """Send every access of ``m`` through the machine's full paths."""
    m.hit_path = lambda: None


def snapshot(sim: Simulation, result) -> dict:
    """Everything the fused path could disturb, in comparable form."""
    m = sim.machine
    arrays = [s.array for s in m.slcs] + [n.am for n in m.nodes]
    resources = list(m.slc_res) + [m.bus.resource]
    resources += [gb.resource for gb in getattr(m, "group_buses", ())]
    for n in m.nodes:
        resources += [n.nc, n.dram]
    return {
        "result": result.to_dict(),
        "events": sim.events_processed,
        "now": m.now,
        "l1_tags": [list(l1.tags) for l1 in m.l1s],
        "arrays": [
            (list(a.line_a), list(a.state_a), list(a.lru_a),
             list(a.aux_a), list(a.dirty_a), dict(a.index), a.tick)
            for a in arrays
        ],
        "nodes": [
            (dict(n.overflow), {k: list(v) for k, v in n.slc_resident.items()},
             sorted(n.ever), dict(n.removal_reason),
             list(n.shadow._lines))
            for n in m.nodes
        ],
        "resources": [
            (r.name, *r.free, r.busy_ns, r.uses)
            for r in resources
        ],
        "write_buffers": [
            (list(p.wb.pending), dict(p.wb._lines), p.wb.coalesced)
            for p in sim.procs
        ],
    }


def run_soup(machine_kw: dict, programs: list, fused: bool,
             check_every: int = 0) -> dict:
    """Run the soup; with ``observed`` in ``machine_kw``, a span-wanting
    collector is attached and its event stream joins the snapshot."""
    machine_kw = dict(machine_kw)
    observed = machine_kw.pop("observed", False)
    m = make(**machine_kw)
    if not fused:
        unfused(m)
    sync = SyncSpace(m.space, LINE, 2, 1)
    sim = Simulation(m, [iter(p) for p in programs], sync)
    sim.check_every = check_every
    collector = CollectorSink(wants_spans=True)
    if observed:
        sim.attach(collector)
    result = sim.run()
    m.check_consistency()
    snap = snapshot(sim, result)
    snap["trace"] = collector.events
    return snap


# ----------------------------------------------------------------------
# op soups
# ----------------------------------------------------------------------

addrs = st.builds(lambda line, word: line * LINE + 8 * word,
                  st.integers(0, N_LINES - 1), st.integers(0, 7))
ops = st.one_of(
    addrs.map(lambda a: [("r", a)]),
    addrs.map(lambda a: [("r", a)]),
    addrs.map(lambda a: [("w", a)]),
    st.integers(1, 40).map(lambda n: [("c", n)]),
    st.tuples(st.integers(0, 1), addrs, addrs).map(
        lambda t: [("l", t[0]), ("r", t[1]), ("w", t[2]), ("u", t[0])]),
)


@st.composite
def soups(draw) -> list:
    """Eight threads of reads, writes, computes and lock-guarded critical
    sections, split into phases by a shared barrier."""
    phases = draw(st.integers(1, 3))
    programs = []
    for _t in range(8):
        prog: list = []
        for ph in range(phases):
            if ph:
                prog.append(("b", 0))
            for op in draw(st.lists(ops, max_size=14)):
                prog.extend(op)
        programs.append(prog)
    return programs


configs = st.fixed_dictionaries({
    "kind": st.sampled_from(["coma", "hcoma"]),
    "ppn": st.sampled_from([1, 4]),
    "inclusive": st.booleans(),
    "consistency": st.sampled_from(["rc", "rc", "sc"]),
    "coalescing": st.booleans(),
    "l1_ns": st.sampled_from([0, 0, 3]),
    "observed": st.booleans(),
})


class TestLockstep:
    @settings(max_examples=120, deadline=None)
    @given(cfg=configs, programs=soups())
    def test_fused_equals_full_paths(self, cfg, programs):
        fused = run_soup(cfg, programs, fused=True)
        full = run_soup(cfg, programs, fused=False)
        assert fused == full

    @settings(max_examples=20, deadline=None)
    @given(cfg=configs, programs=soups())
    def test_with_periodic_consistency_checks(self, cfg, programs):
        assert (run_soup(cfg, programs, fused=True, check_every=3)
                == run_soup(cfg, programs, fused=False, check_every=3))

    @pytest.mark.parametrize("kind", ["coma", "hcoma"])
    def test_observed_soup_sees_every_access(self, kind):
        """The collector's stream has one access and one span tree per
        memory operation, fused or not, and leaves the state unchanged."""
        programs = [[("r", 0), ("w", 0), ("r", 8), ("w", 16), ("r", 0)]] * 8
        kw = dict(kind=kind, ppn=4, inclusive=True, consistency="rc",
                  coalescing=False, l1_ns=3)
        bare = run_soup(kw, programs, fused=True)
        runs = [run_soup({**kw, "observed": True}, programs, fused)
                for fused in (True, False)]
        assert runs[0] == runs[1]
        trace = runs[0].pop("trace")
        assert bare.pop("trace") == []
        assert runs[0] == bare
        accesses = [e for e in trace if e.kind == "access"]
        roots = [e for e in trace if e.kind == "span" and not e.parent_id]
        assert len(accesses) == len(roots) == 8 * 5

    @pytest.mark.parametrize("kind", ["coma", "hcoma"])
    def test_fused_path_retires_events(self, kind):
        """The fused run calls the machine less, or it proves nothing."""
        programs = [[("r", 0), ("w", 0), ("r", 8), ("w", 16), ("r", 0)]] * 8
        calls = {}
        for fused in (True, False):
            m = make(kind, 4, True, "rc", False, 0)
            if not fused:
                unfused(m)
            n = [0]
            read, write = m.read, m.write

            def counted(fn):
                def call(*args):
                    n[0] += 1
                    return fn(*args)
                return call

            m.read, m.write = counted(read), counted(write)
            Simulation(m, [iter(p) for p in programs]).run()
            calls[fused] = n[0]
        assert calls[False] == 8 * 5
        assert calls[True] < calls[False]


# ----------------------------------------------------------------------
# kernel bookkeeping on real workloads
# ----------------------------------------------------------------------

SPEC = RunSpec(workload="ocean_contig", scale=0.1, procs_per_node=4,
               memory_pressure=13 / 16)


def build(spec: RunSpec = SPEC, fused: bool = True) -> Simulation:
    sim = build_simulation(spec)
    if not fused:
        unfused(sim.machine)
    return sim


class Recorder:
    """A profiler recording what each sample sees."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.seen: list = []

    def sample(self, machine) -> None:
        self.seen.append((self.sim.events_processed, machine.now,
                          machine.counters.as_dict()))


class TestBookkeeping:
    def test_profiler_samples_same_indices_and_times(self):
        from repro.obs.timeline import TimelineSampler

        seen = []
        for fused in (True, False):
            sim = build(fused=fused)
            rec, tl = Recorder(sim), TimelineSampler()
            sim.attach(rec, every=997)
            sim.attach(tl)
            assert (sim.machine.hit_path() is not None) == fused
            sim.run()
            seen.append((rec.seen, tl.t, tl.cols))
        assert seen[0] == seen[1]
        assert len(seen[0][0]) > 10

    def test_consistency_check_cadence(self):
        cadence = []
        for fused in (True, False):
            sim = build(fused=fused)
            m = sim.machine
            at: list = []
            check = m.check_consistency
            m.check_consistency = lambda: (at.append(
                (sim.events_processed, m.counters.reads)), check())
            sim.check_every = 1500
            sim.run()
            cadence.append(at)
        assert cadence[0] == cadence[1]
        assert [n for n, _ in cadence[0]] == list(
            range(1500, 1500 * (len(cadence[0]) + 1), 1500))

    def test_event_budget_raises_at_same_index(self):
        states = []
        for fused in (True, False):
            sim = build(fused=fused)
            sim.max_events = 4321
            with pytest.raises(SimulationError, match="budget"):
                sim.run()
            states.append((sim.events_processed,
                           sim.machine.counters.as_dict()))
        assert states[0] == states[1]
        assert states[0][0] == 4322

    def test_flight_dump_attached_on_error(self):
        from repro.obs.flight import FlightRecorder

        dumps = []
        for fused in (True, False):
            sim = build(fused=fused)
            sim.attach(FlightRecorder(capacity=16))
            assert (sim.machine.hit_path() is not None) == fused
            sim.max_events = 500
            with pytest.raises(SimulationError) as err:
                sim.run()
            dumps.append(err.value.flight_dump)
        assert "flight recorder dump" in dumps[0]
        assert dumps[0] == dumps[1]

    @staticmethod
    def observe(kind: str, fused: bool) -> tuple:
        """Run ``SPEC`` with one observer attached; returns whether the
        fused path was on, the result and the observer's whole output
        as text."""
        sim = build(fused=fused)
        if kind == "metrics":
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.openmetrics import to_openmetrics

            registry = MetricsRegistry()
            sim.attach(registry)

            def output(res):
                return to_openmetrics(registry)
        elif kind == "attribution":
            from repro.obs.spans import StallAttribution

            att = StallAttribution()
            sim.attach(att)

            def output(res):
                return json.dumps(att.report(stalls=res.stalls,
                                             elapsed_ns=res.elapsed_ns),
                                  sort_keys=True)
        elif kind == "sanitizer":
            from dataclasses import asdict

            from repro.analysis.sanitize import sanitizer_for

            # A low ping-pong threshold makes findings, each carrying its
            # window of events.
            san = sanitizer_for(sim, pingpong_threshold=2)
            sim.attach(san)

            def output(res):
                return json.dumps(asdict(san.finish()), sort_keys=True)
        elif kind == "bounds":
            from repro.analysis.bounds import BoundsCertifier, envelope_for

            cert = BoundsCertifier(envelope_for("coma",
                                                sim.machine.config.timing))
            sim.attach(cert)

            def output(res):
                return json.dumps(cert.report(), sort_keys=True)
        else:
            from repro.obs.timeline import TimelineSampler

            tl = TimelineSampler()
            sim.attach(tl, every=500)

            def output(res):
                return json.dumps([tl.t, tl.cols])
        on = sim.machine.hit_path() is not None
        result = sim.run()
        return on, result.to_dict(), output(result)

    @pytest.mark.parametrize("kind", ["metrics", "attribution", "sanitizer",
                                      "bounds", "timeline"])
    def test_observers_leave_result_unchanged(self, kind):
        bare = build().run().to_dict()
        on, result, out = self.observe(kind, fused=True)
        off, unfused_result, unfused_out = self.observe(kind, fused=False)
        # Every observer keeps the fused path on.
        assert on and not off
        assert result == unfused_result == bare
        assert out == unfused_out
        assert len(out) > 100

    #: sha256 prefixes of ``to_dict()`` from the kernel before the fused
    #: path existed: numa/uma never fuse, and SC, coalescing,
    #: non-inclusive and hierarchical runs take their other branches.
    PINNED = [
        (RunSpec(workload="fft", machine="numa", scale=0.05, procs_per_node=4,
                 memory_pressure=0.875), "25c22df2cbf1d6dd"),
        (RunSpec(workload="barnes", machine="numa", scale=0.05),
         "7e5e1567ec05db28"),
        (RunSpec(workload="fft", machine="uma", scale=0.05, procs_per_node=4),
         "9d71f58f07dc8143"),
        (RunSpec(workload="radix", machine="uma", scale=0.05),
         "99785dca7e8d6844"),
        (RunSpec(workload="ocean_contig", scale=0.1, procs_per_node=4,
                 consistency="sc"), "2af42c0e30b3308a"),
        (RunSpec(workload="ocean_contig", scale=0.1, procs_per_node=4,
                 write_buffer_coalescing=True), "73d85e9e2245bf84"),
        (RunSpec(workload="radix", scale=0.1, inclusive=False,
                 memory_pressure=0.875), "a6d543e560de46a6"),
        (RunSpec(workload="water_n2", machine="hcoma", scale=0.1,
                 procs_per_node=2), "8a2ce129f32a2505"),
    ]

    @pytest.mark.parametrize("spec,digest", PINNED,
                             ids=[f"{s.machine}-{s.workload}" for s, _ in PINNED])
    def test_results_match_pre_fusion_kernel(self, spec, digest):
        d = build_simulation(spec).run().to_dict()
        got = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
        assert got[:16] == digest
