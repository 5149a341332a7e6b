"""Tests for the hierarchical (DDM-style) COMA machine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.transaction import TxKind
from repro.coma.hierarchy import HierarchicalComaMachine
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.mem.address import AddressSpace
from repro.timing.resource import DEMAND, POSTED

LINE = 64


def make_hier(n_groups=2, n_processors=8, procs_per_node=1, **kw):
    from fractions import Fraction

    defaults = dict(
        page_size=256,
        memory_pressure=Fraction(1, 2),
        am_bytes_per_node=8 * 4 * 64,
        slc_bytes=4 * 64,
        l1_bytes=2 * 64,
    )
    defaults.update(kw)
    cfg = MachineConfig(
        n_processors=n_processors,
        procs_per_node=procs_per_node,
        **defaults,
    )
    space = AddressSpace(page_size=defaults["page_size"])
    space.alloc(1 << 20, "test")
    return HierarchicalComaMachine(cfg, space, n_groups=n_groups)


class TestTopology:
    def test_group_mapping(self):
        m = make_hier(n_groups=2, n_processors=8)
        assert m.nodes_per_group == 4
        assert m.group_of(0) == 0
        assert m.group_of(3) == 0
        assert m.group_of(4) == 1

    def test_groups_must_divide(self):
        with pytest.raises(ConfigError):
            make_hier(n_groups=3, n_processors=8)

    def test_scan_order_prefers_group(self):
        m = make_hier(n_groups=2, n_processors=8)
        order = m.node_scan_order(exclude_id=1, rotor=0)
        groups = [m.group_of(n.id) for n in order]
        # All group-0 nodes precede all group-1 nodes.
        first_other = groups.index(1)
        assert all(g == 1 for g in groups[first_other:])


class TestHierarchicalPaths:
    def test_in_group_miss_skips_top_bus(self):
        m = make_hier()
        m.read(0, 0, 0)                # node 0 owns page 0
        done, level = m.read(1, 0, 10_000)  # node 1, same group
        assert level == "remote"
        assert m.bus.total_bytes == 0, "no top-bus traffic for in-group miss"
        assert m.group_buses[0].total_bytes > 0
        m.check_consistency()

    def test_cross_group_miss_uses_top_bus(self):
        m = make_hier()
        m.read(0, 0, 0)
        done, level = m.read(5, 0, 10_000)  # node 5 is in group 1
        assert level == "remote"
        assert m.bus.traffic_breakdown()["read"] > 0
        m.check_consistency()

    def test_in_group_faster_than_cross_group(self):
        m = make_hier()
        m.read(0, 0, 0)
        t_in, _ = m.read(1, 0, 100_000)
        m2 = make_hier()
        m2.read(0, 0, 0)
        t_cross, _ = m2.read(5, 0, 100_000)
        assert t_in - 100_000 < t_cross - 100_000

    def test_upgrade_stays_local_when_copies_local(self):
        m = make_hier()
        m.read(0, 0, 0)
        m.read(1, 0, 1000)     # sharer in the same group
        top_before = m.bus.total_bytes
        m.write(0, 0, 2000)    # erase: all copies in group 0
        assert m.bus.total_bytes == top_before, "erase never left the group"
        m.check_consistency()

    def test_upgrade_crosses_when_copies_remote(self):
        m = make_hier()
        m.read(0, 0, 0)
        m.read(5, 0, 1000)     # sharer in the other group
        top_before = m.bus.total_bytes
        m.write(0, 0, 2000)
        assert m.bus.total_bytes > top_before
        m.check_consistency()

    def test_replacement_prefers_in_group_receiver(self):
        m = make_hier(
            n_groups=2,
            n_processors=8,
            am_bytes_per_node=1 * 1 * 64,  # 1 set x 1 way
            page_size=64,
        )
        m.write(0, 0, 0)        # node 0 owns line 0
        m.write(0, LINE, 100)   # relocation: should pick a group-0 node
        info = m.lines.get(0)
        assert m.group_of(info.owner_node) == 0
        assert m.bus.traffic_breakdown()["replace"] == 0
        m.check_consistency()


class TestHierarchicalLocality:
    def test_clustered_workload_keeps_traffic_off_top_bus(self):
        """Producer/consumer pairs land in one group under sequential
        placement; the top bus should carry far less than the group buses."""
        from repro.experiments.runner import RunSpec, build_simulation

        sim = build_simulation(
            RunSpec(
                workload="synth_producer_consumer",
                machine="hcoma",
                hierarchy_groups=4,
                scale=0.5,
            )
        )
        res = sim.run()
        m = sim.machine
        assert m.top_bus_bytes < 0.5 * m.group_bus_bytes
        assert res.config_summary["top_bus_bytes"] == m.top_bus_bytes
        assert res.config_summary["group_bus_bytes"] == m.group_bus_bytes
        m.check_consistency()

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.sampled_from(["r", "w"]),
                st.integers(0, 15),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_protocol_invariants_hold(self, ops):
        m = make_hier(
            n_groups=2,
            n_processors=8,
            am_bytes_per_node=2 * 2 * 64,
            page_size=128,
        )
        t = 0
        for proc, kind, line in ops:
            t += 40
            if kind == "r":
                m.read(proc, line * LINE, t)
            else:
                m.write(proc, line * LINE, t)
        m.check_consistency()
        assert m.owned_line_count() == len(m.lines)


def reference_fetch(m, kind, local, owner, line, now):
    """hcoma's fetch from ``SharedBus.record``, ``SharedBus.phase`` and
    ``Resource.acquire``: the group bus, and across groups the top bus
    and the owner's group bus with a directory lookup each way."""
    lg = m.group_buses[m.group_of(local.id)]
    og = m.group_buses[m.group_of(owner.id)]
    port = m._port
    nc_busy, nc_ns = m._t_nc_busy, m._t_nc
    lg.record(kind, now, local.id, line)
    if lg is not og:
        m.bus.record(kind, now, local.id, line)
        og.record(kind, now, local.id, line)
    s = local.nc.acquire(now, nc_busy, port)
    t = lg.phase(s + nc_ns, port)
    if lg is not og:
        t = m.bus.phase(t + nc_ns, port)
        t = og.phase(t + nc_ns, port)
    s = owner.nc.acquire(t, nc_busy, port)
    s = owner.dram.acquire(s + nc_ns, m._t_dram_busy, port)
    t = og.phase(s + m._t_dram_lat, port)
    if lg is not og:
        t = lg.phase(m.bus.phase(t, port) + nc_ns, port)
    s = local.nc.acquire(t, nc_busy, port)
    return s + nc_ns


def interconnect_state(m) -> list:
    out = [(b.name, list(b._counts), list(b._bytes), tuple(b.resource.free),
            b.resource.busy_ns, b.resource.uses) for b in m.buses]
    for n in m.nodes:
        for r in (n.nc, n.dram):
            out.append((r.name, tuple(r.free), r.busy_ns, r.uses))
    return out


class TestFetchRemote:
    """``HierarchicalComaMachine._fetch_remote`` against
    :func:`reference_fetch`: returned time, every resource's timelines
    and totals, and the per-bus counts and bytes."""

    @pytest.mark.parametrize("port", [DEMAND, POSTED], ids=["demand", "posted"])
    @pytest.mark.parametrize("owner", [1, 5], ids=["same_group", "cross_group"])
    def test_matches_reference(self, owner, port):
        fast, ref = make_hier(), make_hier()
        for m in (fast, ref):
            m._port = port
        # Overlapping fetches from several nodes contend for every
        # resource on the route, on the chosen port only.
        fetches = [(0, owner, TxKind.READ_DATA, 0), (2, owner, TxKind.READ_EXCL, 5),
                   (6, 0, TxKind.READ_DATA, 10), (0, owner, TxKind.READ_DATA, 12),
                   (4, 1, TxKind.READ_EXCL, 30)]
        for i, (local, own, kind, now) in enumerate(fetches):
            got = fast._fetch_remote(kind, fast.nodes[local], fast.nodes[own],
                                     i, now)
            want = reference_fetch(ref, kind, ref.nodes[local],
                                   ref.nodes[own], i, now)
            assert got == want
            assert interconnect_state(fast) == interconnect_state(ref)
        # Fetches between the two groups cross the top bus.
        assert fast.bus.total_transactions == (2 if owner == 1 else 5)
