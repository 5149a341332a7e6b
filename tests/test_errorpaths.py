"""Error-path and defensive-check tests: the simulator must fail loudly,
not silently corrupt, when its invariants are violated."""

from __future__ import annotations

import pytest

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError, ProtocolError, SimulationError
from repro.mem.address import AddressSpace
from repro.coma.machine import ComaMachine
from repro.coma.node import REMOVED_INVALIDATED
from tests.conftest import make_machine
from tests.test_numa import make_numa
from tests.test_uma import make_uma

LINE = 64


class TestConstructionErrors:
    def test_page_size_mismatch_rejected(self):
        cfg = MachineConfig(
            page_size=256,
            am_bytes_per_node=2048,
            slc_bytes=256,
            l1_bytes=128,
        )
        space = AddressSpace(page_size=512)
        with pytest.raises(ProtocolError, match="page size"):
            ComaMachine(cfg, space)

    def test_unsized_config_rejected(self):
        space = AddressSpace(page_size=2048)
        with pytest.raises(ConfigError, match="capacities"):
            ComaMachine(MachineConfig(), space)

    def test_too_many_programs_rejected(self):
        from repro.sim.simulator import Simulation

        m = make_machine(n_processors=2, procs_per_node=1)
        with pytest.raises(SimulationError, match="threads"):
            Simulation(m, [iter(()) for _ in range(3)])

    def test_bad_policy_strings_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(am_victim_policy="mru")
        with pytest.raises(ConfigError):
            MachineConfig(replacement_receiver_policy="broadcast")


class TestProtocolSelfChecks:
    def test_lost_sharer_detected(self, machine):
        """Corrupt the machine (drop a sharer's copy behind the line
        table's back): the next invalidation must raise, and the
        consistency check must catch it too."""
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)  # node 1 shares line 0
        machine.nodes[1].am.invalidate_line(0)  # bypass the protocol
        with pytest.raises(AssertionError):
            machine.check_consistency()
        with pytest.raises(ProtocolError, match="sharer"):
            machine.write(0, 0, 2000)

    def test_lost_owner_detected(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)
        machine.nodes[0].am.invalidate_line(0)  # drop the owner copy
        with pytest.raises(AssertionError):
            machine.check_consistency()

    def test_double_materialization_detected(self, machine):
        machine.read(0, 0, 0)
        with pytest.raises(ProtocolError, match="twice"):
            machine.lines.materialize(0, 0)

    def test_unmaterialized_access_detected(self, machine):
        with pytest.raises(ProtocolError, match="materialization"):
            machine.lines.get(12345)

    def test_removal_reason_tracks_invalidation(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)
        machine.write(0, 0, 2000)
        assert machine.nodes[1].removal_reason[0] == REMOVED_INVALIDATED


MACHINES = {"coma": make_machine, "numa": make_numa, "uma": make_uma}


class TestCacheArrayChecks:
    """Every machine's consistency check covers each cache array's own
    bookkeeping, not only the relations between levels."""

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_slc_index_desync_detected(self, kind):
        m = MACHINES[kind]()
        m.read(0, 0, 0)
        m.check_consistency()
        arr = m.slcs[0].array
        arr.index[0] = arr.free_way_idx(0)  # points at an empty way
        with pytest.raises(AssertionError, match="index out of sync"):
            m.check_consistency()

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_misplaced_l1_tag_detected(self, kind):
        m = MACHINES[kind]()
        m.read(0, 0, 0)
        m.check_consistency()
        m.l1s[0].tags[1] = 0  # line 0 belongs in set 0
        with pytest.raises(AssertionError, match="maps to 0"):
            m.check_consistency()

    def test_grown_am_column_detected(self):
        # The columns are plain lists: a stray append resizes one
        # silently, and the per-way scan never reaches the extra entry.
        m = make_machine()
        m.read(0, 0, 0)
        m.check_consistency()
        m.nodes[0].am.lru_a.append(0)
        with pytest.raises(AssertionError, match="column lru_a holds 33"):
            m.check_consistency()

    def test_shrunk_slc_column_detected(self):
        m = make_machine()
        m.read(0, 0, 0)
        m.check_consistency()
        arr = m.slcs[0].array
        arr.dirty_a[-2:] = []  # a slice assignment drops the last two ways
        with pytest.raises(AssertionError, match="column dirty_a holds 6"):
            m.check_consistency()


class TestSimulationGuards:
    def test_deadlock_reported(self):
        """A thread that blocks on a lock nobody releases must surface as
        a simulation error, not an infinite loop or a silent pass."""
        from repro.sim.simulator import Simulation
        from repro.sync.primitives import SyncSpace

        m = make_machine()

        def holder():
            yield ("l", 0)
            # never unlocks, and never finishes the barrier below

        def waiter():
            yield ("c", 100)
            yield ("l", 0)
            yield ("u", 0)

        sync = SyncSpace(m.space, LINE, 1, 1)
        sim = Simulation(m, [holder(), waiter()], sync)
        with pytest.raises(SimulationError, match="blocked"):
            sim.run()

    def test_sync_event_without_syncspace(self):
        from repro.sim.simulator import Simulation

        m = make_machine()
        sim = Simulation(m, [iter([("l", 0)])], sync=None)
        with pytest.raises(SimulationError, match="SyncSpace"):
            sim.run()
