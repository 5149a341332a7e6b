"""Cross-validation of the machine against the declarative protocol table."""

from __future__ import annotations

import pytest

from repro.coma import protocol
from repro.coma.states import EXCLUSIVE, INVALID, OWNER, SHARED

LINE = 64


class TestTable:
    def test_complete(self):
        assert protocol.is_complete(), "every (state, event) pair specified"

    def test_lookup(self):
        t = protocol.transition(SHARED, "local_write")
        assert t.next_state == EXCLUSIVE
        assert t.bus_action == "upgrade"

    def test_unknown_event(self):
        with pytest.raises(KeyError):
            protocol.transition(SHARED, "flush")

    def test_format(self):
        text = protocol.format_table()
        assert "upgrade" in text and "sharer takeover" in text

    def test_owner_transitions_never_drop_data(self):
        """No owner state may transition to INVALID without a bus action
        (silent owner drops would lose the datum)."""
        for t in protocol.TRANSITIONS:
            if t.state in (OWNER, EXCLUSIVE) and t.next_state == INVALID:
                if t.event == "evict":
                    assert t.bus_action == "replace"
                else:
                    assert t.event == "remote_write", (
                        "owners vanish only via relocation or erasure"
                    )


class TestSharerDependence:
    """The inject rows resolve on whether Shared replicas survive."""

    def test_inject_rows_carry_both_outcomes(self):
        for state in (INVALID, SHARED):
            t = protocol.transition(state, "inject")
            assert t.next_state == EXCLUSIVE
            assert t.next_state_sharers == OWNER

    def test_resolved_picks_by_sharers(self):
        t = protocol.transition(INVALID, "inject")
        assert t.resolved(sharers_exist=False) == EXCLUSIVE
        assert t.resolved(sharers_exist=True) == OWNER

    def test_resolved_next_helper(self):
        assert protocol.resolved_next(SHARED, "inject", True) == OWNER
        assert protocol.resolved_next(SHARED, "inject", False) == EXCLUSIVE
        # Rows without a sharer-dependent outcome ignore the flag.
        assert protocol.resolved_next(INVALID, "local_read", True) == SHARED

    def test_format_renders_split_cell(self):
        text = protocol.format_table()
        assert "E/O" in text


class TestValidateTable:
    def test_shipped_table_validates(self):
        protocol.validate_table()  # raises on failure

    # Every branch must name the offending (state, op) cell so a table
    # edit that breaks totality is a one-glance fix.

    def test_missing_row_raises(self):
        partial = [
            t for t in protocol.TRANSITIONS
            if (t.state, t.event) != (OWNER, "evict")
        ]
        with pytest.raises(protocol.ProtocolError,
                           match=r"missing \(O, evict\)"):
            protocol.validate_table(partial)

    def test_duplicate_row_raises(self):
        doubled = list(protocol.TRANSITIONS) + [protocol.TRANSITIONS[0]]
        with pytest.raises(protocol.ProtocolError,
                           match=r"\(I, local_read\): duplicate"):
            protocol.validate_table(doubled)

    def test_unknown_state_raises(self):
        import dataclasses

        bad = [dataclasses.replace(protocol.TRANSITIONS[0], state=9)]
        bad += list(protocol.TRANSITIONS[1:])
        with pytest.raises(protocol.ProtocolError,
                           match=r"\(\?9, local_read\): unknown state 9"):
            protocol.validate_table(bad)

    def test_unknown_event_raises(self):
        import dataclasses

        bad = [dataclasses.replace(protocol.TRANSITIONS[0], event="flush")]
        bad += list(protocol.TRANSITIONS[1:])
        with pytest.raises(protocol.ProtocolError,
                           match=r"\(I, flush\): unknown event 'flush'"):
            protocol.validate_table(bad)


class TestValidateTiming:
    """With a timing config, validate_table rejects negative or missing
    parameters for any bus action the table references, naming the
    offending (action, parameter)."""

    def test_default_timing_validates(self):
        from repro.common.config import TimingConfig

        protocol.validate_table(protocol.TRANSITIONS,
                                timing=TimingConfig())

    def test_negative_parameter_names_action_and_param(self):
        import dataclasses

        from repro.common.config import TimingConfig

        bad = dataclasses.replace(TimingConfig(), bus_phase_ns=-5)
        with pytest.raises(protocol.ProtocolError,
                           match=r"action 'read': timing parameter "
                                 r"bus_phase_ns is negative \(-5\)"):
            protocol.validate_table(protocol.TRANSITIONS, timing=bad)

    def test_missing_parameter_names_action_and_param(self):
        class Partial:
            nc_ns = 24
            bus_phase_ns = 20
            dram_latency_ns = 100
            # remote_overhead_ns deliberately absent

        with pytest.raises(protocol.ProtocolError,
                           match=r"action 'read': timing parameter "
                                 r"remote_overhead_ns is missing"):
            protocol.validate_table(protocol.TRANSITIONS, timing=Partial())

    def test_only_referenced_actions_checked(self):
        """A table that never relocates doesn't need replace's params —
        the check is per referenced action, not per catalogue entry."""
        class UpgradeOnly:
            nc_ns = 24
            bus_phase_ns = 20

        rows = [t for t in protocol.TRANSITIONS
                if t.bus_action in ("", "upgrade")]
        # not total, so run just the timing half via a tiny total table:
        import dataclasses

        filled = list(rows)
        seenpairs = {(t.state, t.event) for t in rows}
        for s in protocol.STATES:
            for e in protocol.EVENTS:
                if (s, e) not in seenpairs:
                    filled.append(dataclasses.replace(
                        protocol.TRANSITIONS[2], state=s, event=e,
                        next_state=None, bus_action=""))
        protocol.validate_table(filled, timing=UpgradeOnly())

    def test_build_dispatch_runs_the_timing_check(self):
        import dataclasses

        from repro.common.config import TimingConfig
        from tests.conftest import make_machine

        timing = dataclasses.replace(TimingConfig(), nc_ns=-1)
        with pytest.raises(protocol.ProtocolError,
                           match=r"nc_ns is negative"):
            make_machine(timing=timing)


class TestMachineMatchesTable:
    """Drive the machine through each table row and check the state."""

    def _state_of(self, m, node_id: int, line: int) -> int:
        return m.nodes[node_id].am.state_of(line)

    def test_invalid_local_read(self, machine):
        machine.read(0, 0, 0)          # materializes E in node 0
        machine.read(2, 0, 1000)       # node 1: I + local_read
        assert self._state_of(machine, 1, 0) == protocol.next_state(
            INVALID, "local_read"
        )

    def test_invalid_local_write(self, machine):
        machine.read(0, 0, 0)
        machine.write(2, 0, 1000)      # node 1: I + local_write
        assert self._state_of(machine, 1, 0) == protocol.next_state(
            INVALID, "local_write"
        )

    def test_exclusive_remote_read(self, machine):
        machine.read(0, 0, 0)          # node 0: E
        machine.read(2, 0, 1000)       # node 0 sees remote_read
        assert self._state_of(machine, 0, 0) == protocol.next_state(
            EXCLUSIVE, "remote_read"
        )

    def test_exclusive_remote_write(self, machine):
        machine.read(0, 0, 0)
        machine.write(2, 0, 1000)
        assert self._state_of(machine, 0, 0) == protocol.next_state(
            EXCLUSIVE, "remote_write"
        )

    def test_shared_local_write(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)       # node 1: S
        machine.write(2, 0, 2000)      # S + local_write
        assert self._state_of(machine, 1, 0) == protocol.next_state(
            SHARED, "local_write"
        )

    def test_shared_remote_write(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)       # node 1: S
        machine.write(0, 0, 2000)      # node 1 sees remote_write
        assert self._state_of(machine, 1, 0) == (
            protocol.next_state(SHARED, "remote_write") or INVALID
        )

    def test_owner_local_write(self, machine):
        machine.read(0, 0, 0)
        machine.read(2, 0, 1000)       # node 0: O now
        assert self._state_of(machine, 0, 0) == OWNER
        machine.write(0, 0, 2000)      # O + local_write
        assert self._state_of(machine, 0, 0) == protocol.next_state(
            OWNER, "local_write"
        )

    def test_shared_inject_takeover(self):
        """S + inject -> sharer takeover (table row SHARED/inject)."""
        from tests.test_replacement import tiny_machine

        m = tiny_machine(nodes=2, assoc=1)
        m.write(0, 0, 0)
        m.read(1, 0, 100)              # node 1: S
        m.write(0, LINE, 200)          # node 0 evicts line 0 -> takeover
        assert m.nodes[1].am.state_of(0) in (OWNER, EXCLUSIVE)
