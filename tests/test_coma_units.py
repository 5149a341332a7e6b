"""Unit tests for the smaller COMA components: states, line table, node."""

from __future__ import annotations

import pytest

from repro.common.config import CacheGeometry, MachineConfig
from repro.common.errors import ProtocolError
from repro.coma.linetable import LOC_AM, LineInfo, LineTable
from repro.coma.node import ComaNode
from repro.coma.states import (
    EXCLUSIVE,
    INVALID,
    OWNER,
    SHARED,
    is_owning,
    state_name,
)


class TestStates:
    def test_names(self):
        assert state_name(INVALID) == "I"
        assert state_name(SHARED) == "S"
        assert state_name(OWNER) == "O"
        assert state_name(EXCLUSIVE) == "E"
        assert state_name(42) == "?42"

    def test_is_owning(self):
        assert is_owning(EXCLUSIVE) and is_owning(OWNER)
        assert not is_owning(SHARED) and not is_owning(INVALID)


class TestLineTable:
    def test_materialize_and_get(self):
        lt = LineTable()
        info = lt.materialize(10, owner_node=3)
        assert lt.get(10) is info
        assert info.owner_node == 3
        assert info.owner_loc == LOC_AM
        assert info.sharers == set()
        assert 10 in lt and len(lt) == 1

    def test_double_materialize_rejected(self):
        lt = LineTable()
        lt.materialize(1, 0)
        with pytest.raises(ProtocolError):
            lt.materialize(1, 0)

    def test_get_unmaterialized_rejected(self):
        lt = LineTable()
        with pytest.raises(ProtocolError):
            lt.get(99)
        assert lt.maybe(99) is None

    def test_lines_owned_by(self):
        lt = LineTable()
        lt.materialize(1, 0)
        lt.materialize(2, 1)
        lt.materialize(3, 0)
        assert sorted(lt.lines_owned_by(0)) == [1, 3]

    def test_repr(self):
        info = LineInfo(2)
        info.sharers.add(5)
        assert "owner=2" in repr(info)


class TestComaNode:
    def _node(self):
        cfg = MachineConfig(
            n_processors=4,
            procs_per_node=2,
            am_bytes_per_node=8 * 4 * 64,
            slc_bytes=512,
            l1_bytes=128,
        )
        return ComaNode(0, CacheGeometry(8, 4, 64), cfg)

    def test_presence_tracking(self):
        n = self._node()
        assert not n.has_line(5)
        n.overflow[5] = EXCLUSIVE
        assert n.has_line(5)

    def test_removal_reason_bookkeeping(self):
        n = self._node()
        n.note_present(7)
        assert 7 in n.ever
        n.note_removed(7, "inv")
        assert n.removal_reason[7] == "inv"
        n.note_present(7)
        assert 7 not in n.removal_reason, "re-presence clears the reason"

    def test_owned_lines_in_am(self):
        n = self._node()
        n.am.fill_way(n.am.free_way_idx(0), 0, EXCLUSIVE)
        n.am.fill_way(n.am.free_way_idx(1), 1, SHARED)
        assert n.owned_lines_in_am() == 1
