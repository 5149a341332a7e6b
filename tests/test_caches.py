"""Unit tests for the L1 and second-level caches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.l1 import L1Cache
from repro.caches.slc import NO_VICTIM, SecondLevelCache
from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from tests.conftest import make_machine


def _geom(sets=4, assoc=2):
    return CacheGeometry(num_sets=sets, assoc=assoc, line_size=64)


def _l1(sets=4):
    return L1Cache(_geom(sets=sets, assoc=1))


class TestL1:
    def test_fill_and_lookup(self):
        l1 = _l1()
        assert l1.lookup(5) is False
        l1.fill(5)
        assert l1.lookup(5) is True

    def test_direct_mapped_conflict(self):
        l1 = _l1()
        l1.fill(1)
        l1.fill(5)  # same set (5 % 4 == 1), displaces line 1
        assert l1.lookup(1) is False
        assert l1.lookup(5) is True

    def test_write_no_allocate(self):
        """Write-through, no-write-allocate: a write to a line the SLC
        holds but the L1 does not leaves the L1 as it was."""
        m = make_machine()
        m.read(0, 0, 0)         # line 0 into SLC and L1 set 0
        m.read(0, 4 * 64, 1000)  # line 4 takes L1 set 0; both stay in SLC
        assert m.l1s[0].tags[0] == 4 and 0 in m.slcs[0]
        m.write(0, 0, 2000)
        m.write(0, 4 * 64, 3000)
        assert m.l1s[0].tags[0] == 4
        m.check_consistency()

    def test_invalidate(self):
        l1 = _l1()
        l1.fill(2)
        assert l1.invalidate(6) is False, "same set, other line"
        assert l1.invalidate(2) is True
        assert l1.lookup(2) is False
        assert l1.invalidate(2) is False

    def test_refill_same_line_noop(self):
        l1 = _l1()
        l1.fill(2)
        l1.fill(2)
        assert l1.tags == [-1, -1, 2, -1]

    def test_rejects_associative_geometry(self):
        with pytest.raises(ConfigError, match="direct-mapped"):
            L1Cache(_geom(assoc=2))

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["lookup", "fill", "inv"]),
                      st.integers(0, 20)),
            max_size=200,
        ),
        sets=st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_set_model(self, ops, sets):
        """Property: the tag vector behaves as one line per set."""
        l1 = _l1(sets)
        model: dict[int, int] = {}  # set -> resident line
        for op, line in ops:
            s = line % sets
            held = model.get(s) == line
            if op == "lookup":
                assert l1.lookup(line) is held
            elif op == "fill":
                l1.fill(line)
                model[s] = line
            else:
                assert l1.invalidate(line) is held
                if held:
                    del model[s]
        assert l1.tags == [model.get(s, -1) for s in range(sets)]
        l1.check_consistency({line: 0 for line in model.values()})

    def test_check_consistency_flags_misplaced_tag(self):
        l1 = _l1()
        l1.tags[0] = 5  # line 5 belongs in set 1
        with pytest.raises(AssertionError, match="maps to 1"):
            l1.check_consistency({5: 0})

    def test_check_consistency_flags_line_missing_from_slc(self):
        l1 = _l1()
        l1.fill(5)
        with pytest.raises(AssertionError, match="not in SLC"):
            l1.check_consistency({})


class TestSlc:
    def test_fill_returns_victim(self):
        # fill packs the victim as (line << 1) | dirty, NO_VICTIM for none.
        slc = SecondLevelCache(_geom(sets=1, assoc=2))
        assert slc.fill(0) == NO_VICTIM
        assert slc.fill(1) == NO_VICTIM
        victim = slc.fill(2)
        assert victim >= 0
        assert victim >> 1 == 0, "LRU way displaced"
        assert victim & 1 == 0, "clean victim"

    def test_dirty_victim_reported(self):
        slc = SecondLevelCache(_geom(sets=1, assoc=1))
        slc.fill(0)
        slc.mark_dirty(0)
        victim = slc.fill(1)
        assert victim >= 0 and victim & 1 == 1

    def test_lookup_refreshes_lru(self):
        slc = SecondLevelCache(_geom(sets=1, assoc=2))
        slc.fill(0)
        slc.fill(1)
        assert slc.lookup(0) is True  # 1 becomes LRU
        assert slc.lookup(5) is False
        victim = slc.fill(2)
        assert victim >> 1 == 1

    def test_contains(self):
        slc = SecondLevelCache(_geom())
        slc.fill(7)
        assert 7 in slc
        assert 8 not in slc

    def test_invalidate(self):
        slc = SecondLevelCache(_geom())
        slc.fill(7)
        slc.mark_dirty(7)
        assert slc.invalidate(7) is True
        assert 7 not in slc
        assert slc.invalidate(7) is False

    def test_fill_existing_line_no_victim(self):
        slc = SecondLevelCache(_geom(sets=1, assoc=1))
        slc.fill(0)
        assert slc.fill(0) == NO_VICTIM
