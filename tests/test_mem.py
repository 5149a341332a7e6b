"""Unit tests for repro.mem: address space, tag arrays, shadow tags."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.mem.address import AddressSpace
from repro.mem.soa import (
    INVALID,
    VICTIM_LRU,
    VICTIM_NONINCLUSIVE,
    VICTIM_SHARED_FIRST,
    LineArray,
)
from repro.mem.shadow import ShadowMemory, ShadowTags


class TestAddressSpace:
    def test_alloc_page_aligned_consecutive(self):
        sp = AddressSpace(page_size=256)
        a = sp.alloc(100, "a")
        b = sp.alloc(300, "b")
        assert a.base == 0
        assert b.base == 256, "segments are page aligned and consecutive"
        assert sp.allocated_bytes == 256 + 512

    def test_segment_addr_bounds(self):
        sp = AddressSpace(page_size=256)
        seg = sp.alloc(100, "a")
        assert seg.addr(0) == seg.base
        with pytest.raises(IndexError):
            seg.addr(100)

    def test_first_touch_home(self):
        sp = AddressSpace(page_size=256)
        sp.alloc(1024, "a")
        assert sp.ensure_page(300, node_id=2) is True
        assert sp.ensure_page(400, node_id=5) is False, "same page, no re-home"
        assert sp.page_home[1] == 2
        assert sp.touched_bytes == 256

    def test_touch_callback(self):
        sp = AddressSpace(page_size=256)
        sp.alloc(1024, "a")
        seen = []
        sp.on_page_touch = lambda page, node: seen.append((page, node))
        sp.ensure_page(0, 1)
        sp.ensure_page(600, 3)
        assert seen == [(0, 1), (2, 3)]

    def test_lines_of_page(self):
        sp = AddressSpace(page_size=256)
        lines = list(sp.lines_of_page(2, line_size=64))
        assert lines == [8, 9, 10, 11]

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            AddressSpace(page_size=100)
        sp = AddressSpace(page_size=256)
        with pytest.raises(ConfigError):
            sp.alloc(0, "empty")

    def test_segment_named(self):
        sp = AddressSpace(page_size=256)
        sp.alloc(64, "x")
        assert sp.segment_named("x").name == "x"
        with pytest.raises(KeyError):
            sp.segment_named("nope")


def _geometry(sets=4, assoc=2):
    return CacheGeometry(num_sets=sets, assoc=assoc, line_size=64)


def _touch(arr: LineArray, line: int) -> None:
    """Mark ``line`` most-recently-used, as the machine's hot paths do."""
    arr.tick += 1
    arr.lru_a[arr.index[line]] = arr.tick


def _reference_victim(arr: LineArray, set_idx: int, mode: int) -> int:
    """``min((class, lru, way))`` over the set: Shared ways are class 0;
    under VICTIM_NONINCLUSIVE other ways with an aux mask are class 1 and
    bare ones class 2, otherwise every non-Shared way is class 1."""
    def key(w: int) -> tuple:
        if arr.state_a[w] == 1:  # repro.coma.states.SHARED
            cls = 0
        elif mode == VICTIM_NONINCLUSIVE:
            cls = 1 if arr.aux_a[w] else 2
        else:
            cls = 1
        return (cls, arr.lru_a[w], w)

    base = set_idx * arr.assoc
    return min(range(base, base + arr.assoc), key=key)


class TestSetAssocArray:
    """The set-associative tag array, :class:`LineArray`, addressed by
    way number."""

    def test_fill_and_lookup(self):
        arr = LineArray(_geometry())
        w = arr.free_way_idx(42 % arr.num_sets)
        arr.fill_way(w, 42, state=1)
        assert arr.index[42] == w
        assert arr.state_of(42) == 1
        assert 42 in arr
        assert arr.occupancy == 1

    def test_fill_wrong_set_asserts(self):
        arr = LineArray(_geometry())
        arr.fill_way(arr.free_way_idx(0), 1, state=1)  # line 1 maps to set 1
        with pytest.raises(AssertionError, match="maps to 1"):
            arr.check_consistency()

    def test_invalidate(self):
        arr = LineArray(_geometry())
        arr.fill_way(arr.free_way_idx(2), 2, state=1)
        assert arr.invalidate_line(2) is True
        assert arr.state_of(2) == INVALID
        assert 2 not in arr
        assert arr.invalidate_line(2) is False

    def test_lru_victim(self):
        arr = LineArray(_geometry(sets=1, assoc=3))
        for line in (0, 1, 2):
            arr.fill_way(arr.free_way_idx(0), line, state=1)  # all in set 0
        _touch(arr, 0)  # 0 most recent; 1 is now LRU
        assert arr.free_way_idx(0) == -1
        assert arr.line_a[arr.victim_way(0, VICTIM_LRU)] == 1
        arr.invalidate_line(2)
        assert arr.victim_way(0, VICTIM_LRU) == 2, "invalid way first"

    @given(
        ways=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 4)),
            min_size=4, max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_priority_victim(self, ways):
        """Property: the interned state-aware policies pick the
        ``min((class, lru, way))`` way."""
        arr = LineArray(_geometry(sets=2, assoc=4))
        for k, (state, aux, lru) in enumerate(ways):
            w = 4 + k  # set 1
            if state:
                arr.fill_way(w, 1 + 2 * k, state)
            arr.aux_a[w] = aux
            arr.lru_a[w] = lru
        for mode in (VICTIM_SHARED_FIRST, VICTIM_NONINCLUSIVE):
            assert arr.victim_way(1, mode) == _reference_victim(arr, 1, mode)

    def test_count_state(self):
        arr = LineArray(_geometry())
        arr.fill_way(arr.free_way_idx(0), 0, state=1)
        arr.fill_way(arr.free_way_idx(1), 1, state=2)
        assert arr.count_state(1) == 1
        assert arr.count_state(2) == 1
        assert arr.count_state(INVALID) == 0

    def test_refill_valid_entry_updates_index(self):
        arr = LineArray(_geometry(sets=1, assoc=1))
        w = arr.free_way_idx(0)
        arr.fill_way(w, 0, state=1)
        arr.fill_way(w, 1, state=1)  # displaces line 0 in place
        assert 0 not in arr
        assert arr.index[1] == w
        arr.check_consistency()

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["fill", "inv", "touch"]), st.integers(0, 30)),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_index_matches_reference_model(self, ops):
        """Property: the dict index always mirrors the buffers, and the
        LRU victim is the least recently filled or touched line."""
        arr = LineArray(_geometry(sets=3, assoc=2))
        model: dict[int, int] = {}  # resident line -> last use
        for step, (op, line) in enumerate(ops):
            if op == "fill" and line not in arr:
                s = line % arr.num_sets
                w = arr.free_way_idx(s)
                if w < 0:
                    w = arr.victim_way(s, VICTIM_LRU)
                    lru = min((x for x in model if x % arr.num_sets == s),
                              key=model.__getitem__)
                    assert arr.line_a[w] == lru
                    del model[lru]
                arr.fill_way(w, line, state=1)
                model[line] = step
            elif op == "inv":
                arr.invalidate_line(line)
                model.pop(line, None)
            elif op == "touch" and line in arr:
                _touch(arr, line)
                model[line] = step
        arr.check_consistency()
        assert set(arr.index) == set(model)


class TestShadowTags:
    def test_lru_eviction(self):
        sh = ShadowTags(2)
        sh.access(1)
        sh.access(2)
        sh.access(1)  # refresh 1; 2 is LRU
        sh.access(3)  # evicts 2
        assert 1 in sh and 3 in sh and 2 not in sh

    def test_access_returns_hit(self):
        sh = ShadowTags(4)
        assert sh.access(9) is False
        assert sh.access(9) is True

    def test_remove(self):
        sh = ShadowTags(4)
        sh.access(5)
        sh.remove(5)
        assert 5 not in sh
        sh.remove(5)  # idempotent

    def test_remove_absent_line_is_a_noop(self):
        sh = ShadowTags(2)
        sh.access(1)
        sh.remove(7)  # never inserted
        assert 1 in sh and len(sh) == 1

    def test_reaccess_after_removal_is_a_miss(self):
        sh = ShadowTags(4)
        sh.access(5)
        sh.remove(5)
        assert sh.access(5) is False  # invalidated: cold again
        assert sh.access(5) is True

    def test_removal_frees_capacity(self):
        sh = ShadowTags(2)
        sh.access(1)
        sh.access(2)
        sh.remove(1)
        sh.access(3)  # fits in the freed slot: 2 must survive
        assert 2 in sh and 3 in sh and len(sh) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ShadowTags(0)
        with pytest.raises(ValueError):
            ShadowTags(-1)

    @given(st.lists(st.integers(0, 20), max_size=300), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_capacity(self, accesses, cap):
        sh = ShadowTags(cap)
        for line in accesses:
            sh.access(line)
            assert len(sh) <= cap

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_lru(self, accesses):
        """Property: hit/miss sequence matches a brute-force LRU list."""
        cap = 3
        sh = ShadowTags(cap)
        ref: list[int] = []
        for line in accesses:
            expect_hit = line in ref
            got_hit = sh.access(line)
            assert got_hit == expect_hit
            if line in ref:
                ref.remove(line)
            ref.append(line)
            if len(ref) > cap:
                ref.pop(0)


class TestShadowMemory:
    def test_untouched_line_is_version_zero(self):
        golden = ShadowMemory()
        assert golden.version(3) == 0
        assert golden.last(3) == (0, -1, 0)
        assert 3 not in golden and len(golden) == 0

    def test_commit_bumps_version_and_records_writer(self):
        golden = ShadowMemory()
        assert golden.commit(3, proc=2, t=100) == 1
        assert golden.commit(3, proc=5, t=200) == 2
        assert golden.version(3) == 2
        assert golden.last(3) == (2, 5, 200)
        assert 3 in golden and len(golden) == 1

    def test_lines_are_independent(self):
        golden = ShadowMemory()
        golden.commit(1, proc=0, t=10)
        golden.commit(1, proc=0, t=20)
        golden.commit(2, proc=1, t=30)
        assert golden.version(1) == 2
        assert golden.version(2) == 1
        assert len(golden) == 2
