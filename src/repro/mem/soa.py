"""Arrays-of-structs line storage (the compiled tag array).

:class:`LineArray` stores what :class:`~repro.mem.setassoc.SetAssocArray`
stored in per-line ``Entry`` objects — tag, state, LRU stamp, dirty bit,
auxiliary mask — as five parallel ``array`` buffers indexed by a flat
*way number* (``set_idx * assoc + k``).  The hot paths of the machine
address ways as plain ints and read the buffers directly: no per-line
object, no attribute descriptor, one dict probe per lookup.

Two APIs coexist on the same storage:

* the **way-int API** (``way_of`` / ``fill_way`` / ``victim_way`` / the
  raw ``*_a`` buffers) used by compiled hot paths — the victim-selection
  policies are interned to small ints (:data:`VICTIM_LRU`,
  :data:`VICTIM_SHARED_FIRST`, :data:`VICTIM_NONINCLUSIVE`) so selection
  is branchy integer code instead of a key-function callback;
* the **Entry-compatible API** (``lookup`` / ``fill`` / ``find_victim``
  with a priority callable / ``valid_entries``) kept for tests, the
  cross-checker and other cold introspection.  It hands out
  :class:`WayRef` views — one preallocated per way, stable identity —
  that read and write through to the buffers.

State values are opaque small ints with ``0 == INVALID`` by convention;
the interned victim policies additionally rely on the E/O/S/I encoding of
:mod:`repro.coma.states` (``SHARED == 1``, owning states above it), which
is asserted by the protocol compiler.  This module must stay importable
without :mod:`repro.coma` (the caches import it while that package is
still loading).
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, Optional

from repro.common.config import CacheGeometry
from repro.common.hotpath import hotpath

INVALID = 0

#: repro.coma.states.SHARED — duplicated here to keep this module free of
#: coma imports (see module docstring); equality is asserted at protocol
#: compile time.
_SHARED = 1

#: Interned victim-selection policies for :meth:`LineArray.victim_way`.
VICTIM_LRU = 0             # invalid first, then least-recently-used
VICTIM_SHARED_FIRST = 1    # Shared ways before owner ways, ties by LRU
VICTIM_NONINCLUSIVE = 2    # Shared, then SLC-backed owners, then bare owners


class WayRef:
    """Entry-compatible view of one way of a :class:`LineArray`.

    Exactly one ref exists per way (preallocated), so identity is stable:
    two lookups of the same resident line return the same object.  All
    fields read and write through to the backing arrays.

    ``aux`` is cache-specific: the attraction memory stores the bitmask of
    local processors whose SLC holds the line; the SLC stores nothing.
    """

    __slots__ = ("_line_a", "_state_a", "_lru_a", "_aux_a", "_dirty_a",
                 "way", "set_idx")

    def __init__(self, arr: "LineArray", way: int, set_idx: int) -> None:
        # The buffers, not the array: the array holds its refs, so a
        # back-reference would make a cycle only the cyclic collector frees.
        self._line_a = arr.line_a
        self._state_a = arr.state_a
        self._lru_a = arr.lru_a
        self._aux_a = arr.aux_a
        self._dirty_a = arr.dirty_a
        self.way = way
        self.set_idx = set_idx

    @property
    def line(self) -> int:
        return self._line_a[self.way]

    @line.setter
    def line(self, v: int) -> None:
        self._line_a[self.way] = v

    @property
    def state(self) -> int:
        return self._state_a[self.way]

    @state.setter
    def state(self, v: int) -> None:
        self._state_a[self.way] = v

    @property
    def lru(self) -> int:
        return self._lru_a[self.way]

    @lru.setter
    def lru(self, v: int) -> None:
        self._lru_a[self.way] = v

    @property
    def dirty(self) -> bool:
        return self._dirty_a[self.way] != 0

    @dirty.setter
    def dirty(self, v: bool) -> None:
        self._dirty_a[self.way] = 1 if v else 0

    @property
    def aux(self) -> int:
        return self._aux_a[self.way]

    @aux.setter
    def aux(self, v: int) -> None:
        self._aux_a[self.way] = v

    @property
    def valid(self) -> bool:
        return self._state_a[self.way] != INVALID

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WayRef(set={self.set_idx}, line={self.line:#x}, "
            f"state={self.state}, dirty={self.dirty})"
        )


class LineArray:
    """Tag array: ``geometry.num_sets`` sets x ``geometry.assoc`` ways,
    stored as parallel buffers.  Set counts need not be powers of two
    (indexing is modulo), so the paper's "odd cache sizes" are exact."""

    __slots__ = (
        "geometry", "num_sets", "assoc",
        "line_a", "state_a", "lru_a", "aux_a", "dirty_a",
        "index", "refs", "tick",
    )

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.assoc = geometry.assoc
        n = geometry.num_sets * geometry.assoc
        self.line_a = array("q", [-1]) * n
        self.state_a = array("b", [INVALID]) * n
        self.lru_a = array("q", [0]) * n
        self.aux_a = array("q", [0]) * n
        self.dirty_a = array("b", [0]) * n
        #: line -> way number of the valid way holding it.
        self.index: dict[int, int] = {}
        self.refs = [
            WayRef(self, w, w // geometry.assoc) for w in range(n)
        ]
        self.tick = 0

    # ------------------------------------------------------------------
    # way-int API (compiled hot paths)
    # ------------------------------------------------------------------

    @hotpath
    def way_of(self, line: int) -> int:
        """Way holding ``line``, or -1."""
        w = self.index.get(line)
        return -1 if w is None else w

    @hotpath
    def touch_way(self, way: int) -> None:
        """Mark ``way`` most-recently-used."""
        self.tick += 1
        self.lru_a[way] = self.tick

    @hotpath
    def fill_way(self, way: int, line: int, state: int) -> None:
        """(Re)populate ``way`` with ``line`` in ``state``.

        The caller must already have dealt with any victim occupying the
        way (writeback, relocation, ...); a still-valid way is simply
        dropped from the index here.  Set mapping is the caller's
        contract (checked in the Entry-compatible ``fill`` and by
        :meth:`check_consistency`, not per call here).
        """
        if self.state_a[way] != INVALID:
            del self.index[self.line_a[way]]
        self.line_a[way] = line
        self.state_a[way] = state
        self.dirty_a[way] = 0
        self.aux_a[way] = 0
        self.index[line] = way
        self.tick += 1
        self.lru_a[way] = self.tick

    @hotpath
    def invalidate_way(self, way: int) -> None:
        """Drop ``way`` from the array."""
        if self.state_a[way] != INVALID:
            del self.index[self.line_a[way]]
        self.line_a[way] = -1
        self.state_a[way] = INVALID
        self.dirty_a[way] = 0
        self.aux_a[way] = 0

    @hotpath
    def free_way_idx(self, set_idx: int) -> int:
        """An invalid way in ``set_idx``, or -1 (first in way order)."""
        state_a = self.state_a
        w = set_idx * self.assoc
        end = w + self.assoc
        while w < end:
            if not state_a[w]:
                return w
            w += 1
        return -1

    @hotpath
    def victim_way(self, set_idx: int, mode: int) -> int:
        """Pick the way to displace in ``set_idx`` under interned ``mode``.

        Replicates the SetAssocArray selection exactly: lower victim class
        wins, ties broken by LRU stamp, first minimum in way order.
        ``VICTIM_LRU`` additionally returns the first invalid way
        outright (the state-blind default policy).
        """
        assoc = self.assoc
        base = set_idx * assoc
        state_a = self.state_a
        lru_a = self.lru_a
        if mode == VICTIM_LRU:
            best = base
            best_lru = lru_a[base]
            w = base
            end = base + assoc
            while w < end:
                if not state_a[w]:
                    return w
                l = lru_a[w]
                if l < best_lru:
                    best = w
                    best_lru = l
                w += 1
            return best
        noninc = mode == VICTIM_NONINCLUSIVE
        aux_a = self.aux_a
        best = base
        st = state_a[base]
        if st == _SHARED:
            best_p = 0
        elif noninc:
            best_p = 1 if aux_a[base] else 2
        else:
            best_p = 1
        best_lru = lru_a[base]
        w = base + 1
        end = base + assoc
        while w < end:
            st = state_a[w]
            if st == _SHARED:
                p = 0
            elif noninc:
                p = 1 if aux_a[w] else 2
            else:
                p = 1
            l = lru_a[w]
            if p < best_p or (p == best_p and l < best_lru):
                best = w
                best_p = p
                best_lru = l
            w += 1
        return best

    # ------------------------------------------------------------------
    # Entry-compatible API (tests, cross-checks, cold introspection)
    # ------------------------------------------------------------------

    def lookup(self, line: int) -> Optional[WayRef]:
        """Return the (stable-identity) ref of the valid way holding
        ``line``, or None."""
        w = self.index.get(line)
        return None if w is None else self.refs[w]

    def __contains__(self, line: int) -> bool:
        return line in self.index

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def ways(self, set_idx: int) -> list[WayRef]:
        base = set_idx * self.assoc
        return self.refs[base:base + self.assoc]

    def touch(self, entry: WayRef) -> None:
        """Mark ``entry`` most-recently-used."""
        self.tick += 1
        self.lru_a[entry.way] = self.tick

    def find_victim(
        self,
        set_idx: int,
        priority: Optional[Callable[[WayRef], int]] = None,
    ) -> WayRef:
        """Pick the entry to displace in ``set_idx``.

        ``priority`` maps an entry to a class number; lower classes are
        displaced first, ties broken by LRU.  The default prefers invalid
        entries, then plain LRU (== ``victim_way(set_idx, VICTIM_LRU)``).
        """
        if priority is None:
            return self.refs[self.victim_way(set_idx, VICTIM_LRU)]
        ways = self.ways(set_idx)
        best = ways[0]
        best_key = (priority(best), best.lru)
        for e in ways[1:]:
            key = (priority(e), e.lru)
            if key < best_key:
                best, best_key = e, key
        return best

    def free_way(self, set_idx: int) -> Optional[WayRef]:
        """Return an invalid way in ``set_idx`` if one exists."""
        w = self.free_way_idx(set_idx)
        return None if w < 0 else self.refs[w]

    def fill(self, entry: WayRef, line: int, state: int) -> None:
        assert state != INVALID, "fill with INVALID makes no sense"
        assert entry.way // self.assoc == line % self.num_sets, (
            f"line {line:#x} does not map to set {entry.way // self.assoc}"
        )
        self.fill_way(entry.way, line, state)

    def invalidate(self, entry: WayRef) -> None:
        self.invalidate_way(entry.way)

    def invalidate_line(self, line: int) -> bool:
        """Invalidate ``line`` if present; returns True if it was."""
        w = self.index.get(line)
        if w is None:
            return False
        self.invalidate_way(w)
        return True

    # -- introspection ---------------------------------------------------

    def valid_entries(self) -> Iterator[WayRef]:
        refs = self.refs
        return (refs[w] for w in self.index.values())

    def count_state(self, state: int) -> int:
        state_a = self.state_a
        return sum(1 for w in self.index.values() if state_a[w] == state)

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return len(self.index)

    def check_consistency(self) -> None:
        """Internal invariant check used by the test suite."""
        seen = 0
        assoc = self.assoc
        for w in range(self.num_sets * assoc):
            if self.state_a[w] != INVALID:
                seen += 1
                line = self.line_a[w]
                s = w // assoc
                assert self.index.get(line) == w, (
                    f"index out of sync for line {line:#x}"
                )
                assert line % self.num_sets == s
        assert seen == len(self.index), "index size mismatch"
