"""Arrays-of-structs line storage (the tag arrays).

:class:`LineArray` stores each way's tag, state, LRU stamp, dirty bit and
auxiliary mask in five parallel plain ``list`` columns indexed by a flat
*way number* (``set_idx * assoc + k``), plus one dict mapping each
resident line to its way.  A way is addressed only by its number: the hot
paths read and write the raw ``*_a`` columns directly, with no per-line
object and one dict probe per lookup.  The columns are lists, not
``array`` buffers, because CPython specializes ``list[int]`` subscripts
while an ``array`` load goes through the generic path and boxes a new
int for every LRU stamp and line number above 256 (see
docs/PERFORMANCE.md).  The victim-selection policies are interned to
small ints (:data:`VICTIM_LRU`, :data:`VICTIM_SHARED_FIRST`,
:data:`VICTIM_NONINCLUSIVE`) so selection is branchy integer code
instead of a key-function callback.  Cold callers (consistency checks,
the cross-checker, tests) read a line's state with :meth:`LineArray.state_of`.

``aux`` is cache-specific: the attraction memory stores the bitmask of
local processors whose SLC holds the line; the SLC stores nothing.

State values are opaque small ints with ``0 == INVALID`` by convention;
the interned victim policies additionally rely on the E/O/S/I encoding of
:mod:`repro.coma.states` (``SHARED == 1``, owning states above it), which
:mod:`repro.coma.machine` asserts when it loads.  This module must stay
importable without :mod:`repro.coma` (the caches import it while that
package is still loading).
"""

from __future__ import annotations

from repro.common.config import CacheGeometry
from repro.common.hotpath import hotpath

INVALID = 0

#: repro.coma.states.SHARED — duplicated here to keep this module free of
#: coma imports (see module docstring); equality is asserted when
#: repro.coma.machine loads.
_SHARED = 1

#: Interned victim-selection policies for :meth:`LineArray.victim_way`.
VICTIM_LRU = 0             # invalid first, then least-recently-used
VICTIM_SHARED_FIRST = 1    # Shared ways before owner ways, ties by LRU
VICTIM_NONINCLUSIVE = 2    # Shared, then SLC-backed owners, then bare owners


class LineArray:
    """Tag array: ``geometry.num_sets`` sets x ``geometry.assoc`` ways,
    stored as parallel list columns.  Set counts need not be powers of two
    (indexing is modulo), so the paper's "odd cache sizes" are exact."""

    __slots__ = (
        "num_sets", "assoc",
        "line_a", "state_a", "lru_a", "aux_a", "dirty_a",
        "index", "tick",
    )

    def __init__(self, geometry: CacheGeometry) -> None:
        self.num_sets = geometry.num_sets
        self.assoc = geometry.assoc
        n = geometry.num_sets * geometry.assoc
        self.line_a = [-1] * n
        self.state_a = [INVALID] * n
        self.lru_a = [0] * n
        self.aux_a = [0] * n
        self.dirty_a = [0] * n
        #: line -> way number of the valid way holding it.
        self.index: dict[int, int] = {}
        self.tick = 0

    @hotpath
    def fill_way(self, way: int, line: int, state: int) -> None:
        """(Re)populate ``way`` with ``line`` in ``state``.

        The caller must already have dealt with any victim occupying the
        way (writeback, relocation, ...); a still-valid way is simply
        dropped from the index here.  Set mapping is the caller's
        contract (checked by :meth:`check_consistency`, not per call).
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

        Lower victim class wins, ties broken by LRU stamp, first minimum
        in way order.  ``VICTIM_LRU`` additionally returns the first
        invalid way outright (the state-blind default policy).
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

    def __contains__(self, line: int) -> bool:
        return line in self.index

    def invalidate_line(self, line: int) -> bool:
        """Invalidate ``line`` if present; returns True if it was."""
        w = self.index.get(line)
        if w is None:
            return False
        self.invalidate_way(w)
        return True

    # -- introspection ---------------------------------------------------

    def state_of(self, line: int) -> int:
        """State of ``line``, or INVALID when it is absent."""
        w = self.index.get(line)
        return INVALID if w is None else self.state_a[w]

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
        n = self.num_sets * assoc
        for name in ("line_a", "state_a", "lru_a", "aux_a", "dirty_a"):
            size = len(getattr(self, name))
            assert size == n, f"column {name} holds {size} ways, expected {n}"
        for w in range(n):
            if self.state_a[w] != INVALID:
                seen += 1
                line = self.line_a[w]
                s = w // assoc
                assert self.index.get(line) == w, (
                    f"index out of sync for line {line:#x}"
                )
                assert line % self.num_sets == s, (
                    f"line {line:#x} held in set {s}, maps to "
                    f"{line % self.num_sets}"
                )
        assert seen == len(self.index), "index size mismatch"
