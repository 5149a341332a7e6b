"""Second-level cache: private per processor, 4-way, write-back to the AM.

Sized at 1/128 of the application working set (paper section 3.1).  With
the inclusive hierarchy (paper default) every SLC line is also present in
the node's attraction memory, so evicting a clean line is silent and
evicting a dirty line costs one AM DRAM write.

Victims are reported *packed*: :meth:`SecondLevelCache.fill` returns
``(victim_line << 1) | dirty`` or :data:`NO_VICTIM`, so the per-fill
victim report costs no allocation on the hot path.
"""

from __future__ import annotations

from repro.common.config import CacheGeometry
from repro.common.hotpath import hotpath
from repro.mem.soa import LineArray

#: The one valid state of an SLC way.
SLC_PRESENT = 1

#: ``fill`` return value when no line was displaced.
NO_VICTIM = -1


class SecondLevelCache:
    """Write-back second-level cache."""

    __slots__ = ("array", "index", "_nsets")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.array = LineArray(geometry)
        #: The array's line -> way dict, aliased for hot membership tests.
        self.index = self.array.index
        self._nsets = geometry.num_sets

    def lookup(self, line: int) -> bool:
        """Read probe; refreshes LRU on hit."""
        w = self.index.get(line)
        if w is None:
            return False
        a = self.array
        a.tick += 1
        a.lru_a[w] = a.tick
        return True

    def __contains__(self, line: int) -> bool:
        return line in self.index

    @hotpath
    def fill(self, line: int) -> int:
        """Bring ``line`` in; returns the displaced victim packed as
        ``(line << 1) | dirty``, or :data:`NO_VICTIM`.

        The caller handles the victim's consequences: a dirty victim is
        written back to the AM, and the AM's record of which local SLCs
        hold the victim line must be updated.

        The free-way scan, LRU victim pick (invalid-first, first-minimal
        tie-break — ``victim_way(set_idx, VICTIM_LRU)`` semantics) and
        way refill are opened in line: one call, no sub-dispatch.
        """
        idx = self.index
        if line in idx:
            return NO_VICTIM
        a = self.array
        state_a = a.state_a
        base = (line % self._nsets) * a.assoc
        end = base + a.assoc
        packed = NO_VICTIM
        w = base
        while w < end:
            if not state_a[w]:
                break
            w += 1
        else:
            lru_a = a.lru_a
            w = base
            best_lru = lru_a[base]
            k = base + 1
            while k < end:
                if lru_a[k] < best_lru:
                    w = k
                    best_lru = lru_a[k]
                k += 1
            packed = (a.line_a[w] << 1) | a.dirty_a[w]
            del idx[a.line_a[w]]
        a.line_a[w] = line
        state_a[w] = SLC_PRESENT
        a.dirty_a[w] = 0
        a.aux_a[w] = 0
        idx[line] = w
        a.tick += 1
        a.lru_a[w] = a.tick
        return packed

    @hotpath
    def mark_dirty(self, line: int) -> None:
        w = self.index.get(line)
        assert w is not None, f"mark_dirty on absent line {line:#x}"
        a = self.array
        a.dirty_a[w] = 1
        a.tick += 1
        a.lru_a[w] = a.tick

    def invalidate(self, line: int) -> bool:
        """Back-invalidation from the AM (inclusion).  Dirty data being
        discarded is safe: the AM's copy is made authoritative by the
        caller before the line leaves the node."""
        return self.array.invalidate_line(line)
