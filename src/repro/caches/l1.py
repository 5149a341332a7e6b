"""First-level cache: direct-mapped, write-through, no-write-allocate.

The paper fixes the L1 at 4 KB direct-mapped; we keep it direct-mapped and
scale the capacity with the working set (DESIGN.md section 2).  Because it
is write-through into the SLC, evictions are always silent, and a write
has no L1 state to change: the machines never probe the L1 on a write.

The whole cache is one tag vector: ``tags[line % nsets]`` is the line
held by that set, -1 when empty.  A probe is one modulo and one compare;
the machines and the kernel's fused hit path open it in line on
``tags``.
"""

from __future__ import annotations

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.hotpath import hotpath


class L1Cache:
    """Direct-mapped first-level cache."""

    __slots__ = ("tags", "nsets")

    def __init__(self, geometry: CacheGeometry) -> None:
        if geometry.assoc != 1:
            raise ConfigError(f"the L1 is direct-mapped, got assoc {geometry.assoc}")
        self.nsets = geometry.num_sets
        #: Line held by each set, or -1.
        self.tags = [-1] * geometry.num_sets

    @hotpath
    def lookup(self, line: int) -> bool:
        """Read probe."""
        return self.tags[line % self.nsets] == line

    @hotpath
    def fill(self, line: int) -> None:
        """Bring ``line`` in, silently displacing the set's occupant."""
        self.tags[line % self.nsets] = line

    @hotpath
    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns True if it was."""
        tags = self.tags
        w = line % self.nsets
        if tags[w] != line:
            return False
        tags[w] = -1
        return True

    def check_consistency(self, slc_index: dict[int, int]) -> None:
        """Every tag sits in the set its line maps to and is held by the
        SLC below (``slc_index``: its line -> way dict)."""
        nsets = self.nsets
        for w, line in enumerate(self.tags):
            if line == -1:
                continue
            assert line % nsets == w, (
                f"L1 line {line:#x} held in set {w}, maps to {line % nsets}"
            )
            assert line in slc_index, f"L1 holds {line:#x} not in SLC"
