"""Workload building blocks: shared arrays and the workload base class."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Iterator

import numpy as np

from repro.common.rng import make_rng
from repro.mem.address import AddressSpace

#: Sharing-pattern declarations for :meth:`Workload.declared_sharing`.
#: ``private``: after an initial barrier-separated setup phase, each element
#: is accessed by exactly one thread — a concurrent conflicting access pair
#: is a workload bug.  ``shared``: elements may be accessed by several
#: threads; conflicts must still be ordered by locks/barriers.  ``sync``:
#: the segment implements synchronization itself (lock/barrier words) and
#: is exempt from data-race checking.
SHARING_PRIVATE = "private"
SHARING_SHARED = "shared"
SHARING_SYNC = "sync"


class SharedArray:
    """A 1-D array living in the simulated shared address space.

    Data values are kept in a NumPy array on the Python side (the memory
    system never sees values); the simulated side is the address range,
    element ``i`` at ``base + itemsize * i``.  Generators yield
    ``("r", addr)`` / ``("w", addr)`` tuples, computing the address with
    :meth:`addr` or, in the hottest loops, inline from :attr:`base`;
    :meth:`read` / :meth:`write` are readable generator helpers for cooler
    code paths (``x = yield from arr.read(i)``).

    Addresses should be plain Python ints (NumPy scalars work but are
    slower as dict keys downstream).
    """

    __slots__ = ("name", "base", "itemsize", "length", "data")

    def __init__(
        self,
        space: AddressSpace,
        name: str,
        length: int,
        itemsize: int = 8,
        dtype=np.float64,
    ) -> None:
        seg = space.alloc(length * itemsize, name)
        self.name = name
        self.base = seg.base
        self.itemsize = itemsize
        self.length = length
        self.data = np.zeros(length, dtype=dtype)

    def __len__(self) -> int:
        return self.length

    def addr(self, i: int) -> int:
        """Byte address of element ``i`` (unchecked, hot path)."""
        return self.base + i * self.itemsize

    def read(self, i: int):
        """Generator helper: emit the load and return the value."""
        yield ("r", self.base + i * self.itemsize)
        return self.data[i]

    def write(self, i: int, value):
        """Generator helper: store the value and emit the write."""
        self.data[i] = value
        yield ("w", self.base + i * self.itemsize)


class Workload(ABC):
    """Base class for the SPLASH-2-like kernels.

    Lifecycle (driven by ``repro.experiments.runner``):

    1. construct with ``n_threads`` / ``scale`` / ``seed``;
    2. :meth:`allocate` carves arrays out of the address space (this
       determines the working set and therefore the cache sizing);
    3. one generator per thread from :meth:`thread` feeds the simulator.

    ``scale`` multiplies the problem dimensions; 1.0 is the scaled-down
    default documented in DESIGN.md.
    """

    #: Registry key, e.g. ``"fft"``.
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    #: Working set the paper reports for the full-size problem (Table 1).
    paper_working_set_mb: ClassVar[float] = 0.0
    #: Synchronization footprint; the runner allocates one line for each.
    n_locks: ClassVar[int] = 1
    n_barriers: ClassVar[int] = 4

    def __init__(self, n_threads: int = 16, scale: float = 1.0, seed: int = 1997):
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.n_threads = n_threads
        self.scale = scale
        self.seed = seed

    # -- abstract interface ------------------------------------------------

    @abstractmethod
    def allocate(self, space: AddressSpace) -> None:
        """Allocate every shared array the kernel uses."""

    @abstractmethod
    def thread(self, tid: int) -> Iterator[tuple]:
        """The event generator executed by thread ``tid``."""

    def declared_sharing(self) -> dict[str, str]:
        """Segment-name -> sharing pattern (``SHARING_*``) declarations.

        Consumed by the coherence sanitizer: a conflicting access pair on
        a segment declared ``SHARING_PRIVATE`` is reported as a
        partitioning bug (rule R003) even when it happens to be ordered.
        The default declares nothing; kernels override selectively.
        """
        return {}

    # -- helpers -------------------------------------------------------------

    def rng(self, *tags) -> np.random.Generator:
        """Deterministic per-purpose RNG."""
        return make_rng(self.seed, self.name, *tags)

    def chunk(self, n: int, tid: int) -> range:
        """Contiguous block partition of ``range(n)`` for thread ``tid``.

        Contiguous (not interleaved) assignment preserves the locality that
        the paper's sequential process placement exploits within clusters.
        """
        per = -(-n // self.n_threads)
        lo = min(n, tid * per)
        hi = min(n, lo + per)
        return range(lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(threads={self.n_threads}, scale={self.scale})"
