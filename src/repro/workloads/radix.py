"""Radix: the SPLASH-2 parallel integer radix sort.

Each pass histograms one digit of the keys, computes global digit offsets
(a tree reduction done here as a lock-protected merge plus a prefix pass
by thread 0), and then *permutes* the keys into the destination array.
The permutation writes are scattered across the whole destination — an
all-to-all pattern with poor spatial locality that makes radix the
paper's canonical high-write-traffic, contention-limited application
(it is one of the two that keep degrading under clustering in Figure 5).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.mem.address import AddressSpace
from repro.workloads.base import SharedArray, Workload
from repro.workloads.registry import register


@register
class RadixWorkload(Workload):
    name = "radix"
    description = "integer sorting"
    paper_working_set_mb = 16.5  # 2M keys, radix 1024 in the paper
    n_locks = 0
    n_barriers = 1

    radix_bits = 8

    def __init__(self, n_threads: int = 16, scale: float = 1.0, seed: int = 1997):
        super().__init__(n_threads, scale, seed)
        self.n = int(24576 * scale)
        self.buckets = 1 << self.radix_bits
        self.passes = 2  # 16-bit keys

    def allocate(self, space: AddressSpace) -> None:
        n = self.n
        self.keys = SharedArray(space, "radix.keys", n, itemsize=8, dtype=np.int64)
        self.out = SharedArray(space, "radix.out", n, itemsize=8, dtype=np.int64)
        # Per-thread digit histograms plus the global prefix array.
        self.hist = SharedArray(
            space,
            "radix.hist",
            self.buckets * (self.n_threads + 1),
            itemsize=8,
            dtype=np.int64,
        )
        rng = self.rng("keys")
        self.init_keys = rng.integers(
            0, 1 << (self.radix_bits * self.passes), size=n, dtype=np.int64
        )

    # ------------------------------------------------------------------
    def _hist_idx(self, tid: int, digit: int) -> int:
        return tid * self.buckets + digit

    @staticmethod
    def _slots(digits, offsets):
        """Each key's destination: its digit's offset plus its rank among
        the keys with that digit (a stable counting sort)."""
        order = np.argsort(digits, kind="stable")
        ranked = digits[order]
        slots = np.empty_like(order)
        slots[order] = offsets[ranked] + np.arange(len(order)) - np.searchsorted(
            ranked, ranked)
        return slots

    def thread(self, tid: int) -> Iterator[tuple]:
        # Values are computed one numpy step per phase: between two
        # barriers a phase writes only locations no thread reads in it.
        n, buckets, nt = self.n, self.buckets, self.n_threads
        mine = self.chunk(n, tid)
        lo, hi = mine.start, mine.stop
        hist = self.hist.data
        own = slice(tid * buckets, (tid + 1) * buckets)  # this thread's histogram
        hb = self.hist.base
        row = hb + 8 * own.start
        # First touch of the owned key slices.
        self.keys.data[lo:hi] = self.init_keys[lo:hi]
        kb = self.keys.base
        for i in mine:
            yield ("w", kb + 8 * i)
        yield ("c", 2 * len(mine))
        yield ("b", 0)

        src, dst = self.keys, self.out
        for p in range(self.passes):
            shift = p * self.radix_bits
            sb, db = src.base, dst.base
            # Local histogram over the owned slice of the source (src is
            # read-only until the permutation's barrier).
            keys = src.data[lo:hi]
            hist[own] = np.bincount((keys >> shift) & (buckets - 1), minlength=buckets)
            for i in mine:
                yield ("r", sb + 8 * i)
            yield ("c", 4 * len(mine))
            for d in range(buckets):
                yield ("w", row + 8 * d)
            yield ("b", 0)

            # Thread 0 computes global offsets: rank order is (digit,
            # thread) so each thread's write region is contiguous per digit.
            if tid == 0:
                ranks = hist[:nt * buckets].reshape(nt, buckets).T  # [digit, thread]
                ranks[:] = (np.cumsum(ranks) - ranks.ravel()).reshape(buckets, nt)
                for d in range(buckets):
                    for t in range(nt):
                        a = hb + 8 * (t * buckets + d)
                        yield ("r", a)
                        yield ("w", a)
                yield ("c", 3 * buckets * nt)
            yield ("b", 0)

            # Permutation: scattered writes into the destination array.
            slots = self._slots((keys >> shift) & (buckets - 1), hist[own])
            dst.data[slots] = keys
            for d in range(buckets):
                yield ("r", row + 8 * d)
            # A memoryview yields the slots as plain ints, without a copy.
            for i, pos in zip(mine, memoryview(slots)):
                yield ("r", sb + 8 * i)
                yield ("w", db + 8 * pos)
            yield ("c", 6 * len(mine))
            yield ("b", 0)
            src, dst = dst, src

        # Verify sortedness of the owned slice (reads, cheap).
        sb = src.base
        for i in mine[: len(mine) : 8]:
            yield ("r", sb + 8 * i)
        yield ("c", len(mine) // 4)
        yield ("b", 0)
