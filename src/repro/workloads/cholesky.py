"""Cholesky: sparse supernodal Cholesky factorization.

The paper's input (tk29.O) is a sparse SPD matrix.  We generate a seeded
sparse SPD *pattern* (banded plus random off-band entries), run a genuine
**symbolic factorization** — column structures with fill-in, the
elimination tree, supernode grouping — and then drive the simulated
numeric factorization from that structure:

* panels (supernodes) are eliminated wavefront by wavefront up the
  elimination tree (independent panels within a level, a shared task
  queue per level — dynamic scheduling is what makes Cholesky's panels
  *migratory*: whoever grabs the task pulls the panel to its node);
* a factored panel scatters right-looking updates into every ancestor
  panel its column structure reaches, under the ancestor's lock.

The elimination-tree levels (longest path from a leaf) come from one
forward pass over the panel-parent list, exactly the dependency analysis
a real solver performs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.mem.address import AddressSpace
from repro.workloads.base import SharedArray, Workload
from repro.workloads.registry import register


@register
class CholeskyWorkload(Workload):
    name = "cholesky"
    description = "Sparse matrix factorization"
    paper_working_set_mb = 40.5  # tk29.O in the paper
    #: lock 0 = task queue; locks 1.. guard panels (hashed).
    n_locks = 9
    n_barriers = 1

    band = 5
    extra_per_col = 3
    max_supernode = 8

    def __init__(self, n_threads: int = 16, scale: float = 1.0, seed: int = 1997):
        super().__init__(n_threads, scale, seed)
        self.n_cols = int(224 * scale)

    # ------------------------------------------------------------------
    # symbolic factorization
    # ------------------------------------------------------------------

    def _generate_pattern(self) -> list[set[int]]:
        """Below-diagonal nonzero rows of each column (no fill yet)."""
        rng = self.rng("pattern")
        n = self.n_cols
        cols: list[set[int]] = [set() for _ in range(n)]
        for j in range(n):
            for i in range(j + 1, min(n, j + 1 + self.band)):
                cols[j].add(i)
            for _ in range(self.extra_per_col):
                lo = j + 1
                if lo < n:
                    cols[j].add(int(rng.integers(lo, n)))
        return cols

    def _symbolic(self) -> None:
        """Fill-in, elimination tree, supernodes, level schedule."""
        n = self.n_cols
        struct = self._generate_pattern()
        parent = [-1] * n
        # Standard up-looking symbolic factorization: column j's structure
        # merges into its parent (its smallest below-diagonal row index).
        for j in range(n):
            if struct[j]:
                parent[j] = min(struct[j])
                struct[parent[j]] |= {i for i in struct[j] if i > parent[j]}
        self.col_struct = struct
        self.etree_parent = parent

        # Supernodes: maximal runs of consecutive columns forming a chain
        # in the elimination tree with compatible structure sizes.
        self.panel_cols: list[list[int]] = []
        j = 0
        while j < n:
            run = [j]
            while (
                len(run) < self.max_supernode
                and run[-1] + 1 < n
                and parent[run[-1]] == run[-1] + 1
                and len(struct[run[-1] + 1]) >= len(struct[run[-1]]) - 1
            ):
                run.append(run[-1] + 1)
            self.panel_cols.append(run)
            j = run[-1] + 1
        self.n_panels = len(self.panel_cols)
        self.panel_of_col = {}
        for pid, cols_ in enumerate(self.panel_cols):
            for c in cols_:
                self.panel_of_col[c] = pid

        # Panel-level elimination tree: each panel's parent is the panel
        # of its last column's parent (-1 at a root); levels = longest
        # path from a leaf (wavefronts).  A parent column lies past the
        # panel's columns, so the parent panel always comes later and one
        # forward pass over the panels is a topological order.
        self.panel_parent: list[int] = []
        for pid, cols_ in enumerate(self.panel_cols):
            p = self.etree_parent[cols_[-1]]
            tgt = -1 if p == -1 else self.panel_of_col[p]
            assert tgt == -1 or tgt > pid, "panel parent precedes its child"
            self.panel_parent.append(tgt)
        depth = [0] * self.n_panels
        for pid, tgt in enumerate(self.panel_parent):
            if tgt != -1:
                depth[tgt] = max(depth[tgt], depth[pid] + 1)
        n_levels = 1 + max(depth, default=0)
        self.levels: list[list[int]] = [[] for _ in range(n_levels)]
        for pid, d in enumerate(depth):
            self.levels[d].append(pid)

        # Ancestor panels each panel updates (its columns' structures).
        self.update_targets: list[list[int]] = []
        for pid, cols_ in enumerate(self.panel_cols):
            rows = set()
            for c in cols_:
                rows |= struct[c]
            targets = sorted({self.panel_of_col[r] for r in rows} - {pid})
            self.update_targets.append(targets)

        # Panel storage: columns' below-diagonal nnz plus the diagonal.
        self.panel_nnz = [
            sum(1 + len(struct[c]) for c in cols_) for cols_ in self.panel_cols
        ]
        self.panel_off = np.zeros(self.n_panels + 1, dtype=np.int64)
        np.cumsum(self.panel_nnz, out=self.panel_off[1:])

    # ------------------------------------------------------------------
    def allocate(self, space: AddressSpace) -> None:
        self._symbolic()
        total = int(self.panel_off[-1])
        self.panels = SharedArray(space, "cholesky.panels", total, itemsize=8)
        self.queue = SharedArray(
            space, "cholesky.queue", len(self.levels) * 8, itemsize=8, dtype=np.int64
        )
        rng = self.rng("values")
        self.panels.data[:] = rng.standard_normal(total)

    # -- helpers -----------------------------------------------------------

    def _panel_addr(self, p: int, k: int) -> int:
        return self.panels.addr(int(self.panel_off[p]) + k)

    def _panel_lock(self, p: int) -> int:
        return 1 + p % (self.n_locks - 1)

    def _take_task(self, level_slot: int, n_tasks: int):
        """Pop the next task index from the level's shared counter."""
        qi = level_slot * 8
        yield ("l", 0)
        yield ("r", self.queue.addr(qi))
        t = int(self.queue.data[qi])
        if t < n_tasks:
            self.queue.data[qi] = t + 1
            yield ("w", self.queue.addr(qi))
        yield ("u", 0)
        return t

    # ------------------------------------------------------------------
    def _factor_panel(self, p: int):
        nnz = self.panel_nnz[p]
        for k in range(nnz):
            yield ("r", self._panel_addr(p, k))
        lo = int(self.panel_off[p])
        seg = self.panels.data[lo : lo + nnz]
        seg /= np.sqrt(np.abs(seg[0]) + 1.0)
        yield ("c", 8 * nnz)
        for k in range(nnz):
            yield ("w", self._panel_addr(p, k))

    def _update_panel(self, src: int, dst: int):
        """Right-looking scatter: src's outer product into dst's columns."""
        src_nnz = self.panel_nnz[src]
        dst_nnz = self.panel_nnz[dst]
        span = min(dst_nnz, max(4, src_nnz // 2))
        for k in range(0, src_nnz, 2):
            yield ("r", self._panel_addr(src, k))
        lid = self._panel_lock(dst)
        yield ("l", lid)
        lo_s, lo_d = int(self.panel_off[src]), int(self.panel_off[dst])
        data = self.panels.data
        for k in range(0, span, 2):
            yield ("r", self._panel_addr(dst, k))
            data[lo_d + k] -= 0.1 * data[lo_s + k % src_nnz] ** 2
            yield ("w", self._panel_addr(dst, k))
        yield ("c", 3 * span)
        yield ("u", lid)

    def thread(self, tid: int) -> Iterator[tuple]:
        # First touch: panels distributed over threads in contiguous runs.
        for p in self.chunk(self.n_panels, tid):
            for k in range(self.panel_nnz[p]):
                yield ("w", self._panel_addr(p, k))
            yield ("c", self.panel_nnz[p])
        if tid == 0:
            for slot in range(len(self.levels)):
                yield ("w", self.queue.addr(slot * 8))
        yield ("b", 0)
        # Eliminate wavefront by wavefront up the elimination tree.
        for slot, panels in enumerate(self.levels):
            n_tasks = len(panels)
            while True:
                t = yield from self._take_task(slot, n_tasks)
                if t >= n_tasks:
                    break
                p = panels[t]
                yield from self._factor_panel(p)
                for dst in self.update_targets[p]:
                    yield from self._update_panel(p, dst)
            yield ("b", 0)
