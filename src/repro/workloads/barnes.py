"""Barnes: Barnes-Hut hierarchical N-body (gravitational).

An octree is built over the bodies each step; every thread then walks the
*whole shared tree* to compute forces on its own bodies.  The tree is
read-shared by all processors — the replication-hungry access pattern
that puts Barnes in the paper's conflict-sensitive Figure-4 group at very
high memory pressure.

Tree building is parallel with per-cell locks hashed onto a small lock
array (as in the SPLASH-2 code); the structural insertion is computed on
real body positions, so the walk's access stream is genuinely irregular.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from repro.mem.address import AddressSpace
from repro.workloads.base import SharedArray, Workload
from repro.workloads.registry import register

#: Simulated doubles per tree cell: 8 child pointers + center-of-mass
#: (x, y, z, mass) + bookkeeping = 16 doubles = 2 lines.
_CELL_FIELDS = 16
#: Simulated doubles per body: pos(3) vel(3) acc(3) mass + padding.
_BODY_FIELDS = 16


class _Cell:
    """Python-side octree cell (structure mirrored in simulated memory)."""

    __slots__ = ("index", "children", "body", "com", "mass", "size", "center")

    def __init__(self, index: int, center, size: float) -> None:
        self.index = index
        self.children: list[Optional["_Cell"]] = [None] * 8
        self.body: Optional[int] = None  # leaf body id
        self.com = np.zeros(3)
        self.mass = 0.0
        self.size = size
        self.center = np.asarray(center, dtype=float)


@register
class BarnesWorkload(Workload):
    name = "barnes"
    description = "N-body"
    paper_working_set_mb = 3.5  # 16K particles in the paper
    n_locks = 16
    n_barriers = 1

    theta = 0.6
    steps = 2

    def __init__(self, n_threads: int = 16, scale: float = 1.0, seed: int = 1997):
        super().__init__(n_threads, scale, seed)
        self.n_bodies = int(448 * scale)
        self.max_cells = 4 * self.n_bodies

    def allocate(self, space: AddressSpace) -> None:
        self.bodies = SharedArray(
            space, "barnes.bodies", self.n_bodies * _BODY_FIELDS, itemsize=8
        )
        self.cells = SharedArray(
            space, "barnes.cells", self.max_cells * _CELL_FIELDS, itemsize=8
        )
        rng = self.rng("bodies")
        # Plummer-like clustered distribution (two clusters, like the
        # paper's FMM input, gives the walk realistic depth variance).
        half = self.n_bodies // 2
        c1 = rng.normal(0.3, 0.08, size=(half, 3))
        c2 = rng.normal(0.7, 0.08, size=(self.n_bodies - half, 3))
        self.pos = np.clip(np.vstack([c1, c2]), 0.0, 1.0)
        self._tree_built = False
        self.root: Optional[_Cell] = None
        self._n_cells = 0

    # -- addresses -------------------------------------------------------

    def _body_addr(self, i: int, f: int = 0) -> int:
        return self.bodies.addr(i * _BODY_FIELDS + f)

    def _cell_addr(self, c: int, f: int = 0) -> int:
        return self.cells.addr(c * _CELL_FIELDS + f)

    # -- octree ----------------------------------------------------------

    def _new_cell(self, center, size: float) -> _Cell:
        cell = _Cell(self._n_cells, center, size)
        self._n_cells += 1
        if self._n_cells > self.max_cells:
            raise RuntimeError("barnes: cell pool exhausted")
        return cell

    def _octant(self, cell: _Cell, p) -> int:
        o = 0
        if p[0] >= cell.center[0]:
            o |= 1
        if p[1] >= cell.center[1]:
            o |= 2
        if p[2] >= cell.center[2]:
            o |= 4
        return o

    def _child_center(self, cell: _Cell, o: int):
        off = cell.size / 4
        return cell.center + off * np.array(
            [1 if o & 1 else -1, 1 if o & 2 else -1, 1 if o & 4 else -1]
        )

    def _insert(self, cell: _Cell, body: int, events: list) -> None:
        """Insert ``body``; appends the simulated accesses to ``events``.

        Each cell's accesses are bracketed by that *cell's* hashed lock
        (as in the SPLASH-2 code): concurrent insertions by different
        threads meet in shared interior cells, and only a lock keyed on
        the cell orders those conflicting accesses.  Locks never nest,
        so the hashed sharing cannot deadlock.
        """
        o = self._octant(cell, self.pos[body])
        lid = cell.index % self.n_locks
        events.append(("l", lid))
        events.append(("r", self._cell_addr(cell.index, o)))
        child = cell.children[o]
        if child is None:
            leaf = self._new_cell(self._child_center(cell, o), cell.size / 2)
            leaf.body = body
            cell.children[o] = leaf
            events.append(("w", self._cell_addr(cell.index, o)))
            events.append(("u", lid))
            # The new leaf's body field is written under the *leaf's* own
            # lock: a later insertion that splits this leaf reads the field
            # under that same lock, which is what orders the two accesses.
            llid = leaf.index % self.n_locks
            events.append(("l", llid))
            events.append(("w", self._cell_addr(leaf.index, 8)))
            events.append(("u", llid))
            return
        events.append(("u", lid))
        if child.body is not None:
            # Split the leaf: push the resident body down.
            old = child.body
            child.body = None
            clid = child.index % self.n_locks
            events.append(("l", clid))
            events.append(("r", self._cell_addr(child.index, 8)))
            events.append(("u", clid))
            self._insert(child, old, events)
        self._insert(child, body, events)

    def _build_tree(self) -> None:
        """Structural build on the *current* positions.

        Called once up front and again after each position update (the
        tree is rebuilt every timestep, as in the real code, so the walk's
        access stream tracks the evolving body distribution).
        """
        if self._tree_built:
            return
        self._n_cells = 0
        self.root = self._new_cell([0.5, 0.5, 0.5], 1.0)
        self._insert_events: dict[int, list] = {}
        for b in range(self.n_bodies):
            ev: list = []
            self._insert(self.root, b, ev)
            self._insert_events[b] = ev
        self._summarize(self.root)
        self._tree_built = True

    def _advance_positions(self, step: int) -> None:
        """Drift the bodies (seeded, deterministic) and invalidate the
        tree so the next build reflects the new distribution."""
        rng = self.rng("drift", step)
        self.pos = np.clip(
            self.pos + 0.03 * rng.standard_normal(self.pos.shape), 0.0, 1.0
        )
        self._tree_built = False

    def _summarize(self, cell: _Cell):
        """Bottom-up centers of mass."""
        if cell.body is not None:
            cell.mass = 1.0
            cell.com = self.pos[cell.body].copy()
            return cell.mass, cell.com
        total, com = 0.0, np.zeros(3)
        for ch in cell.children:
            if ch is None:
                continue
            m, c = self._summarize(ch)
            total += m
            com += m * c
        cell.mass = total
        cell.com = com / total if total else cell.center
        return cell.mass, cell.com

    # -- force walk --------------------------------------------------------

    def _walk(self, body: int):
        """Barnes-Hut opening-criterion walk from the root, emitting cell
        reads in preorder (an explicit stack, children in octant order)."""
        cb = self.cells.base
        p = self.pos[body]
        theta = self.theta
        stack = [self.root]
        pop, push = stack.pop, stack.extend
        while stack:
            cell = pop()
            # Read the cell's center of mass (one line) and children (other line).
            a = cb + 8 * (cell.index * _CELL_FIELDS)
            yield ("r", a + 64)
            x = p - cell.com
            d = math.sqrt(x.dot(x)) + 1e-9
            if cell.body is not None or cell.size / d < theta:
                yield ("c", 24)  # one body-cell interaction
                continue
            yield ("r", a)
            push([ch for ch in reversed(cell.children) if ch is not None])

    # ------------------------------------------------------------------
    def thread(self, tid: int) -> Iterator[tuple]:
        self._build_tree()
        mine = self.chunk(self.n_bodies, tid)
        # First touch of owned bodies.
        for b in mine:
            for f in range(_BODY_FIELDS):
                yield ("w", self._body_addr(b, f))
            yield ("c", 16)
        yield ("b", 0)
        for step in range(self.steps):
            if step > 0:
                # Thread 0 drifts the bodies and triggers the rebuild;
                # the preceding barrier guarantees nobody is mid-walk.
                if tid == 0:
                    self._advance_positions(step)
                    self._build_tree()
                yield ("b", 0)
            # Parallel tree build: replay each owned body's insertion
            # access stream; the per-cell hashed locks are embedded in
            # the stream itself (see _insert).
            for b in mine:
                yield ("r", self._body_addr(b, 0))
                for ev in self._insert_events[b]:
                    yield ev
                yield ("c", 30)
            yield ("b", 0)
            # Summarization: thread 0 sweeps the cells bottom-up.
            if tid == 0:
                for c in range(self._n_cells):
                    yield ("r", self._cell_addr(c, 0))
                    yield ("w", self._cell_addr(c, 8))
                yield ("c", 10 * self._n_cells)
            yield ("b", 0)
            # Force computation: every thread walks the shared tree.
            assert self.root is not None
            for b in mine:
                yield ("r", self._body_addr(b, 0))
                yield from self._walk(b)
                yield ("w", self._body_addr(b, 6))  # acc
                yield ("c", 40)
            yield ("b", 0)
            # Position/velocity update on owned bodies.
            for b in mine:
                yield ("r", self._body_addr(b, 6))
                yield ("w", self._body_addr(b, 0))
                yield ("w", self._body_addr(b, 3))
                yield ("c", 20)
            yield ("b", 0)
