"""Ocean: red-black SOR relaxation from the SPLASH-2 ocean simulation.

The g x g grid is partitioned into square subgrids, one per thread (4 x 4
subgrids for 16 threads).  Each iteration performs a red sweep and a black
sweep of the 5-point stencil over two coupled grids (stream function and
vorticity), with barriers between sweeps; communication is
nearest-neighbour along subgrid borders.

* ``ocean_contig``    — "enhanced locality": each thread's subgrid is
  allocated contiguously, so only true border elements share lines with
  neighbours.
* ``ocean_noncontig`` — the original row-major 2-D arrays: a subgrid's
  rows are strided by the full grid width, so vertical borders are spread
  over many lines and horizontally adjacent subgrids false-share every
  boundary line.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from repro.mem.address import AddressSpace
from repro.workloads.base import SharedArray, Workload
from repro.workloads.registry import register


class _OceanBase(Workload):
    n_locks = 0
    n_barriers = 1
    contiguous_subgrids = True
    iterations = 2

    def __init__(self, n_threads: int = 16, scale: float = 1.0, seed: int = 1997):
        super().__init__(n_threads, scale, seed)
        self.pgrid = max(1, int(math.sqrt(n_threads)))
        g = int(96 * math.sqrt(scale))
        # Grid divisible by the processor grid.
        self.g = max(self.pgrid * 8, (g // self.pgrid) * self.pgrid)
        self.sub = self.g // self.pgrid  # subgrid edge

    #: Coarse-grid correction levels of the multigrid solver (the real
    #: ocean code solves its elliptic equations with multigrid W-cycles;
    #: we run one V-cycle per iteration).
    multigrid_levels = 2

    def allocate(self, space: AddressSpace) -> None:
        n = self.g * self.g
        self.psi = SharedArray(space, f"{self.name}.psi", n, itemsize=8)
        self.vort = SharedArray(space, f"{self.name}.vort", n, itemsize=8)
        # Coarse grids for the multigrid cycle (level k has edge g / 2^k).
        self.coarse: list[SharedArray] = []
        edge = self.g
        for lvl in range(1, self.multigrid_levels + 1):
            edge //= 2
            self.coarse.append(
                SharedArray(space, f"{self.name}.mg{lvl}", edge * edge, itemsize=8)
            )
        rng = self.rng("init")
        self.psi.data[:] = rng.standard_normal(n)
        self.vort.data[:] = rng.standard_normal(n)

    # -- layout ---------------------------------------------------------

    def idx(self, i: int, j: int) -> int:
        if not self.contiguous_subgrids:
            return i * self.g + j
        s = self.sub
        si, ii = divmod(i, s)
        sj, jj = divmod(j, s)
        return ((si * self.pgrid + sj) * s + ii) * s + jj

    @functools.cached_property
    def tables(self) -> list[tuple[list[int], list[int]]]:
        """Per grid level, row and column offset tables ``(R, C)`` with
        element ``(i, j)`` at index ``R[i] + C[j]``: level 0 (psi, vort)
        follows :meth:`idx`, coarse levels are row-major with indices
        clamped to the edge.  Built on the first :meth:`thread` call."""
        g, s, p = self.g, self.sub, self.pgrid
        if self.contiguous_subgrids:
            tables = [([((i // s) * p * s + i % s) * s for i in range(g)],
                       [(j // s) * s * s + j % s for j in range(g)])]
        else:
            tables = [([i * g for i in range(g)], list(range(g)))]
        for lvl in range(1, self.multigrid_levels + 1):
            e = g >> lvl
            tables.append(([min(i, e - 1) * e for i in range(e)],
                           [min(j, e - 1) for j in range(e)]))
        return tables

    def _region(self, tid: int) -> tuple[int, int, int, int]:
        """(i0, i1, j0, j1) of thread ``tid``'s subgrid."""
        si, sj = divmod(tid % (self.pgrid * self.pgrid), self.pgrid)
        s = self.sub
        return si * s, (si + 1) * s, sj * s, (sj + 1) * s

    # -- values: one numpy step per phase ----------------------------------
    #
    # Every phase between two barriers writes one grid (one colour of it,
    # in a relaxation) and reads only cells no thread writes in that phase,
    # so applying a thread's updates at once gives each cell the value the
    # per-cell loop would; each expression keeps the per-cell evaluation
    # order, so the values are bit-for-bit the same.

    @staticmethod
    def _cells(tables, rows: range, cols: range, color: int):
        """Indices of the ``color`` cells ((i + j) % 2 == color) in the
        rectangle ``rows`` x ``cols``, and of their up/down/left/right
        neighbours."""
        R, C = np.asarray(tables[0]), np.asarray(tables[1])
        i = np.arange(rows.start, rows.stop)[:, None]
        j = np.arange(cols.start, cols.stop)[None, :]
        i, j = (np.broadcast_to(a, (len(rows), len(cols)))[(i + j) % 2 == color]
                for a in (i, j))
        return (R[i] + C[j], R[i - 1] + C[j], R[i + 1] + C[j],
                R[i] + C[j - 1], R[i] + C[j + 1])

    @staticmethod
    def _relax(data, other, cells) -> None:
        """One red/black SOR step on ``data`` coupled to ``other``."""
        c, up, dn, lf, rt = cells
        omega = 1.2
        data[c] = (1 - omega) * data[c] + omega * 0.25 * (
            data[up] + data[dn] + data[lf] + data[rt] + 0.01 * other[c]
        )

    @staticmethod
    def _smooth(data, cells) -> None:
        """One red/black relaxation step on a coarse grid."""
        c, up, dn, lf, rt = cells
        data[c] = 0.25 * (data[up] + data[dn] + data[lf] + data[rt])

    @staticmethod
    def _transfer(fine_tables, rows: range, cols: range, edge: int):
        """Per coarse cell (row-major, ``edge`` wide) of ``rows`` x
        ``cols``: its index and the fine-level indices of its 2x2 patch
        (di, dj) = (0, 0), (0, 1), (1, 0), (1, 1)."""
        R, C = np.asarray(fine_tables[0]), np.asarray(fine_tables[1])
        ci = np.repeat(np.arange(rows.start, rows.stop), len(cols))
        cj = np.tile(np.arange(cols.start, cols.stop), len(rows))
        return ci * edge + cj, [R[2 * ci + di] + C[2 * cj + dj]
                                for di in (0, 1) for dj in (0, 1)]

    def _restrict(self, fine_tables, fine, coarse, rows, cols, edge) -> None:
        """Full weighting: each coarse point averages its 2x2 fine patch
        (summed from 0.0 in patch order, as a per-cell accumulator would)."""
        dst, (s00, s01, s10, s11) = self._transfer(fine_tables, rows, cols, edge)
        coarse[dst] = 0.25 * ((((0.0 + fine[s00]) + fine[s01]) + fine[s10]) + fine[s11])

    def _prolong(self, fine_tables, fine, coarse, rows, cols, edge) -> None:
        """Inject the coarse correction into the patch's (0, 0) fine point."""
        src, (dst, _, _, _) = self._transfer(fine_tables, rows, cols, edge)
        fine[dst] += 0.05 * coarse[src]

    # -- kernel ----------------------------------------------------------

    def thread(self, tid: int) -> Iterator[tuple]:
        """Thread ``tid``'s events: first touch, then per iteration four
        red/black sweeps and one multigrid V-cycle (restrict level by
        level, relax the coarsest grid, prolong the corrections back)."""
        tables = self.tables
        R, C = tables[0]
        g = self.g
        grids = [self.psi] + self.coarse
        i0, i1, j0, j1 = self._region(tid)
        C8 = [8 * c for c in C]

        # First touch: each thread initializes its own subgrid.
        pb, vb = self.psi.base, self.vort.base
        for i in range(i0, i1):
            rp, rv = pb + 8 * R[i], vb + 8 * R[i]
            for j in range(j0, j1):
                yield ("w", rp + C8[j])
                yield ("w", rv + C8[j])
            yield ("c", 4 * (j1 - j0))
        yield ("b", 0)

        # The sweeps cover the subgrid's interior.
        rows, jlo, jhi = range(max(1, i0), min(g - 1, i1)), max(1, j0), min(g - 1, j1)
        # Coarse levels: the thread's region scaled down by 2^level.
        levels = []
        for lvl in range(1, len(grids)):
            f = 1 << lvl
            levels.append((g // f, range(i0 // f, i1 // f), range(j0 // f, j1 // f)))
        bedge, crows, ccols = levels[-1]
        brows = range(max(1, crows.start), min(bedge - 1, crows.stop))
        bjlo, bjhi = max(1, ccols.start), min(bedge - 1, ccols.stop)

        for _ in range(self.iterations):
            # Red/black SOR sweeps over the two coupled grids.
            for color in (0, 1):
                for arr, other in ((self.psi, self.vort), (self.vort, self.psi)):
                    self._relax(arr.data, other.data,
                                self._cells(tables[0], rows, range(jlo, jhi), color))
                    ab, ob = arr.base, other.base
                    for i in rows:
                        ra, ro = ab + 8 * R[i], ob + 8 * R[i]
                        ru, rd = ab + 8 * R[i - 1], ab + 8 * R[i + 1]
                        jstart = jlo if (i + jlo) % 2 == color else jlo + 1
                        for j in range(jstart, jhi, 2):
                            cj = C8[j]
                            yield ("r", ru + cj)
                            yield ("r", rd + cj)
                            yield ("r", ra + C8[j - 1])
                            yield ("r", ra + C8[j + 1])
                            yield ("r", ro + cj)
                            yield ("r", ra + cj)
                            yield ("w", ra + cj)
                        yield ("c", 12 * (jhi - jstart) // 2)
                    yield ("b", 0)

            # Down: full-weighting restriction, each coarse point the
            # average of a 2x2 fine patch.
            for lvl, (edge, crows, ccols) in enumerate(levels, 1):
                fine, coarse = grids[lvl - 1], grids[lvl]
                self._restrict(tables[lvl - 1], fine.data, coarse.data, crows, ccols, edge)
                FR, FC = tables[lvl - 1]
                fb, cb = fine.base, coarse.base
                for ci in crows:
                    r0, r1 = fb + 8 * FR[2 * ci], fb + 8 * FR[2 * ci + 1]
                    row = cb + 8 * ci * edge
                    for cj in ccols:
                        c0, c1 = 8 * FC[2 * cj], 8 * FC[2 * cj + 1]
                        yield ("r", r0 + c0)
                        yield ("r", r0 + c1)
                        yield ("r", r1 + c0)
                        yield ("r", r1 + c1)
                        yield ("w", row + 8 * cj)
                    yield ("c", 6 * max(1, len(ccols)))
                yield ("b", 0)

            # Relax on the coarsest grid.
            data, base = grids[-1].data, grids[-1].base
            for color in (0, 1):
                self._smooth(data, self._cells(tables[-1], brows, range(bjlo, bjhi), color))
                for i in brows:
                    jstart = bjlo if (i + bjlo) % 2 == color else bjlo + 1
                    for j in range(jstart, bjhi, 2):
                        a = base + 8 * (i * bedge + j)
                        yield ("r", a - 8 * bedge)
                        yield ("r", a + 8 * bedge)
                        yield ("r", a - 8)
                        yield ("r", a + 8)
                        yield ("w", a)
                    yield ("c", 8 * max(1, (bjhi - jstart) // 2))
                yield ("b", 0)

            # Up: inject the coarse corrections back down the hierarchy.
            for lvl in range(len(levels), 0, -1):
                edge, crows, ccols = levels[lvl - 1]
                fine, coarse = grids[lvl - 1], grids[lvl]
                self._prolong(tables[lvl - 1], fine.data, coarse.data, crows, ccols, edge)
                FR, FC = tables[lvl - 1]
                fb, cb = fine.base, coarse.base
                for ci in crows:
                    row, rf = cb + 8 * ci * edge, fb + 8 * FR[2 * ci]
                    for cj in ccols:
                        yield ("r", row + 8 * cj)
                        yield ("w", rf + 8 * FC[2 * cj])
                    yield ("c", 3 * max(1, len(ccols)))
                yield ("b", 0)


@register
class OceanContigWorkload(_OceanBase):
    name = "ocean_contig"
    description = "Ocean movement simul., enhanced locality"
    paper_working_set_mb = 14.5  # 258x258 in the paper
    contiguous_subgrids = True


@register
class OceanNoncontigWorkload(_OceanBase):
    name = "ocean_noncontig"
    description = "Ocean movement simulation"
    paper_working_set_mb = 14.5
    contiguous_subgrids = False
