"""Structural invariants of each workload's address generation and
partitioning — the properties that make the reference streams faithful
stand-ins for the SPLASH-2 kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.address import AddressSpace
from repro.workloads.registry import get_workload


def allocated(name: str, scale: float = 0.5, **kw):
    wl = get_workload(name, scale=scale, **kw)
    space = AddressSpace(page_size=2048)
    wl.allocate(space)
    return wl


class TestFftStructure:
    def test_partition_rows_disjoint_and_complete(self):
        wl = allocated("fft")
        rows = [set(wl._rows(t)) for t in range(wl.n_threads)]
        union = set().union(*rows)
        assert union == set(range(wl.m))
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert not rows[i] & rows[j]

    def test_problem_is_square(self):
        wl = allocated("fft")
        assert wl.m * wl.m == wl.n

    def test_twiddles_are_roots_of_unity(self):
        wl = allocated("fft")
        assert np.allclose(np.abs(wl.tw.data), 1.0)


class TestLuStructure:
    @pytest.mark.parametrize("name", ["lu_contig", "lu_noncontig"])
    def test_idx_is_a_bijection(self, name):
        wl = allocated(name, scale=0.3)
        seen = {wl.idx(i, j) for i in range(wl.n) for j in range(wl.n)}
        assert len(seen) == wl.n * wl.n
        assert min(seen) == 0 and max(seen) == wl.n * wl.n - 1

    def test_contig_blocks_are_contiguous(self):
        wl = allocated("lu_contig", scale=0.3)
        b = wl.b
        # All elements of block (0, 0) occupy one dense index range.
        idxs = sorted(wl.idx(i, j) for i in range(b) for j in range(b))
        assert idxs == list(range(b * b))

    def test_noncontig_blocks_are_strided(self):
        wl = allocated("lu_noncontig", scale=0.3)
        b = wl.b
        idxs = sorted(wl.idx(i, j) for i in range(b) for j in range(b))
        assert idxs != list(range(b * b)), "row-major layout spreads blocks"

    def test_ownership_scatter_covers_all_blocks(self):
        wl = allocated("lu_contig", scale=0.3)
        owners = {
            wl.owner(bi, bj) for bi in range(wl.g) for bj in range(wl.g)
        }
        assert owners <= set(range(wl.n_threads))
        assert len(owners) > 1, "2-D scatter uses many threads"


class TestOceanStructure:
    @pytest.mark.parametrize("name", ["ocean_contig", "ocean_noncontig"])
    def test_idx_bijection(self, name):
        wl = allocated(name, scale=0.3)
        seen = {wl.idx(i, j) for i in range(wl.g) for j in range(wl.g)}
        assert len(seen) == wl.g * wl.g

    @pytest.mark.parametrize("name", ["ocean_contig", "ocean_noncontig"])
    def test_layout_tables_match_idx(self, name):
        wl = allocated(name, scale=0.3)
        assert "tables" not in vars(wl), "tables are built by thread(), not allocate"
        R, C = wl.tables[0]
        for i in range(wl.g):
            for j in range(wl.g):
                assert wl.idx(i, j) == R[i] + C[j], (i, j)
        for lvl, (R, C) in enumerate(wl.tables[1:], 1):
            e = wl.g >> lvl
            assert len(wl.coarse[lvl - 1]) == e * e
            assert [R[i] + C[j] for i in range(e) for j in range(e)] == list(range(e * e))

    def test_regions_tile_the_grid(self):
        wl = allocated("ocean_contig", scale=0.3)
        cells = set()
        for t in range(wl.n_threads):
            i0, i1, j0, j1 = wl._region(t)
            for i in range(i0, i1):
                for j in range(j0, j1):
                    assert (i, j) not in cells, "overlapping subgrids"
                    cells.add((i, j))
        assert len(cells) == wl.g * wl.g

    def test_contig_subgrid_is_dense(self):
        wl = allocated("ocean_contig", scale=0.3)
        s = wl.sub
        idxs = sorted(wl.idx(i, j) for i in range(s) for j in range(s))
        assert idxs == list(range(s * s))


class TestRadixStructure:
    def test_histogram_regions_disjoint(self):
        wl = allocated("radix", scale=0.3)
        slots = set()
        for t in range(wl.n_threads):
            for d in range(wl.buckets):
                slot = wl._hist_idx(t, d)
                assert slot not in slots
                slots.add(slot)

    def test_key_width_matches_passes(self):
        wl = allocated("radix", scale=0.3)
        assert int(wl.init_keys.max()) < 1 << (wl.radix_bits * wl.passes)


class TestBarnesStructure:
    def test_tree_contains_every_body(self):
        wl = allocated("barnes")
        wl._build_tree()

        leaves = []

        def collect(cell):
            if cell.body is not None:
                leaves.append(cell.body)
            for ch in cell.children:
                if ch is not None:
                    collect(ch)

        collect(wl.root)
        assert sorted(leaves) == list(range(wl.n_bodies))

    def test_insertion_replay_is_recorded_for_all(self):
        wl = allocated("barnes")
        wl._build_tree()
        assert set(wl._insert_events) == set(range(wl.n_bodies))
        assert all(len(ev) >= 1 for ev in wl._insert_events.values())


class TestFmmStructure:
    def test_interaction_list_is_well_separated(self):
        wl = allocated("fmm")
        for level in range(1, wl.levels):
            dim = 1 << level
            for x in range(0, dim, max(1, dim // 4)):
                for y in range(0, dim, max(1, dim // 4)):
                    base = wl._level_offset(level)
                    for box in wl._interaction_list(level, x, y):
                        k = box - base
                        nx, ny = divmod(k, dim)
                        assert abs(nx - x) > 1 or abs(ny - y) > 1

    def test_level_offsets_partition_box_array(self):
        wl = allocated("fmm")
        total = sum((1 << l) ** 2 for l in range(wl.levels))
        assert wl.n_boxes == total
        assert wl._box(wl.levels - 1, wl.leaf_dim - 1, wl.leaf_dim - 1) == total - 1


class TestWaterStructure:
    def test_cyclic_pairs_cover_each_pair_once(self):
        wl = allocated("water_n2")
        n = wl.n_mol
        half = n // 2
        pairs = set()
        for i in range(n):
            for k in range(1, half + 1):
                j = (i + k) % n
                key = (min(i, j), max(i, j))
                assert key not in pairs or n % 2 == 0 and abs(i - j) == half, (
                    f"pair {key} duplicated"
                )
                pairs.add(key)
        # Every unordered pair appears (allowing the even-n diagonal
        # double-count the original code also has).
        assert len(pairs) == n * (n - 1) // 2

    def test_sp_cells_contain_their_molecules(self):
        wl = allocated("water_sp")
        c = wl.cells_per_dim
        for i, (x, y, z) in enumerate(wl.mol_cell):
            assert 0 <= x < c and 0 <= y < c and 0 <= z < c


class TestCholeskyStructure:
    def test_levels_respect_the_elimination_tree(self):
        """Every panel's dependency predecessors are in earlier levels."""
        wl = allocated("cholesky")
        preds: dict[int, list[int]] = {}
        for child, parent in enumerate(wl.panel_parent):
            if parent != -1:
                preds.setdefault(parent, []).append(child)
        seen = set()
        for panels in wl.levels:
            for p in panels:
                for pred in preds.get(p, ()):
                    assert pred in seen, f"panel {p} scheduled before {pred}"
            seen.update(panels)
        assert seen == set(range(wl.n_panels))

    def test_fill_makes_structures_ancestor_closed(self):
        """After symbolic factorization, every below-diagonal row of a
        column is an elimination-tree ancestor of that column."""
        wl = allocated("cholesky")
        parent = wl.etree_parent
        for j in range(wl.n_cols):
            ancestors = set()
            a = parent[j]
            while a != -1:
                ancestors.add(a)
                a = parent[a]
            assert wl.col_struct[j] <= ancestors | {j}, f"column {j}"

    def test_update_targets_are_strictly_later_levels(self):
        wl = allocated("cholesky")
        depth = {}
        for d, panels in enumerate(wl.levels):
            for p in panels:
                depth[p] = d
        for p, targets in enumerate(wl.update_targets):
            for t in targets:
                assert depth[t] > depth[p], (p, t)

    def test_supernodes_partition_columns(self):
        wl = allocated("cholesky")
        cols = [c for run in wl.panel_cols for c in run]
        assert cols == list(range(wl.n_cols))
        assert all(len(run) <= wl.max_supernode for run in wl.panel_cols)

    def test_panel_offsets_consistent(self):
        wl = allocated("cholesky")
        assert int(wl.panel_off[-1]) == sum(wl.panel_nnz)
        assert all(n >= 1 for n in wl.panel_nnz)


class TestRaytraceStructure:
    def test_cells_in_bounds(self):
        wl = allocated("raytrace")
        g = wl.grid_dim
        for s in range(wl.n_spheres):
            cell = wl._cell_of(wl.centers[s])
            assert 0 <= cell < g * g * g

    def test_tiles_cover_image(self):
        wl = allocated("raytrace")
        assert wl.image_dim % wl.tile == 0
        tiles = (wl.image_dim // wl.tile) ** 2
        assert tiles * wl.tile * wl.tile == wl.image_dim * wl.image_dim


class TestVolrendStructure:
    def test_volume_values_span_range(self):
        wl = allocated("volrend")
        assert wl.volume.data.max() > 100, "blobby field uses the range"
        assert wl.volume.data.min() >= 0

    def test_table_monotone(self):
        wl = allocated("volrend")
        assert (np.diff(wl.table.data) >= 0).all()


class TestRadiosityStructure:
    def test_visibility_excludes_self(self):
        wl = allocated("radiosity")
        for p, vis in enumerate(wl.vis[: wl.n_patches]):
            assert p not in vis

    def test_form_factor_offsets_consistent(self):
        wl = allocated("radiosity")
        off = 0
        for p in range(wl.max_patches):
            assert wl.vis_offset[p] == off
            off += len(wl.vis[p])
        assert off == len(wl.ff.data)
