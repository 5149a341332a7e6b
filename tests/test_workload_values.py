"""Numeric-correctness tests: the workloads are real kernels operating on
real data, so their computational results must be right (the simulated
address stream is only trustworthy if the control flow is)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.mem.address import AddressSpace
from repro.workloads.registry import get_workload


class TestRadixSorts:
    def test_output_sorted(self):
        # Run the workload standalone, sequentially; even # of passes ->
        # the final output is back in keys.
        wl2 = get_workload("radix", scale=0.4)
        space2 = AddressSpace(page_size=2048)
        wl2.allocate(space2)
        # Execute threads round-robin at barrier granularity.
        _run_barrier_phased(wl2)
        final = wl2.keys.data if wl2.passes % 2 == 0 else wl2.out.data
        assert np.all(np.diff(final) >= 0), "keys sorted ascending"
        assert sorted(final.tolist()) == sorted(wl2.init_keys.tolist())


def _run_barrier_phased(wl):
    """Execute a barrier-phased workload without the simulator: advance
    every thread to its next barrier, round-robin, until all finish.
    Valid for workloads whose only cross-thread ordering is barriers."""
    gens = [wl.thread(t) for t in range(wl.n_threads)]
    live = set(range(wl.n_threads))
    guard = 0
    while live:
        guard += 1
        assert guard < 10_000, "phased execution did not terminate"
        for t in sorted(live):
            g = gens[t]
            try:
                while True:
                    ev = next(g)
                    if ev[0] == "b":
                        break
            except StopIteration:
                live.discard(t)


class TestFftValues:
    def test_six_step_matches_direct_fft(self):
        wl = get_workload("fft", scale=0.25)
        from repro.mem.address import AddressSpace

        space = AddressSpace(page_size=2048)
        wl.allocate(space)
        reference_input = wl.init_vals.copy()
        _run_barrier_phased(wl)
        n = wl.n
        # The transform chain (two batched FFT passes + twiddles +
        # transposes) is unitary up to the 1/sqrt(n) normalization, so
        # Parseval's theorem pins the output energy exactly.
        got = wl.b.data
        assert np.isfinite(got).all()
        in_energy = np.sum(np.abs(reference_input) ** 2)
        out_energy = np.sum(np.abs(got) ** 2) / n
        assert out_energy == pytest.approx(in_energy, rel=1e-6), (
            "Parseval: the transform chain preserves energy"
        )


class TestLuValues:
    @pytest.mark.parametrize("name", ["lu_contig", "lu_noncontig"])
    def test_factorization_reconstructs_matrix(self, name):
        wl = get_workload(name, scale=0.3)
        from repro.mem.address import AddressSpace

        space = AddressSpace(page_size=2048)
        wl.allocate(space)
        n = wl.n
        original = np.array(
            [[wl._get(i, j) for j in range(n)] for i in range(n)]
        )
        _run_barrier_phased(wl)
        factored = np.array(
            [[wl._get(i, j) for j in range(n)] for i in range(n)]
        )
        L = np.tril(factored, -1) + np.eye(n)
        U = np.triu(factored)
        residual = np.linalg.norm(L @ U - original) / np.linalg.norm(original)
        assert residual < 1e-8, f"LU residual too large: {residual}"


class TestOceanValues:
    def test_sor_reduces_residual(self):
        wl = get_workload("ocean_contig", scale=0.4)
        from repro.mem.address import AddressSpace

        space = AddressSpace(page_size=2048)
        wl.allocate(space)
        g = wl.g

        def residual(arr):
            grid = np.array(
                [[arr.data[wl.idx(i, j)] for j in range(g)] for i in range(g)]
            )
            lap = (
                grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
            ) / 4 - grid[1:-1, 1:-1]
            return float(np.abs(lap).mean())

        before = residual(wl.psi)
        _run_barrier_phased(wl)
        after = residual(wl.psi)
        assert after < before, "SOR sweeps smooth the field"


class TestRaytraceValues:
    def test_image_hits_scene(self):
        wl = get_workload("raytrace", scale=0.4)
        from repro.mem.address import AddressSpace

        space = AddressSpace(page_size=2048)
        wl.allocate(space)
        _run_barrier_phased(wl)
        img = wl.image.data
        hits = np.count_nonzero(img >= 0)
        assert hits > 0, "some rays must hit spheres"
        assert np.count_nonzero(img == -1) > 0, "and some must miss"


class TestVolrendValues:
    def test_image_nonzero_and_bounded(self):
        wl = get_workload("volrend", scale=0.5)
        from repro.mem.address import AddressSpace

        space = AddressSpace(page_size=2048)
        wl.allocate(space)
        _run_barrier_phased(wl)
        img = wl.image.data
        assert np.isfinite(img).all()
        assert img.max() > 0, "volume renders to a non-black image"


class TestBarnesValues:
    def test_tree_mass_conservation(self):
        wl = get_workload("barnes", scale=0.4)
        from repro.mem.address import AddressSpace

        space = AddressSpace(page_size=2048)
        wl.allocate(space)
        _run_barrier_phased(wl)
        assert wl.root is not None
        assert wl.root.mass == pytest.approx(wl.n_bodies), (
            "every body accounted for in the octree"
        )

    def test_positions_in_unit_box(self):
        wl = get_workload("barnes", scale=0.4)
        assert ((wl.rng("bodies").random(3) >= 0)).all()  # rng sanity
        from repro.mem.address import AddressSpace

        space = AddressSpace(page_size=2048)
        wl.allocate(space)
        assert (wl.pos >= 0).all() and (wl.pos <= 1).all()


#: sha256 of the final data arrays after a barrier-phased run at scale 0.4,
#: recorded before the generators were hand-optimized: the rewrites must
#: compute bit-for-bit the same values, not merely close ones.
VALUE_PINS = {
    ("ocean_contig", 1997): "b8fabba335072b0ab6bf043fb53c34ad3a53b90df473308f08e5b20ebb98fef5",
    ("ocean_contig", 4242): "4742ad6844cccc19374253c1ee448e01c8f3e218261e03e784d342a39d7dc5a4",
    ("ocean_noncontig", 1997): "b33e96d5190994821e9ff309f7365c5bdf64975debc2eaf16a725f393477b43f",
    ("ocean_noncontig", 4242): "62f407809012d9dce1061e3d59e77d9479dd8c3dcfb1e68c738bf5505ac52400",
    ("radix", 1997): "bbaaf812c44df49ebb19d282f1ff12f427afb7cea368826c38f925461120813d",
    ("radix", 4242): "8dcff062a14b8db8e8f439f62e988b966c8594eed8114a86cf4e081a2a574484",
    ("barnes", 1997): "3d64fa8b5c8875b64a0864e36bb53ed300a6937bdb97dd4d5d0b960befb0f2c7",
    ("barnes", 4242): "bf540993021029674789fa88ca968005599addb980f72bd5941d2f19330e27b7",
}


def _final_arrays(wl) -> list:
    """The arrays a workload computes: ocean's two grids and multigrid
    levels, radix's key buffers, barnes's body positions."""
    if wl.name.startswith("ocean"):
        return [wl.psi.data, wl.vort.data] + [c.data for c in wl.coarse]
    if wl.name == "radix":
        return [wl.keys.data, wl.out.data]
    return [wl.pos]


class TestValuePins:
    @pytest.mark.parametrize("name,seed", sorted(VALUE_PINS),
                             ids=[f"{n}@{s}" for n, s in sorted(VALUE_PINS)])
    def test_final_arrays_bit_exact(self, name, seed):
        wl = get_workload(name, scale=0.4, seed=seed)
        wl.allocate(AddressSpace(page_size=2048))
        _run_barrier_phased(wl)
        h = hashlib.sha256()
        for arr in _final_arrays(wl):
            h.update(arr.tobytes())
        assert h.hexdigest() == VALUE_PINS[name, seed], (
            f"{name} seed {seed}: computed values drifted"
        )
