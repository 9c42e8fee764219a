import dataclasses

import numpy as np
import pytest

from lvpat.errors import DataMismatchError
from lvpat.forward import Part, WaveData, simulate_wave_data
from lvpat.metrics import (boundary_time_inner, e2_error, grid_norm,
                           subspace_distance)
from lvpat.phantoms import (ImageField, SquareIndicator, WeightedSum, rasterize,
                            training_partition)

from conftest import BOX, TEST_PHANTOM, random_mix


def permuted(u):
    """u with its rows and node indices in one fixed shuffled order."""
    perm = np.random.default_rng(3).permutation(len(u.node_idx))
    return dataclasses.replace(u, node_idx=u.node_idx[perm],
                               samples=u.samples[perm])


def gamma1_constant_data(geom, split, value=1.0):
    idx = split.gamma1_idx
    samples = np.full((len(idx), geom.n_time), value)
    return WaveData(Part.GAMMA1, idx, geom.dt, geom.n_time, samples,
                    split.fingerprint())


class TestBoundaryTimeInner:

    def test_positive_definite(self, coarse_geom, coarse_split):
        u = gamma1_constant_data(coarse_geom, coarse_split, 0.7)
        assert boundary_time_inner(u, u, coarse_geom) > 0
        z = u.copy_with(np.zeros_like(u.samples))
        assert boundary_time_inner(z, z, coarse_geom) == 0.0

    def test_symmetry_exact(self, coarse_geom, coarse_split):
        rng = np.random.default_rng(1)
        idx = coarse_split.gamma1_idx
        mk = lambda: gamma1_constant_data(coarse_geom, coarse_split).copy_with(
            rng.standard_normal((len(idx), coarse_geom.n_time)))
        u, v = mk(), mk()
        assert boundary_time_inner(u, v, coarse_geom) == \
            boundary_time_inner(v, u, coarse_geom)

    def test_constant_data_closed_form(self, coarse_geom, coarse_split):
        u = gamma1_constant_data(coarse_geom, coarse_split, 1.0)
        got = boundary_time_inner(u, u, coarse_geom)
        gamma1_len = coarse_geom.ds * len(coarse_split.gamma1_idx)
        want = gamma1_len * coarse_geom.t_max
        assert abs(got - want) / want <= 1e-10

    def test_mismatch_rejected(self, coarse_geom, coarse_split):
        u = gamma1_constant_data(coarse_geom, coarse_split)
        v = WaveData(Part.GAMMA2, coarse_split.gamma2_idx, coarse_geom.dt,
                     coarse_geom.n_time,
                     np.zeros((len(coarse_split.gamma2_idx), coarse_geom.n_time)),
                     coarse_split.fingerprint())
        with pytest.raises(DataMismatchError):
            boundary_time_inner(u, v, coarse_geom)

    @pytest.mark.parametrize("mismatch", [
        lambda u: (u, permuted(u)),
        lambda u: (u, dataclasses.replace(u, dt=2 * u.dt)),
        lambda u: (dataclasses.replace(u, dt=2 * u.dt), u),
    ], ids=["permuted-nodes", "second-double-dt", "first-double-dt"])
    def test_operands_off_each_other_rejected(self, coarse_geom, coarse_split,
                                              mismatch):
        # same part, shape and fingerprint: the rows pair up only on the
        # same nodes in the same order, and dt weighs the sum
        u = simulate_wave_data(TEST_PHANTOM, coarse_geom, coarse_split,
                               Part.GAMMA1)
        with pytest.raises(DataMismatchError):
            boundary_time_inner(*mismatch(u), coarse_geom)


class TestE2Error:

    def test_identical_fields(self, small_grid):
        f = rasterize(TEST_PHANTOM, small_grid)
        assert e2_error(f, f) == 0.0

    def test_uniform_perturbation_closed_form(self, small_grid):
        f = rasterize(TEST_PHANTOM, small_grid)
        delta = 0.013
        g = ImageField(f.origin, f.h, f.values + delta, f.domain_mask)
        n_masked = f.domain_mask.sum()
        want = delta * f.h * np.sqrt(n_masked)
        assert e2_error(g, f) == pytest.approx(want, rel=1e-12)

    def test_masked_cells_ignored(self, small_grid):
        f = rasterize(TEST_PHANTOM, small_grid)
        g = ImageField(f.origin, f.h, f.values.copy(), f.domain_mask)
        g.values[~g.domain_mask] += 100.0
        assert e2_error(g, f) == 0.0

    def test_triangle_inequality(self, small_grid):
        rng = np.random.default_rng(7)
        shape = (small_grid.nx, small_grid.ny)
        mask = small_grid.mask()
        mk = lambda: ImageField(small_grid.origin, small_grid.h,
                                rng.standard_normal(shape), mask)
        for _ in range(5):
            a, b, c = mk(), mk(), mk()
            assert e2_error(a, c) <= e2_error(a, b) + e2_error(b, c) + 1e-12

    def test_grid_mismatch_rejected(self, small_grid):
        f = rasterize(TEST_PHANTOM, small_grid)
        g = ImageField((0.0, 0.0), f.h, f.values, f.domain_mask)
        with pytest.raises(DataMismatchError):
            e2_error(f, g)


class TestSubspaceDistance:

    def test_member_of_span_is_zero(self, small_grid):
        cells = training_partition(BOX, 4, 2)
        assert subspace_distance(cells[3], cells, small_grid) <= 1e-10

    def test_mixture_of_span_is_zero(self, small_grid):
        cells = training_partition(BOX, 8, 4)
        rng = np.random.default_rng(3)
        mix = WeightedSum(tuple((c, p) for c, p in
                                zip(rng.uniform(-1, 1, len(cells)), cells)))
        assert subspace_distance(mix, cells, small_grid) <= 1e-10

    def test_empty_training_gives_norm(self, small_grid):
        f = rasterize(TEST_PHANTOM, small_grid)
        got = subspace_distance(TEST_PHANTOM, [], small_grid)
        assert got == pytest.approx(grid_norm(f), rel=1e-14)

    def test_disjoint_support_keeps_full_norm(self, small_grid):
        cells = training_partition(BOX, 4, 2)
        outside = SquareIndicator(0.8, 1.1, -0.2, 0.1)  # disjoint from the box
        got = subspace_distance(outside, cells, small_grid)
        want = grid_norm(rasterize(outside, small_grid))
        assert got == pytest.approx(want, rel=1e-12)

    def test_nonincreasing_under_refinement(self, small_grid):
        rng = np.random.default_rng(11)
        partitions = [training_partition(BOX, *s)
                      for s in [(4, 2), (8, 4), (16, 8)]]
        for _ in range(5):
            f = random_mix(rng)
            dists = [subspace_distance(f, cells, small_grid)
                     for cells in partitions]
            assert dists[1] <= dists[0] + 1e-10
            assert dists[2] <= dists[1] + 1e-10

    def test_degenerate_basis_rejected(self, small_grid):
        from lvpat.errors import SingularTrainingSetError
        sq = SquareIndicator(-1.0, -0.8, -0.5, -0.3)
        with pytest.raises(SingularTrainingSetError):
            subspace_distance(TEST_PHANTOM, [sq, sq], small_grid)

