import numpy as np
import pytest

from lvpat.errors import DataMismatchError, ParameterError
from lvpat.forward import Part, WaveData, simulate_wave_data
from lvpat.geometry import EllipseDomain, build_boundary, split_boundary
from lvpat.inversion import _abel_matrix, kappa_even, reconstruct, ubp_filter
from lvpat.metrics import e2_error
from lvpat.oracle import _abel_inner, backproject_point
from lvpat.phantoms import (EllipseIndicator, GridSpec, SquareIndicator,
                            rasterize)

from conftest import TEST_PHANTOM


def synthetic_full(geom, fn):
    times = geom.times
    samples = np.tile(fn(times), (geom.n_nodes, 1))
    return WaveData(Part.FULL, np.arange(geom.n_nodes), geom.dt, geom.n_time,
                    samples, "synthetic")


class TestKappa:

    def test_values(self):
        assert kappa_even(2) == pytest.approx(1.0 / np.pi, rel=1e-15)
        assert kappa_even(4) == pytest.approx(-1.0 / np.pi ** 2, rel=1e-15)

    def test_odd_rejected(self):
        with pytest.raises(ParameterError):
            kappa_even(3)
        with pytest.raises(ParameterError):
            kappa_even(0)


class TestFilter:

    def test_linear_ramp_filters_to_zero(self, coarse_geom):
        q = ubp_filter(synthetic_full(coarse_geom, lambda t: t))
        assert np.abs(q.samples).max() <= 1e-12

    def test_quadratic_filters_to_one(self, coarse_geom):
        q = ubp_filter(synthetic_full(coarse_geom, lambda t: t * t))
        assert np.abs(q.samples - 1.0).max() <= 1e-10

    def test_sine_derivative_taylor_bound(self, coarse_geom):
        omega = 2.0
        dt = coarse_geom.dt
        q = ubp_filter(synthetic_full(coarse_geom, lambda t: t * np.sin(omega * t)))
        want = omega * np.cos(omega * coarse_geom.times)
        err = np.abs(q.samples[0] - want)
        assert err[1:-1].max() <= omega ** 3 * dt ** 2 / 6 * 1.01 + 1e-12
        assert err.max() <= omega ** 3 * dt ** 2 / 3 * 1.01 + 1e-12

    def test_needs_three_samples(self):
        w = WaveData(Part.FULL, np.arange(2), 0.5, 2, np.zeros((2, 2)), "x")
        with pytest.raises(ParameterError):
            ubp_filter(w)


class TestAbelInner:

    def test_constant_integrand_analytic(self):
        dt, t_max = 0.01, 20.0
        times = dt * np.arange(1, int(t_max / dt) + 1)
        ones = np.ones_like(times)
        radii = np.array([0.5, 2.0, 5.0, 19.0])
        got = _abel_inner(ones, times, dt, t_max, radii)
        want = np.log((t_max + np.sqrt(t_max ** 2 - radii ** 2)) / radii)
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-4

    def test_radii_beyond_horizon_are_zero(self):
        times = 0.1 * np.arange(1, 11)
        got = _abel_inner(np.ones(10), times, 0.1, 1.0, np.array([1.0, 2.0]))
        assert np.all(got == 0.0)


class TestAbelMatrix:

    def test_tables_match_per_node_quadrature(self, medium_geom, medium_split):
        full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split, Part.FULL)
        q = ubp_filter(full)
        # radii dt/2 < dt hit the clamp to q[0]; the last ones lie beyond t_max
        n_r = int(np.ceil(q.t_max / (0.5 * q.dt))) + 6
        r_grid = 0.5 * q.dt * np.arange(1, n_r + 1)
        assert r_grid[0] < q.dt and r_grid[-1] >= q.t_max
        k = _abel_matrix(q.dt, q.n_time, n_r)
        assert not k.flags.writeable
        # phantom traces are zero before the first arrival, so two random
        # rows make the clamp below t = dt visible
        rng = np.random.default_rng(5)
        rows = np.vstack([q.samples[[0, 57, 121, 200]],
                          rng.standard_normal((2, q.n_time))])
        got = rows @ k.T
        want = np.array([_abel_inner(row, q.times, q.dt, q.t_max, r_grid)
                         for row in rows])
        assert np.all(want[:, r_grid >= q.t_max] == 0.0)
        assert np.all(got[:, r_grid >= q.t_max] == 0.0)
        err = np.abs(got - want).max(axis=1)
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=1))

    def test_second_reconstruction_hits_cache(self, medium_geom, medium_split,
                                              small_grid):
        p = SquareIndicator(-1.0, -0.5, -0.5, -0.1)
        full = simulate_wave_data(p, medium_geom, medium_split, Part.FULL)
        reconstruct(full, medium_geom, small_grid)
        hits = _abel_matrix.cache_info().hits
        reconstruct(full, medium_geom, small_grid)
        assert _abel_matrix.cache_info().hits > hits


class TestBackprojection:

    def test_zero_data(self, medium_geom, medium_split):
        q = ubp_filter(synthetic_full(medium_geom, lambda t: t))
        assert backproject_point(q, medium_geom, (0.3, 0.2)) == pytest.approx(0.0, abs=1e-12)

    def test_point_outside_domain_rejected(self, medium_geom):
        q = ubp_filter(synthetic_full(medium_geom, lambda t: t * t))
        with pytest.raises(ParameterError):
            backproject_point(q, medium_geom, (2.5, 0.0))

    def test_exact_recovery_inside_support(self, medium_geom, medium_split):
        full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split, Part.FULL)
        q = ubp_filter(full)
        inside = backproject_point(q, medium_geom, (-0.59375, -0.2624))
        assert inside == pytest.approx(1.0, abs=0.05)

    def test_small_away_from_support(self, medium_geom, medium_split):
        full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split, Part.FULL)
        q = ubp_filter(full)
        away = backproject_point(q, medium_geom, (1.2, 0.3))
        assert abs(away) <= 0.05


class TestReconstruct:

    def test_zero_data_gives_zero_field(self, medium_geom, small_grid):
        data = synthetic_full(medium_geom, lambda t: 0.0 * t)
        field = reconstruct(data, medium_geom, small_grid)
        assert np.all(field.values == 0.0)
        assert np.array_equal(field.domain_mask, small_grid.mask())

    def test_linearity_in_data(self, medium_geom, medium_split, small_grid):
        p = SquareIndicator(-1.0, -0.5, -0.5, -0.1)
        full = simulate_wave_data(p, medium_geom, medium_split, Part.FULL)
        base = reconstruct(full, medium_geom, small_grid)
        scaled = reconstruct(full.copy_with(0.37 * full.samples),
                             medium_geom, small_grid)
        scale = np.abs(base.values).max()
        assert np.abs(scaled.values - 0.37 * base.values).max() <= 1e-10 * scale

    def test_matches_direct_backprojection(self, medium_geom, medium_split,
                                           small_grid):
        full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split, Part.FULL)
        field = reconstruct(full, medium_geom, small_grid)
        q = ubp_filter(full)
        pts = small_grid.points()
        # the gridded path interpolates per-node radial tables; agreement is
        # limited by that interpolation, not by the shared sigma quadrature
        for i, j in [(50, 50), (40, 38), (60, 55)]:
            direct = backproject_point(q, medium_geom, pts[i, j])
            assert field.values[i, j] == pytest.approx(direct, abs=5e-3)

    def test_e2_against_truth_is_moderate(self, medium_geom, medium_split,
                                          small_grid):
        full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split, Part.FULL)
        field = reconstruct(full, medium_geom, small_grid)
        truth = rasterize(TEST_PHANTOM, small_grid)
        assert e2_error(field, truth) < 0.25

    def test_rotational_symmetry_on_circle(self):
        dom = EllipseDomain(1.0, 1.0)
        geom = build_boundary(dom, 0.05, 0.05, 8.0)
        split = split_boundary(geom, (0.97, 2.17))
        disc = EllipseIndicator((0.0, 0.0), 0.3, 0.3, 0.0)
        full = simulate_wave_data(disc, geom, split, Part.FULL)
        q = ubp_filter(full)
        angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        ring = np.array([backproject_point(q, geom, (0.15 * np.cos(a),
                                                     0.15 * np.sin(a)))
                         for a in angles])
        assert np.abs(ring - ring.mean()).max() <= 0.02 * abs(ring.mean())

    def test_partial_data_rejected(self, medium_geom, medium_split, small_grid):
        p = SquareIndicator(-1.0, -0.5, -0.5, -0.1)
        g1 = simulate_wave_data(p, medium_geom, medium_split, Part.GAMMA1)
        with pytest.raises(DataMismatchError):
            reconstruct(g1, medium_geom, small_grid)

    def test_grid_needs_domain(self, medium_geom):
        data = synthetic_full(medium_geom, lambda t: t * t)
        bare = GridSpec(origin=(-1, -1), h=0.1, nx=21, ny=21, domain=None)
        with pytest.raises(ParameterError):
            reconstruct(data, medium_geom, bare)

    def test_threaded_reconstruction_identical(self, medium_geom, medium_split,
                                               small_grid):
        full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split, Part.FULL)
        one = reconstruct(full, medium_geom, small_grid, threads=1)
        two = reconstruct(full, medium_geom, small_grid, threads=4)
        assert np.array_equal(one.values, two.values)
