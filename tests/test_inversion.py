import dataclasses
from pathlib import Path

import numpy as np
import pytest

from lvpat.cli import ExperimentConfig
from lvpat.errors import DataMismatchError, ParameterError
from lvpat.extension import (build_training_set, extend, stitch,
                             train_extension_model, zero_extend)
from lvpat.forward import (Part, WaveData, restrict_wave_data,
                           simulate_wave_data)
from lvpat.geometry import EllipseDomain, build_boundary, split_boundary
from lvpat.inversion import (_abel_matrix, _boundary_operator, kappa_even,
                             reconstruct, ubp_filter)
from lvpat.metrics import e2_error
from lvpat.oracle import _abel_inner, backproject_point
from lvpat.phantoms import (EllipseIndicator, GridSpec, SquareIndicator,
                            rasterize, training_partition)

from conftest import TEST_PHANTOM

SMOKE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / \
    "experiment_smoke.json"


def loop_reconstruct(u, geom, grid):
    """Reference image for `reconstruct`: the boundary sum node by node,
    np.interp of each node's radial table at |x - x_i|."""
    q = ubp_filter(u)
    mask = grid.mask()
    flat_pts = grid.points()[mask]
    pos = geom.positions[u.node_idx]
    corners = np.array([
        [grid.origin[0], grid.origin[1]],
        [grid.origin[0] + grid.h * (grid.nx - 1), grid.origin[1]],
        [grid.origin[0], grid.origin[1] + grid.h * (grid.ny - 1)],
        [grid.origin[0] + grid.h * (grid.nx - 1), grid.origin[1] + grid.h * (grid.ny - 1)],
    ])
    r_max = max(np.hypot(c[0] - pos[:, 0], c[1] - pos[:, 1]).max() for c in corners)
    d_r = 0.5 * q.dt
    n_r = int(np.ceil(r_max / d_r)) + 2
    r_grid = d_r * np.arange(1, n_r + 1)
    tables = q.samples @ _abel_matrix(q.dt, q.n_time, n_r).T
    normals = geom.normals[u.node_idx]
    acc = np.zeros(len(flat_pts))
    for i in range(len(u.node_idx)):
        dx = flat_pts[:, 0] - pos[i, 0]
        dy = flat_pts[:, 1] - pos[i, 1]
        dot = normals[i, 0] * dx + normals[i, 1] * dy
        acc += geom.ds * dot * np.interp(np.hypot(dx, dy), r_grid, tables[i])
    values = np.zeros(mask.shape)
    values[mask] = kappa_even(2) * acc
    return values


def assert_matches_loop(u, geom, grid, rel=1e-12):
    field = reconstruct(u, geom, grid)
    want = loop_reconstruct(u, geom, grid)[grid.mask()]
    diff = field.values[grid.mask()] - want
    assert np.linalg.norm(diff) <= rel * np.linalg.norm(want)
    assert np.abs(diff).max() <= rel * np.abs(want).max()
    return field


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

    def test_extension_error_reconstructs_alone(self):
        # the image error of a learned extension, f_n - f_full, is the
        # reconstruction of its gamma2 error alone (0 on gamma1); this
        # holds only if stitch puts every row at its node
        cfg = ExperimentConfig.from_json(SMOKE_CONFIG)
        geom, split, grid = cfg.geometry, cfg.split, cfg.grid
        model = train_extension_model(build_training_set(
            training_partition(cfg.box, 4, 2), geom, split), geom)
        full = simulate_wave_data(cfg.load_phantom(), geom, split, Part.FULL)
        u1 = restrict_wave_data(full, split, Part.GAMMA1)
        u2 = restrict_wave_data(full, split, Part.GAMMA2)
        u2_hat = extend(model, u1)
        error = stitch(u1.copy_with(np.zeros_like(u1.samples)),
                       u2_hat.copy_with(u2_hat.samples - u2.samples),
                       geom, split)
        f_full = reconstruct(full, geom, grid).values
        f_n = reconstruct(stitch(u1, u2_hat, geom, split), geom, grid).values
        f_error = reconstruct(error, geom, grid).values
        scale = np.abs(f_full).max()
        assert np.abs(f_error).max() > 1e-3 * scale
        assert np.abs(f_n - f_full - f_error).max() <= 1e-13 * scale

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

    def test_node_beyond_geometry_rejected(self, medium_geom, small_grid):
        data = synthetic_full(medium_geom, lambda t: t * t)
        idx = data.node_idx.copy()
        idx[-1] = medium_geom.n_nodes
        with pytest.raises(DataMismatchError):
            reconstruct(dataclasses.replace(data, node_idx=idx), medium_geom,
                        small_grid)

    def test_subset_of_nodes_rejected(self, medium_geom, small_grid):
        # full-boundary data of a coarser boundary: fewer nodes than geom
        data = synthetic_full(medium_geom, lambda t: t * t)
        keep = np.arange(0, medium_geom.n_nodes, 2)
        subset = dataclasses.replace(data, node_idx=keep,
                                     samples=data.samples[keep])
        with pytest.raises(DataMismatchError):
            reconstruct(subset, medium_geom, small_grid)

    @pytest.mark.parametrize("dt_factor, extra_steps", [(0.5, 0), (1.0, -1)],
                             ids=["half-step", "short"])
    def test_other_time_grid_rejected(self, medium_geom, small_grid,
                                      dt_factor, extra_steps):
        # data on another time grid would back-project with the wrong times
        data = synthetic_full(medium_geom, lambda t: t * t)
        n_time = medium_geom.n_time + extra_steps
        other = dataclasses.replace(data, dt=dt_factor * medium_geom.dt,
                                    n_time=n_time,
                                    samples=data.samples[:, :n_time])
        with pytest.raises(DataMismatchError, match="dt="):
            reconstruct(other, medium_geom, small_grid)

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


class TestBoundaryOperator:

    @pytest.mark.parametrize("case", ["square", "ellipse", "zero-extended"])
    def test_matches_per_node_loop(self, case, medium_geom, medium_split,
                                   small_grid):
        if case == "square":
            full = simulate_wave_data(SquareIndicator(-1.0, -0.5, -0.5, -0.1),
                                      medium_geom, medium_split, Part.FULL)
        elif case == "ellipse":
            full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split,
                                      Part.FULL)
        else:
            full = zero_extend(simulate_wave_data(
                TEST_PHANTOM, medium_geom, medium_split, Part.GAMMA1),
                medium_geom, medium_split)
        assert_matches_loop(full, medium_geom, small_grid)

    def test_lower_clamp_and_exact_grid_radius(self, domain):
        # dyadic dt, grid and node positions make distances exact: node 0 sits
        # 0.01 < dt/2 from the pixel (1, 0), so np.interp clamps to the first
        # radius there; node 1 sits exactly 5*dt/2 from the pixel (0.5, 0.25)
        geom = build_boundary(domain, spacing_target=0.125, dt=0.0625,
                              t_max=8.0)
        pos = geom.positions.copy()
        pos[0] = (1.01, 0.0)
        pos[1] = (0.5 + 5 * 0.03125, 0.25)
        geom = dataclasses.replace(geom, positions=pos)
        grid = GridSpec(origin=(-2.25, -1.25), h=0.0625, nx=73, ny=41,
                        domain=domain)
        pts = grid.points()
        assert grid.mask()[52, 20] and np.all(pts[52, 20] == (1.0, 0.0))
        assert grid.mask()[44, 24] and np.all(pts[44, 24] == (0.5, 0.25))
        assert np.hypot(*(pts[52, 20] - pos[0])) < 0.5 * geom.dt
        assert np.hypot(*(pts[44, 24] - pos[1])) == 5 * 0.5 * geom.dt
        # random traces give every radius of the tables its own value
        rng = np.random.default_rng(11)
        data = WaveData(Part.FULL, np.arange(geom.n_nodes), geom.dt,
                        geom.n_time,
                        rng.standard_normal((geom.n_nodes, geom.n_time)), "dyadic")
        assert_matches_loop(data, geom, grid)

    def test_second_call_hits_cache(self, medium_geom, medium_split,
                                    small_grid):
        full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split,
                                  Part.FULL)
        first = reconstruct(full, medium_geom, small_grid)
        info = _boundary_operator.cache_info()
        again = reconstruct(full, medium_geom, small_grid)
        assert _boundary_operator.cache_info().hits == info.hits + 1
        assert _boundary_operator.cache_info().misses == info.misses
        assert np.array_equal(first.values, again.values)

    @pytest.mark.parametrize("change", ["ds", "normals", "origin"])
    def test_inputs_that_differ_get_their_own_operator(
            self, change, medium_geom, medium_split, small_grid):
        full = simulate_wave_data(TEST_PHANTOM, medium_geom, medium_split,
                                  Part.FULL)
        nodes = np.arange(medium_geom.n_nodes)
        geom, grid = medium_geom, small_grid
        if change == "ds":
            geom = dataclasses.replace(geom, ds=1.5 * geom.ds)
        elif change == "normals":
            a = 0.2 * np.sin(nodes)
            n = geom.normals
            geom = dataclasses.replace(geom, normals=np.stack(
                [np.cos(a) * n[:, 0] - np.sin(a) * n[:, 1],
                 np.sin(a) * n[:, 0] + np.cos(a) * n[:, 1]], axis=1))
        else:
            grid = dataclasses.replace(
                grid, origin=(grid.origin[0] + grid.h / 3, grid.origin[1]))
        base = assert_matches_loop(full, medium_geom, small_grid)
        misses = _boundary_operator.cache_info().misses
        other = assert_matches_loop(full, geom, grid)
        assert _boundary_operator.cache_info().misses == misses + 1
        mask = small_grid.mask() & grid.mask()
        assert not np.allclose(other.values[mask], base.values[mask])

    def test_operator_is_read_only_with_int32_indices(self, medium_geom,
                                                      small_grid):
        b = _boundary_operator(small_grid, medium_geom.positions.tobytes(),
                               medium_geom.normals.tobytes(),
                               medium_geom.ds,
                               medium_geom.dt, 200)
        n_pix = int(small_grid.mask().sum())
        assert b.shape == (n_pix, 200 * medium_geom.n_nodes)
        assert b.nnz == 2 * n_pix * medium_geom.n_nodes
        assert b.indices.dtype == b.indptr.dtype == np.int32
        for arr in (b.data, b.indices, b.indptr):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
