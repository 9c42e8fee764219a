import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import ConvexHull
from scipy.special import ellipe

from lvpat.errors import ParameterError
from lvpat.geometry import (EllipseDomain, build_boundary,
                            detection_region_contains, split_boundary)

from conftest import GAMMA2_INTERVAL

# the experiment's missing cap, and one that wraps across theta = +-pi
INTERVALS = pytest.mark.parametrize(
    "interval", [GAMMA2_INTERVAL, (2.5, 4.0)], ids=["cap", "wrapping"])


def elliptic_perimeter(a1, a2):
    """Independent oracle: complete elliptic integral of the second kind."""
    a, b = max(a1, a2), min(a1, a2)
    return 4.0 * a * ellipe(1.0 - (b / a) ** 2)


def hull_margin_oracle(points, p, n_dirs=4096):
    """Exhaustive half-plane check: the worst support margin over directions.

    Positive means every direction keeps hull points on p's far side (p is
    interior); negative means some direction separates p from the hull.
    """
    angles = np.linspace(0, 2 * np.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return float((dirs @ (points - p).T).max(axis=1).min())


class TestBuildBoundary:

    def test_perimeter_matches_elliptic_integral(self, medium_geom):
        oracle = elliptic_perimeter(2.0, 1.0)
        perimeter = medium_geom.ds * medium_geom.n_nodes
        assert abs(perimeter - oracle) / oracle <= 1e-8

    def test_production_spacing_interval(self, domain):
        geom = build_boundary(domain, 0.01, 0.01, 20.0)
        assert geom.n_nodes == round(geom.ds * geom.n_nodes / 0.01)
        chords = np.linalg.norm(np.diff(geom.positions, axis=0), axis=1)
        closing = np.linalg.norm(geom.positions[0] - geom.positions[-1])
        chords = np.append(chords, closing)
        assert chords.min() >= 0.0099
        assert chords.max() <= 0.0101

    def test_circle_four_nodes(self):
        geom = build_boundary(EllipseDomain(1.0, 1.0), 2 * np.pi / 4, 0.1, 1.0)
        assert geom.n_nodes == 4
        want = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        got = np.sort(geom.thetas % (2 * np.pi))
        assert np.allclose(got, want, atol=1e-9)
        assert np.allclose(geom.normals, geom.positions, atol=1e-12)

    def test_relative_spacing_within_one_percent(self, coarse_geom):
        chords = np.linalg.norm(np.diff(coarse_geom.positions, axis=0), axis=1)
        target = coarse_geom.spacing_target
        assert np.max(np.abs(chords - target)) / target <= 0.01

    def test_normals_unit_and_outward(self, medium_geom):
        norms = np.linalg.norm(medium_geom.normals, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        grad = np.stack([
            2 * medium_geom.positions[:, 0] / medium_geom.domain.a1 ** 2,
            2 * medium_geom.positions[:, 1] / medium_geom.domain.a2 ** 2,
        ], axis=-1)
        assert np.all(np.sum(medium_geom.normals * grad, axis=1) > 0)

    @pytest.mark.parametrize("a1, a2, spacing",
                             [(2.0, 1.0, 0.04), (1.0, 2.0, 0.05),
                              (50.0, 1.0, 1.0)])
    def test_every_gap_is_ds_by_quadrature(self, a1, a2, spacing):
        # the arc length between consecutive nodes, the closing gap
        # included, integrated by adaptive quadrature of the speed
        geom = build_boundary(EllipseDomain(a1, a2), spacing, 0.1, 1.0)

        def speed(t):
            return np.hypot(a1 * np.sin(t), a2 * np.cos(t))

        ends = np.append(geom.thetas, geom.thetas[0] + 2 * np.pi)
        gaps = np.array([quad(speed, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                         for lo, hi in zip(ends[:-1], ends[1:])])
        ds = geom.ds
        assert np.max(np.abs(gaps - ds)) <= 1e-12 * ds
        assert geom.thetas[0] == -np.pi
        assert np.all(np.diff(geom.thetas) > 0)
        assert geom.thetas[-1] < np.pi

    def test_weights_sum_to_perimeter(self, coarse_geom):
        # n_nodes equal weights ds
        perimeter = coarse_geom.ds * coarse_geom.n_nodes
        assert abs(perimeter - elliptic_perimeter(2, 1)) <= 1e-6

    def test_bad_parameters(self, domain):
        with pytest.raises(ParameterError):
            build_boundary(domain, -0.1, 0.01, 1.0)
        with pytest.raises(ParameterError):
            build_boundary(domain, 0.1, 0.0, 1.0)
        with pytest.raises(ParameterError):
            build_boundary(domain, 0.1, 0.5, 0.1)
        with pytest.raises(ParameterError):
            EllipseDomain(1.0, -2.0)


class TestSplitBoundary:

    def test_angular_fraction_of_missing_cap(self):
        lo, hi = GAMMA2_INTERVAL
        assert abs((hi - lo) / (2 * np.pi) - 0.191) < 1e-3

    def test_node_fraction_reported(self, medium_split):
        # arc-equidistant nodes cluster differently than theta values; the
        # node share of the cap on this geometry is just under a quarter
        frac = len(medium_split.gamma2_idx) / medium_split.geometry.n_nodes
        assert 0.15 < frac < 0.3

    def test_partition_is_exact(self, medium_split):
        n = medium_split.geometry.n_nodes
        merged = np.sort(np.concatenate([medium_split.gamma1_idx,
                                         medium_split.gamma2_idx]))
        assert np.array_equal(merged, np.arange(n))

    def test_membership_matches_interval(self, medium_split):
        thetas = medium_split.geometry.thetas
        lo, hi = medium_split.theta_lo, medium_split.theta_hi
        inside = (thetas >= lo) & (thetas < hi)
        assert np.array_equal(np.flatnonzero(inside), medium_split.gamma2_idx)

    def test_near_full_cap(self, domain):
        geom = build_boundary(domain, 0.05, 0.1, 1.0)
        eps = 0.3
        split = split_boundary(geom, (-np.pi, np.pi - eps))
        assert len(split.gamma1_idx) < 0.1 * geom.n_nodes
        assert np.all(geom.thetas[split.gamma1_idx] >= np.pi - eps)

    def test_degenerate_intervals_rejected(self, coarse_geom):
        with pytest.raises(ParameterError):
            split_boundary(coarse_geom, (0.0, 0.0))
        with pytest.raises(ParameterError):
            split_boundary(coarse_geom, (0.0, 2 * np.pi))


class TestDetectionRegion:

    def test_point_inside_training_box(self, medium_split):
        assert detection_region_contains(medium_split, (-0.375, -0.26))

    def test_point_near_missing_cap(self, medium_split):
        assert not detection_region_contains(medium_split, (0.0, 0.999))

    def test_point_far_outside(self, medium_split):
        assert not detection_region_contains(medium_split, (10.0, 0.0))

    @INTERVALS
    def test_gamma1_nodes_are_hull_vertices_in_order(self, medium_geom,
                                                     interval):
        # every gamma1 node is a vertex of their convex hull, and the hull's
        # counter-clockwise vertex cycle is node order
        split = split_boundary(medium_geom, interval)
        v = ConvexHull(medium_geom.positions[split.gamma1_idx]).vertices
        assert np.array_equal(np.roll(v, -int(np.argmin(v))),
                              np.arange(len(split.gamma1_idx)))

    @INTERVALS
    def test_against_halfplane_oracle(self, medium_geom, interval):
        split = split_boundary(medium_geom, interval)
        gamma1_pts = medium_geom.positions[split.gamma1_idx]
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.3, 2.3, size=(200, 2))
        checked = 0
        for p in pts:
            margin = hull_margin_oracle(gamma1_pts, p)
            if abs(margin) < 1e-3:
                continue  # within the oracle's direction-sampling resolution
            assert detection_region_contains(split, p) == (margin > 0)
            checked += 1
        assert checked > 150

    def test_monotone_under_hull_shrinkage(self, medium_geom):
        wide = split_boundary(medium_geom, (0.7, 2.4))   # smaller gamma1
        narrow = split_boundary(medium_geom, GAMMA2_INTERVAL)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2.2, 2.2, size=(300, 2))
        for p in pts:
            if detection_region_contains(wide, p):
                assert detection_region_contains(narrow, p)
