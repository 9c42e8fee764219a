import numpy as np
import pytest

from lvpat.arcmeans import exact_mean_table
from lvpat.errors import ParameterError
from lvpat.forward import (Part, restrict_wave_data, simulate_wave_data,
                           wave_trace)
from lvpat.oracle import (_term_critical_radii, exact_circular_mean,
                          oracle_wave_field)
from lvpat.phantoms import (EllipseIndicator, SquareIndicator, WeightedSum,
                            bounding_circle, distance_to_support)

from conftest import TEST_PHANTOM, random_mix, random_square

UNIT_DISC = EllipseIndicator((0.0, 0.0), 1.0, 1.0, 0.0)


def draw_checkpoints(p, x, geom, rng, count):
    """Sample times in the active window, away from wavefront kinks.

    The trace is a half-step average while the oracle differentiates nearly
    pointwise, so the two definitions legitimately differ within a few dt of
    the radii where the circular mean loses smoothness.
    """
    crit = np.array(sorted(_term_critical_radii(p, x)))
    _, rho = bounding_circle(p)
    lo = crit[0] + 2 * geom.dt
    hi = min(crit[0] + 4 * rho + 2.0, geom.t_max - geom.dt)
    ks = []
    while len(ks) < count:
        k = int(rng.integers(int(lo / geom.dt), int(hi / geom.dt)))
        if np.min(np.abs(crit - geom.times[k])) > 4 * geom.dt:
            ks.append(k)
    return ks


class TestCircularMean:

    def test_batch_table_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        for p in (SquareIndicator(-1.0, -0.4, -0.6, 0.1), TEST_PHANTOM,
                  random_mix(rng)):
            center = rng.uniform(-2, 2, 2)
            radii = np.sort(rng.uniform(0.0, 4.0, 40))
            got = exact_mean_table(p, center, radii)
            want = np.array([exact_circular_mean(p, center, r) for r in radii])
            assert np.abs(got - want).max() <= 1e-12


class TestWaveTrace:

    def test_zero_phantom_gives_zero_trace(self, coarse_geom):
        u = wave_trace(WeightedSum(()), (1.0, 1.0), coarse_geom)
        assert np.all(u == 0.0)

    def test_causality(self, coarse_geom):
        rng = np.random.default_rng(3)
        p = random_square(rng)
        for ni in rng.integers(0, coarse_geom.n_nodes, 8):
            x = coarse_geom.positions[ni]
            u = wave_trace(p, x, coarse_geom)
            dist = distance_to_support(p, x)
            quiet = coarse_geom.times < dist - coarse_geom.dt
            assert np.max(np.abs(u[quiet]), initial=0.0) <= 1e-3

    def test_matches_oracle_at_production_resolution(self, prod_geom):
        rng = np.random.default_rng(21)
        p = TEST_PHANTOM
        diffs, refs = [], []
        for ni in rng.integers(0, prod_geom.n_nodes, 2):
            x = prod_geom.positions[ni]
            u = wave_trace(p, x, prod_geom)
            for k in draw_checkpoints(p, x, prod_geom, rng, 2):
                ref = oracle_wave_field(p, x, prod_geom.times[k],
                                        prod_geom.dt / 16)
                diffs.append(u[k] - ref)
                refs.append(ref)
        rel = np.sqrt(np.sum(np.square(diffs)) / np.sum(np.square(refs)))
        assert rel <= 1e-3

    def test_long_time_decay(self, medium_geom):
        # t_max = 20: the final tenth of the time axis is nearly silent
        u = wave_trace(TEST_PHANTOM, medium_geom.positions[17], medium_geom)
        n_tail = medium_geom.n_time // 10
        tail = np.linalg.norm(u[-n_tail:])
        assert tail < 1e-2 * np.linalg.norm(u)


class TestSimulate:

    def test_linearity(self, coarse_geom, coarse_split):
        rng = np.random.default_rng(8)
        parts = [random_square(rng) for _ in range(3)]
        coefs = rng.uniform(-2, 2, 3)
        mix = WeightedSum(tuple(zip(coefs, parts)))
        direct = simulate_wave_data(mix, coarse_geom, coarse_split, Part.GAMMA1)
        combined = sum(
            c * simulate_wave_data(q, coarse_geom, coarse_split, Part.GAMMA1).samples
            for c, q in zip(coefs, parts))
        scale = np.abs(combined).max()
        assert np.abs(direct.samples - combined).max() <= 1e-10 * scale

    def test_parts_are_restrictions_of_full(self, coarse_geom, coarse_split):
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        full = simulate_wave_data(p, coarse_geom, coarse_split, Part.FULL)
        g1 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)
        assert np.array_equal(full.samples[coarse_split.gamma1_idx], g1.samples)
        r1 = restrict_wave_data(full, coarse_split, Part.GAMMA1)
        assert np.array_equal(r1.samples, g1.samples)
        assert np.array_equal(r1.node_idx, coarse_split.gamma1_idx)

    def test_threaded_simulation_is_identical(self, coarse_geom, coarse_split):
        p = TEST_PHANTOM
        one = simulate_wave_data(p, coarse_geom, coarse_split, Part.FULL, threads=1)
        two = simulate_wave_data(p, coarse_geom, coarse_split, Part.FULL, threads=4)
        assert np.array_equal(one.samples, two.samples)

    def test_support_outside_domain_rejected(self, coarse_geom, coarse_split):
        huge = SquareIndicator(-3.0, 3.0, -0.5, 0.5)
        with pytest.raises(ParameterError):
            simulate_wave_data(huge, coarse_geom, coarse_split, Part.FULL)

    def test_outside_detection_region_warns(self, coarse_geom, coarse_split):
        # inside the domain but inside the missing cap's shadow
        p = SquareIndicator(-0.1, 0.1, 0.8, 0.92)
        with pytest.warns(UserWarning):
            simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)


class TestOracle:

    def test_zero_phantom(self):
        assert oracle_wave_field(WeightedSum(()), (1.0, 0.0), 2.0) == 0.0

    def test_before_arrival(self):
        assert oracle_wave_field(UNIT_DISC, (3.0, 0.0), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_regression_fixture(self):
        # pinned from this oracle's own converged run (stable to ~3e-9
        # against a 4x finer differentiation step)
        got = oracle_wave_field(UNIT_DISC, (3.0, 0.0), 2.5)
        assert got == pytest.approx(0.22440055, abs=1e-6)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ParameterError):
            oracle_wave_field(UNIT_DISC, (3.0, 0.0), 0.0)
