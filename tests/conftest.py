from io import BytesIO

import numpy as np
import pytest

from lvpat.geometry import EllipseDomain, build_boundary, split_boundary
from lvpat.io import dump_container
from lvpat.phantoms import (EllipseIndicator, GridSpec, SquareIndicator,
                            WeightedSum, training_partition)

# same shapes as the main experiment, at a cheap resolution
BOX = (-1.25, 0.5, -0.7, 0.1752)
GAMMA2_INTERVAL = (0.97, 2.17)
TEST_PHANTOM = EllipseIndicator((-0.59375, -0.2624), 0.65625, 0.8752 / 3,
                                np.pi / 8)


@pytest.fixture(scope="session")
def domain():
    return EllipseDomain(2.0, 1.0)


@pytest.fixture(scope="session")
def coarse_geom(domain):
    return build_boundary(domain, spacing_target=0.05, dt=0.05, t_max=12.0)


@pytest.fixture(scope="session")
def coarse_split(coarse_geom):
    return split_boundary(coarse_geom, GAMMA2_INTERVAL)


@pytest.fixture(scope="session")
def medium_geom(domain):
    return build_boundary(domain, spacing_target=0.04, dt=0.04, t_max=20.0)


@pytest.fixture(scope="session")
def medium_split(medium_geom):
    return split_boundary(medium_geom, GAMMA2_INTERVAL)


@pytest.fixture(scope="session")
def prod_geom(domain):
    """The experiment discretization: spacing and dt of 0.01, t_max 20."""
    return build_boundary(domain, spacing_target=0.01, dt=0.01, t_max=20.0)


@pytest.fixture(scope="session")
def prod_split(prod_geom):
    return split_boundary(prod_geom, GAMMA2_INTERVAL)


@pytest.fixture(scope="session")
def small_grid(domain):
    return GridSpec(origin=(-2.2, -2.2), h=4.4 / 100, nx=101, ny=101,
                    domain=domain)


@pytest.fixture(scope="session")
def test_phantom():
    return TEST_PHANTOM


def bounding_circle(p):
    """(center, radius) of a circle containing the support (from the bounding box)."""
    x_lo, x_hi, y_lo, y_hi = p.bounding_box()
    cx, cy = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
    return np.array([cx, cy]), 0.5 * np.hypot(x_hi - x_lo, y_hi - y_lo)


def write_container(sections) -> bytes:
    """The bytes `io.dump_container` writes for these sections."""
    buf = BytesIO()
    dump_container(sections, buf)
    return buf.getvalue()


def random_square(rng, min_side=0.1):
    """Random axis-aligned square phantom inside the training box."""
    x_lo, x_hi, y_lo, y_hi = BOX
    side = rng.uniform(min_side, 0.3)
    x0 = rng.uniform(x_lo, x_hi - side)
    y0 = rng.uniform(y_lo, y_hi - side)
    return SquareIndicator(x0, x0 + side, y0, y0 + side)


def random_mix(rng, n_terms=3):
    terms = tuple((rng.uniform(-1.0, 1.0), random_square(rng))
                  for _ in range(n_terms))
    return WeightedSum(terms)


def random_disjoint_mix(rng, n_terms=3):
    """Weighted sum of distinct training-partition cells.

    Disjoint supports and order-one weights keep the combined wave signal
    away from global cancellation, unlike sums of overlapping random boxes.
    """
    cells = training_partition(BOX, 8, 4)
    picks = rng.choice(len(cells), size=n_terms, replace=False)
    signs = rng.choice([-1.0, 1.0], size=n_terms)
    mags = rng.uniform(0.5, 1.5, size=n_terms)
    return WeightedSum(tuple((s * m, cells[k])
                             for s, m, k in zip(signs, mags, picks)))


@pytest.fixture()
def blas_threads():
    """Every OpenBLAS numpy and scipy loaded set to 2 threads for the test;
    yields a function that reads their counts."""
    from lvpat import _util
    libs = _util._openblas()
    if not libs:
        pytest.skip("numpy and scipy do not use their bundled OpenBLAS")
    saved = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(2)
    yield lambda: [get() for get, _ in libs]
    for (_, set_), n in zip(libs, saved):
        set_(n)
