"""Discrete norms and error factors: boundary-time inner products, the grid
L2 reconstruction error, and distances to training-function spans."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve

from ._util import cholesky_lower
from .errors import DataMismatchError, SingularTrainingSetError
from .forward import WaveData, check_wave_data
from .geometry import BoundaryGeometry
from .phantoms import GridSpec, ImageField, Phantom, rasterize


def boundary_time_inner(u: WaveData, v: WaveData, geom: BoundaryGeometry) -> float:
    """Discrete L2(boundary x time) inner product: ds * dt * sum u_i(t) * v_i(t).

    v must be data of u's part on u's nodes, times and fingerprint."""
    check_wave_data(v, u.part, u.node_idx, u, u.fingerprint)
    return float(geom.ds * u.dt * np.sum(u.samples * v.samples))


def boundary_time_norm(u: WaveData, geom: BoundaryGeometry) -> float:
    return float(np.sqrt(max(boundary_time_inner(u, u, geom), 0.0)))


def e2_error(fhat: ImageField, f: ImageField) -> float:
    """Grid L2 distance sqrt(sum_masked |f - fhat|^2 * h^2).

    This is a point-sampled grid norm, not the continuum L2 norm: once a
    reconstruction's edge band (about dt wide) narrows below h, its sampling
    error grows (the 301^2 grid, h/dt = 1.47, reads +1.45 % high against
    h = 0.0025 on a full-view reconstruction at dt = 0.01).
    """
    if not fhat.same_grid(f):
        raise DataMismatchError("error between fields on different grids")
    diff = (f.values - fhat.values)[f.domain_mask]
    return float(np.sqrt(np.sum(diff * diff) * fhat.h ** 2))


def grid_norm(f: ImageField) -> float:
    vals = f.values[f.domain_mask]
    return float(np.sqrt(np.sum(vals * vals) * f.h ** 2))


def subspace_distance(f: Phantom, training, grid: GridSpec) -> float:
    """Distance from f to the span of the training phantoms in the grid norm.

    Computed from the residual of the orthogonal projection: rasterize
    everything on the grid, solve the image-space Gram system (weight h^2
    over masked-in cells), and take the norm of f minus its projection.
    An empty training list gives the norm of f itself.
    """
    f_field = rasterize(f, grid)
    mask = f_field.domain_mask
    h2 = grid.h ** 2
    rf = f_field.values[mask]
    training = list(training)
    if not training:
        return float(np.sqrt(np.sum(rf * rf) * h2))

    basis = np.stack([rasterize(g, grid).values[mask] for g in training])
    gram = h2 * (basis @ basis.T)
    c, info = cholesky_lower(gram)
    if info != 0:
        raise SingularTrainingSetError(minor_index=info, ridge=0.0)
    rhs = h2 * (basis @ rf)
    coeffs = cho_solve((c, True), rhs)
    residual = rf - coeffs @ basis
    return float(np.sqrt(np.sum(residual * residual) * h2))
