"""Universal back-projection reconstruction for even dimensions, realized in 2D.

The reconstruction at an interior point x0 is

    f(x0) = kappa * int_bdry <nu_x, x0-x> int_R^inf q(x,t) / sqrt(t^2-R^2) dt ds(x),

with R = |x0-x|, q = d/dt (u/t) and kappa = kappa_even(2) = 1/pi.  The inner
Abel-type integral is evaluated with the substitution t = sqrt(R^2+sigma^2),
which removes the endpoint singularity; the resulting smooth integrand is
integrated with a composite trapezoid of step ~dt, interpolating q linearly
in time.  Contributions beyond t_max are neglected.

The inner integral is linear in q, and the times and the radius grid
R_j = j*dt/2 are the same at every node, so the per-node radial tables of all
nodes are one product Q @ K.T with a fixed Abel matrix K (n_R x n_time),
cached per (dt, n_time, n_R).  The image is then the interpolated boundary
sum over the tables.  `oracle.backproject_point` evaluates the quadrature
directly at single points and serves as the reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DataMismatchError, ParameterError
from .forward import Part, WaveData
from .geometry import BoundaryGeometry
from .phantoms import GridSpec, ImageField


def kappa_even(d: int) -> float:
    """Back-projection constant for even spatial dimension d."""
    if d < 2 or d % 2 != 0:
        raise ParameterError("only even dimensions d >= 2 are supported")
    return float((-1.0) ** ((d - 2) // 2) / np.pi ** (d / 2))


def ubp_filter(u: WaveData) -> WaveData:
    """Apply q = d/dt (u/t): centered differences inside, one-sided at the ends.

    Samples start at t = dt, so the division by t is always well defined.
    """
    if u.n_time < 3:
        raise ParameterError("need at least 3 time samples to differentiate")
    v = u.samples / u.times[None, :]
    q = np.empty_like(v)
    dt = u.dt
    q[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * dt)
    q[:, 0] = (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2.0 * dt)
    q[:, -1] = (3.0 * v[:, -1] - 4.0 * v[:, -2] + v[:, -3]) / (2.0 * dt)
    return u.copy_with(q)


@lru_cache(maxsize=4)
def _abel_matrix(dt: float, n_time: int, n_r: int) -> np.ndarray:
    """Read-only K with (q @ K.T)[j] = int_R^t_max q(t)/sqrt(t^2-R^2) dt.

    Row j belongs to R = (j+1)*dt/2.  It sums, over the sigma nodes of R,
    the trapezoid weight divided by t times the linear-interpolation hat
    weights of q at t = sqrt(R^2+sigma^2), clamped to q[0] below t = dt like
    `np.interp`.  All radii share the sigma count set by the smallest one,
    R = dt/2.  Rows with R >= t_max are zero.
    """
    times = dt * np.arange(1, n_time + 1)
    t_max = n_time * dt
    r = 0.5 * dt * np.arange(1, n_r + 1)
    r = r[r < t_max]
    n_sig = int(np.ceil(np.sqrt(t_max * t_max - r[0] ** 2) / dt)) + 1
    sig_max = np.sqrt(t_max * t_max - r * r)
    sig = np.linspace(0.0, 1.0, n_sig + 1)[None, :] * sig_max[:, None]
    t = np.sqrt(r[:, None] ** 2 + sig * sig)
    trap = np.ones(n_sig + 1)
    trap[[0, -1]] = 0.5
    w = (sig_max / n_sig)[:, None] * trap / t
    j = np.clip(np.searchsorted(times, t, side="right") - 1, 0, n_time - 2)
    f = np.clip((t - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0)
    idx = (np.arange(len(r))[:, None] * n_time + j).ravel()
    size = n_r * n_time
    k = (np.bincount(idx, (w * (1.0 - f)).ravel(), size)
         + np.bincount(idx + 1, (w * f).ravel(), size)).reshape(n_r, n_time)
    k.flags.writeable = False
    return k


def reconstruct(u: WaveData, geom: BoundaryGeometry, grid: GridSpec,
                threads: int = 1) -> ImageField:
    """Back-projection image on the grid; cells outside the domain are masked.

    Requires full-boundary data: apply `extension.stitch` or
    `extension.zero_extend` to limited-view data first.  `threads` is
    accepted and ignored; the result does not depend on it.
    """
    if u.part is not Part.FULL:
        raise DataMismatchError(
            "reconstruct requires full-boundary data; stitch or zero-extend first")
    if grid.domain is None:
        raise ParameterError("reconstruction grid needs a domain for masking")

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
    # table step dt/2 keeps the interpolation error below the data resolution
    d_r = 0.5 * q.dt
    n_r = int(np.ceil(r_max / d_r)) + 2
    r_grid = d_r * np.arange(1, n_r + 1)
    tables = q.samples @ _abel_matrix(q.dt, q.n_time, n_r).T

    normals = geom.normals[u.node_idx]
    weights = geom.weights[u.node_idx]
    acc = np.zeros(len(flat_pts))
    for i in range(len(u.node_idx)):
        dx = flat_pts[:, 0] - pos[i, 0]
        dy = flat_pts[:, 1] - pos[i, 1]
        dot = normals[i, 0] * dx + normals[i, 1] * dy
        acc += weights[i] * dot * np.interp(np.hypot(dx, dy), r_grid, tables[i])

    values = np.zeros(mask.shape)
    values[mask] = kappa_even(2) * acc
    return ImageField(origin=grid.origin, h=grid.h, values=values, domain_mask=mask)
