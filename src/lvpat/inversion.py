"""Universal back-projection reconstruction for even dimensions, realized in 2D.

The reconstruction at an interior point x0 is

    f(x0) = kappa * int_bdry <nu_x, x0-x> int_R^inf q(x,t) / sqrt(t^2-R^2) dt ds(x),

with R = |x0-x|, q = d/dt (u/t) and kappa = kappa_even(2) = 1/pi.  The inner
Abel-type integral is evaluated with the substitution t = sqrt(R^2+sigma^2),
which removes the endpoint singularity; the resulting smooth integrand is
integrated with a composite trapezoid of step ~dt, interpolating q linearly
in time.  Contributions beyond t_max are neglected.

The inner integral is linear in q, and the times and the radius grid
R_j = (j+1)*dt/2 are the same at every node, so the per-node radial tables of
all nodes are one product Q @ K.T with a fixed Abel matrix K (n_R x n_time),
cached per (dt, n_time, n_R).  The interpolated boundary sum over the tables
is linear too: a sparse matrix B (masked pixels x nodes*n_R) holds, per
(pixel, node) pair, the weight ds <nu_i, x-x_i> split over the two radius
nodes around |x-x_i|, so the image is B @ tables.ravel().  B is built once
per grid, node set and radius grid and kept for the next call.
`oracle.backproject_point` evaluates the quadrature directly at single
points and serves as the reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.sparse import csr_array

from .errors import ParameterError
from .forward import Part, WaveData, check_wave_data
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


_BLOCK_PIXELS = 256  # bounds the build's temporaries to 256 x nodes per array


@lru_cache(maxsize=1)
def _boundary_operator(grid: GridSpec, positions: bytes, normals: bytes,
                       ds: float, dt: float, n_r: int) -> csr_array:
    """Read-only B with B @ tables.ravel() the interpolated boundary sum.

    Rows are the masked pixels in `grid.points()[mask]` order; column
    i*n_r + j belongs to node i and radius R_j = (j+1)*dt/2.  Each (pixel x,
    node i) pair has the two entries ds <nu_i, x-x_i> (1-f) and
    ds <nu_i, x-x_i> f at j and j+1, where |x-x_i| lies in [R_j, R_j+1] at
    fraction f, clamped to R_0 below like `np.interp`.  Rows hold their
    entries in node order, so their columns ascend.  The node arrays come as
    bytes so that they can key the cache.
    """
    pos = np.frombuffer(positions).reshape(-1, 2)
    nrm = np.frombuffer(normals).reshape(-1, 2)
    pts = grid.points()[grid.mask()]
    n_pix, n_nodes = len(pts), len(pos)
    nnz = 2 * n_pix * n_nodes
    index = np.int64 if max(nnz, n_nodes * n_r) >= 2 ** 31 else np.int32
    data = np.empty((n_pix, n_nodes, 2))
    indices = np.empty((n_pix, n_nodes, 2), dtype=index)
    base = n_r * np.arange(n_nodes, dtype=index)
    d_r = 0.5 * dt
    for lo in range(0, n_pix, _BLOCK_PIXELS):
        blk = pts[lo:lo + _BLOCK_PIXELS]
        dx = blk[:, 0, None] - pos[:, 0]
        dy = blk[:, 1, None] - pos[:, 1]
        c = ds * (nrm[:, 0] * dx + nrm[:, 1] * dy)
        s = np.hypot(dx, dy) / d_r - 1.0
        j = np.clip(np.floor(s), 0, n_r - 2).astype(index)
        f = np.clip(s - j, 0.0, 1.0)
        rows = slice(lo, lo + len(blk))
        data[rows, :, 0] = c * (1.0 - f)
        data[rows, :, 1] = c * f
        indices[rows, :, 0] = base + j
        indices[rows, :, 1] = base + j + 1
    indptr = np.arange(0, nnz + 1, 2 * n_nodes, dtype=index)
    b = csr_array((data.reshape(-1), indices.reshape(-1), indptr),
                  shape=(n_pix, n_nodes * n_r))
    for arr in (b.data, b.indices, b.indptr):
        arr.flags.writeable = False
    return b


def reconstruct(u: WaveData, geom: BoundaryGeometry, grid: GridSpec,
                threads: int = 1) -> ImageField:
    """Back-projection image on the grid; cells outside the domain are masked.

    Requires full-boundary data over every node of `geom`, in node order,
    on the geometry's time grid (`forward.check_wave_data`; `geom` names no
    split, so the fingerprint is the caller's to check): apply
    `extension.stitch` or `extension.zero_extend` to limited-view data
    first.  The image is the filter, the Abel tables Q @ K.T and one
    product with the cached boundary operator B (see `_boundary_operator`).
    B stores 24 bytes per (masked pixel, node) pair and stays in memory
    until a call with another grid, node set or time step replaces it.
    `threads` is accepted and ignored; the result does not depend on it.
    """
    check_wave_data(u, Part.FULL, np.arange(geom.n_nodes), geom)
    if grid.domain is None:
        raise ParameterError("reconstruction grid needs a domain for masking")

    q = ubp_filter(u)
    pos = geom.positions[u.node_idx]
    corners = np.array([
        [grid.origin[0], grid.origin[1]],
        [grid.origin[0] + grid.h * (grid.nx - 1), grid.origin[1]],
        [grid.origin[0], grid.origin[1] + grid.h * (grid.ny - 1)],
        [grid.origin[0] + grid.h * (grid.nx - 1), grid.origin[1] + grid.h * (grid.ny - 1)],
    ])
    r_max = max(np.hypot(c[0] - pos[:, 0], c[1] - pos[:, 1]).max() for c in corners)
    # table step dt/2 keeps the interpolation error below the data resolution
    n_r = int(np.ceil(r_max / (0.5 * q.dt))) + 2
    tables = q.samples @ _abel_matrix(q.dt, q.n_time, n_r).T
    b = _boundary_operator(grid, pos.tobytes(),
                           geom.normals[u.node_idx].tobytes(),
                           geom.ds, q.dt, n_r)
    mask = grid.mask()
    values = np.zeros(mask.shape)
    values[mask] = kappa_even(2) * (b @ tables.reshape(-1))
    return ImageField(origin=grid.origin, h=grid.h, values=values, domain_mask=mask)
