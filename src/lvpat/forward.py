"""Forward wave simulation: boundary traces of the 2D free-space wave solution.

With initial pressure f and zero initial velocity, the solution satisfies
u(x, t) = d/dt [ w(x, t) ],   w(x, t) = int_0^t M_r(x) r / sqrt(t^2 - r^2) dr,
where M_r(x) is the circular mean of f over the circle of radius r about x.

One forward pass takes a sequence of phantoms (one for `simulate_wave_data`,
a whole training set for `extension.build_training_set`) and a sequence of
parts, each an array of observation points (the split's gamma1 and gamma2
nodes, or the one point of `wave_trace`), and returns the traces of every
phantom at every point of each part.  It tabulates M_r once for every
(part, phantom, point) row and every term of the phantom (a square or an
ellipse is one term, a weighted sum has one per nonzero coefficient).  Each
(row, term) pair gets a window of a uniform radius grid that covers the
term's support annulus (see `phantoms.radial_extent`: exact for boxes, a
rigorous enclosure for ellipses), and the means come from the exact arc
measures (see `arcmeans`), scaled by the term's coefficient: the rows of all
box terms of a block in one evaluation with the edges gathered per row, each
ellipse term's rows in one mean-table call.

The rows of one (part, phantom) are cut into tiles of _TILE consecutive
points.  A tile is a dense (rows, radius nodes) matrix over its span, the
columns from its first to its last nonzero mean, in which overlapping
windows of a row's terms are summed.  One GEMM of the tile with the cached
linear map then gives u at every sample time: the map is the closed-form
integral of the piecewise-linear interpolant against the Abel weight at
staggered half-step times, centrally differenced in time and divided by dt
once when it is built.  The time derivative therefore sees an exact integral
of the tabulated means, which keeps the differencing stable.  The map is
exactly zero before the wave from a tile's nearest radius arrives, so those
time columns are skipped and stay +0.0.  Maps are cached per time grid and
never change: a pass over a geometry's boundary reads the map of the rows
up to the domain's diameter, and a pass with a window that reaches farther
reads the map of all the time grid's rows.

`threads` spreads blocks of whole tiles of one part over workers, with
OpenBLAS on one thread; each block builds its own tiles and their products.
The block bounds come from the windows' entry counts alone, and a GEMM's
output bytes depend only on its tile, which is fixed by its part and
phantom: the output bytes depend neither on the thread count nor on the
BLAS thread count nor on which other phantoms or parts share the pass.  So
one part's traces are the same bytes whether that part runs alone or next
to the others (see `simulate_wave_data`).

The radius grid and the mean values depend on the phantom only through
pointwise evaluation, so simulated data is linear in the phantom to rounding
accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from ._util import parallel_map, serial_blas
from .arcmeans import TWO_PI, _box_arc_measures, exact_mean_table
from .errors import DataMismatchError, ParameterError
from .geometry import BoundaryGeometry, BoundarySplit, detection_region_contains
from .phantoms import (EllipseIndicator, Phantom, SquareIndicator, WeightedSum,
                       ellipse_boundary_points, radial_extent)

# mean-table radius step as a fraction of dt; dt/4 keeps the interpolation
# error of the square-root onset of circular means well under the data scale
_DR_FACTOR = 0.25

# points per tile: the rows of one (part, phantom) are cut into tiles of this
# many consecutive points, and each tile's product is one dense GEMM.  A
# boundary node's neighbours see a phantom at nearly the same distances, so
# their windows share most columns: on one forward-mix pass (one thread, 2-core
# x86-64) the GEMMs of 32-point tiles took 0.07 s and building the tiles
# 0.02 s, against 0.30 s for the sparse product they replace.
_TILE = 32

# table entries per block of tiles: each part's tiles are cut into
# ceil(entries / _CHUNK_ROWS) blocks of whole tiles with about equal entry
# counts, and blocks are what `threads` spreads over workers.  Their bounds
# depend only on the windows, so the output bytes do not depend on the thread
# count.  Smaller pieces cost more than they save: mean-table chunks of 2^12
# rows made a 16x8 training partition about 1.5x slower at threads=2.
_CHUNK_ROWS = 2 ** 14

# map entries per block of sample times in the wave-map build, so that each
# of the build's temporaries takes about 1 MiB whatever the map's size
_MAP_BLOCK_ENTRIES = 2 ** 17


class Part(Enum):
    FULL = "full"
    GAMMA1 = "gamma1"
    GAMMA2 = "gamma2"


@dataclass
class WaveData:
    """Sampled boundary data u(x_i, k*dt), k = 1..n_time, node-major."""

    part: Part
    node_idx: np.ndarray
    dt: float
    n_time: int
    samples: np.ndarray
    fingerprint: str

    def __post_init__(self):
        if self.samples.shape != (len(self.node_idx), self.n_time):
            raise ParameterError("samples shape inconsistent with node_idx/n_time")

    @property
    def t_max(self) -> float:
        return self.n_time * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, self.n_time + 1)

    def copy_with(self, samples: np.ndarray) -> "WaveData":
        return WaveData(self.part, self.node_idx, self.dt, self.n_time,
                        samples, self.fingerprint)


class _WaveMap:
    """Linear map from a circular-mean table to u(k*dt), k = 1..n_time.

    Means are piecewise linear on the uniform radius grid j*dr.  The wave
    potential w at the half-step times tau_k = (k + 1/2)dt, k = 0..n_time, is
    a sum over hat basis functions, each the closed-form integral of the hat
    against r / sqrt(tau^2 - r^2) over [0, tau], using
        int r / sqrt(tau^2-r^2) dr   = -sqrt(tau^2-r^2)
        int r^2 / sqrt(tau^2-r^2) dr = tau^2/2 asin(r/tau) - r/2 sqrt(tau^2-r^2).
    `diff_t` holds these integrals differenced between consecutive half-step
    times and divided by dt, transposed: (radius nodes, n_time).

    Where (j - 1) dr >= tau_{k+1}, hat j lies beyond both half-step times of
    column k: its integrals there are the same expressions of tau alone, so
    diff_t[j, k] is exactly 0.0.  `first_k[j]` counts those columns; it does
    not decrease with j, so no row from j on has a nonzero entry before it.

    The time grid has `n_radii` radius nodes, up to one past the last
    half-step time.  `diff_t` and `first_k` hold the first `rows` of them
    (all by default), and a built map never changes.  Every entry is
    computed elementwise, so a row's bytes do not depend on how many rows
    are built.
    """

    def __init__(self, dt: float, n_time: int, dr: float, rows: int | None = None):
        self.dt = dt
        self.n_time = n_time
        self.dr = dr
        self.taus = (np.arange(n_time + 1) + 0.5) * dt
        self.n_radii = int(np.ceil(self.taus[-1] / dr)) + 2
        rows = self.n_radii if rows is None else min(rows, self.n_radii)
        self.diff_t = self._build(rows)
        self.diff_t.flags.writeable = False
        self.first_k = np.searchsorted(self.taus[1:], dr * (np.arange(rows) - 1),
                                       side="right")
        self.first_k.flags.writeable = False

    def _build(self, rows: int) -> np.ndarray:
        """The first `rows` rows of the differenced map, built in blocks of
        sample times.

        Row j integrates the hats of nodes j - 1, j and j + 1, so the build
        takes one node past the last row it keeps (none past n_radii).  A
        block evaluates the integrals at its half-step times plus the next
        one, so no undifferenced matrix of the full size is held, and spans
        about _MAP_BLOCK_ENTRIES map entries, so its temporaries stay near
        1 MiB each.  Every entry is computed elementwise, so the map's bytes
        do not depend on the block size.
        """
        taus, dr = self.taus, self.dr
        r = dr * np.arange(min(rows + 1, self.n_radii))[:, None]
        n_col = len(r)
        out = np.empty((rows, self.n_time))
        chunk = max(1, _MAP_BLOCK_ENTRIES // n_col)
        for lo in range(0, self.n_time, chunk):
            hi = min(lo + chunk, self.n_time)
            t = taus[None, lo:hi + 1]
            rc = np.minimum(r, t)
            s = np.sqrt(np.maximum(t * t - rc * rc, 0.0))
            a = 0.5 * t * t * np.arcsin(rc / t) - 0.5 * rc * s
            d_i0 = s[:-1] - s[1:]
            d_i1 = a[1:] - a[:-1]
            del rc, s, a  # free them before the next temporaries
            w = np.zeros((n_col, hi + 1 - lo))
            w[:-1] += (r[1:] * d_i0 - d_i1) / dr
            w[1:] += (d_i1 - r[:-1] * d_i0) / dr
            out[:, lo:hi] = np.diff(w[:rows], axis=1) / self.dt
        return out


@lru_cache(maxsize=4)
def _wave_map(dt: float, n_time: int, rows: int | None = None) -> _WaveMap:
    """The map of this time grid with its first `rows` radius rows (all by
    default), built once."""
    return _WaveMap(dt, n_time, _DR_FACTOR * dt, rows)


def _boundary_wave_map(geom: BoundaryGeometry) -> _WaveMap:
    """The map of geom's time grid with every row that a pass over geom's
    boundary nodes reads: a support inside the domain lies within the
    domain's diameter of every node.  A window past that (a support that
    pokes out between its samples, or `wave_trace` at a point outside the
    domain) makes `_traces` take the full map instead."""
    reach = 2.0 * max(geom.domain.a1, geom.domain.a2)
    return _wave_map(geom.dt, geom.n_time,
                     int(np.ceil(reach / (_DR_FACTOR * geom.dt))) + 3)


def _dense_tiles(bounds, row, col, value) -> list:
    """The dense tiles of one block's table entries.

    bounds are the row bounds of the block's tiles; row, col and value list
    the entries, sorted by row.  Returns (lo, hi, j0, tile) for each tile of
    rows [lo, hi) that holds a nonzero value: tile is (hi - lo, j1 - j0 + 1),
    over the span [j0, j1] of its nonzero columns, with the entries of each
    cell summed in their order.  All tiles of the block are views of one
    bincount.  A value of exactly 0.0 is left out (it would add exactly
    +0.0), so a tile without a nonzero value has no span and is not listed.
    """
    nz = value != 0.0
    row, col, value = row[nz], col[nz], value[nz]
    at = np.searchsorted(row, bounds)  # each tile's entries are consecutive
    keep = np.flatnonzero(at[1:] > at[:-1])
    if not len(keep):
        return []
    j0 = np.minimum.reduceat(col, at[keep])
    width = np.maximum.reduceat(col, at[keep]) - j0 + 1
    lo, hi = bounds[keep], bounds[keep + 1]
    off = np.concatenate([[0], np.cumsum((hi - lo) * width)])
    tile = np.repeat(np.arange(len(keep)), at[keep + 1] - at[keep])
    dense = np.bincount(off[tile] + (row - lo[tile]) * width[tile]
                        + col - j0[tile], value, off[-1])
    return [(lo[t], hi[t], j0[t],
             dense[off[t]:off[t + 1]].reshape(hi[t] - lo[t], width[t]))
            for t in range(len(keep))]


def _traces(phantoms, parts, wm: _WaveMap, threads: int = 1) -> list:
    """Traces u(x, k*dt), k = 1..n_time, of each phantom at each point x of
    each part (an (m_p, 2) array), as one (phantoms, m_p, n_time) array per
    part.

    A table row is one (part, phantom, point) triple, numbered part by part
    and phantom-major within a part.  For every nonzero term of the phantom,
    the point's radius window [j_lo, j_hi] covers the term's `radial_extent`
    about the point (exact for boxes; for ellipses from boundary samples
    widened by their spacing), with two grid steps of margin on each side,
    and the row holds its windows in term order.  The rows of each (part,
    phantom) are cut into tiles of _TILE points, and each part's tiles into
    blocks of whole tiles with about _CHUNK_ROWS entries each, cut from the
    window counts alone.  Per block, the rows of all box terms go through
    one box mean evaluation with the edges gathered per entry, and each
    ellipse term's rows through one mean-table call; each mean is scaled by
    its term's coefficient.  `_dense_tiles` lays the means out as dense
    tiles, and each tile's GEMM with the differenced wave map, from the
    first time column its span can reach (`_WaveMap.first_k`), writes its
    rows of the zeroed output.  The pass runs inside `serial_blas`.
    """
    # the nonzero terms of all phantoms, phantom by phantom in term order
    terms, owner = [], []
    for k, p in enumerate(phantoms):
        for coef, q in p.terms if isinstance(p, WeightedSum) else ((1.0, p),):
            if coef != 0.0:
                terms.append((coef, q))
                owner.append(k)
    n_ph, n_col, n_time = len(phantoms), wm.n_radii, wm.n_time
    points = np.concatenate(parts)
    m = len(points)
    sizes = np.array([len(x) for x in parts], dtype=int)
    row0 = np.concatenate([[0], np.cumsum(n_ph * sizes)])
    # per point: the row of phantom 0 at it and its part's point count
    point_row = np.arange(m) + np.repeat(row0[:-1] - np.cumsum(sizes) + sizes,
                                         sizes)
    m_of = np.repeat(sizes, sizes)
    j_lo = np.zeros((len(terms), m), dtype=int)
    counts = np.zeros((len(terms), m), dtype=int)
    for t, (_, q) in enumerate(terms):
        lo, hi = radial_extent(q, points)
        j_lo[t] = np.maximum(0, np.floor(lo / wm.dr).astype(int) - 2)
        j_hi = np.minimum(n_col - 1, np.ceil(hi / wm.dr).astype(int) + 2)
        # no rows for a point the wave does not reach by t_max
        counts[t] = np.where(j_lo[t] < n_col - 1, j_hi - j_lo[t] + 1, 0)
    # a window past the map's rows reads the full map of its time grid
    if np.where(counts > 0, j_lo + counts, 0).max(initial=0) > len(wm.diff_t):
        wm = _wave_map(wm.dt, wm.n_time)
    # one window per (term, point), ordered by row, then by term
    seg_t, seg_i = np.divmod(np.arange(counts.size), m)
    seg_row = (point_row[seg_i]
               + np.asarray(owner, dtype=int)[seg_t] * m_of[seg_i])
    order = np.argsort(seg_row, kind="stable")
    seg_t, seg_i, seg_row = seg_t[order], seg_i[order], seg_row[order]
    seg_count, seg_jlo = counts[seg_t, seg_i], j_lo[seg_t, seg_i]
    row_ends = np.concatenate([[0], np.cumsum(np.bincount(
        seg_row, seg_count, row0[-1]).astype(int))])
    # tiles restart at each (part, phantom); a block ends with the tile that
    # reaches its share of its part's entries
    tiles, tasks = [], []
    for p, m_p in enumerate(sizes):
        lo = (row0[p] + m_p * np.arange(n_ph)[:, None]
              + np.arange(0, m_p, _TILE)).ravel()
        if not len(lo):
            continue
        tiles.append(lo)
        bounds = np.append(lo, row0[p + 1])
        ends = row_ends[bounds[1:]] - row_ends[row0[p]]
        total = int(ends[-1])
        n_blocks = max(1, -(-total // _CHUNK_ROWS))
        cuts = np.searchsorted(ends, total * np.arange(1, n_blocks) // n_blocks)
        cuts = bounds[np.unique(np.concatenate([[0], cuts + 1, [len(lo)]]))]
        tasks += [(p, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    tile_bounds = np.concatenate([*tiles, [row0[-1]]])
    coefs = np.array([coef for coef, _ in terms])
    is_box = np.array([isinstance(q, SquareIndicator) for _, q in terms], dtype=bool)
    edges = np.array([q.bounding_box() if isinstance(q, SquareIndicator)
                      else (np.nan,) * 4 for _, q in terms]).reshape(-1, 4).T
    px, py = np.array(points.T)
    outs = [np.zeros((n_ph, m_p, n_time)) for m_p in sizes]

    def block(task) -> None:
        p, r0, r1 = task
        s0, s1 = np.searchsorted(seg_row, (r0, r1))
        c = seg_count[s0:s1]
        cols = np.arange(c.sum()) + np.repeat(seg_jlo[s0:s1] - (np.cumsum(c) - c), c)
        term = np.repeat(seg_t[s0:s1], c)
        point = np.repeat(seg_i[s0:s1], c)
        radii = wm.dr * cols
        data = np.empty(len(cols))
        box = is_box[term]
        if box.any():
            at = slice(None) if box.all() else np.flatnonzero(box)
            t = term[at]
            data[at] = coefs[t] * (_box_arc_measures(
                np.take(edges, t, axis=1), px[point[at]], py[point[at]],
                radii[at]) / TWO_PI)
        ell = np.flatnonzero(~box)
        for t in np.unique(term[ell]):
            at = ell[term[ell] == t]
            data[at] = coefs[t] * exact_mean_table(
                terms[t][1], points[point[at]], radii[at])
        t0, t1 = np.searchsorted(tile_bounds, (r0, r1))
        rows_out = outs[p].reshape(-1, n_time)
        for lo, hi, j0, tile in _dense_tiles(tile_bounds[t0:t1 + 1],
                                              np.repeat(seg_row[s0:s1], c),
                                              cols, data):
            k0 = wm.first_k[j0]
            np.matmul(tile, wm.diff_t[j0:j0 + tile.shape[1], k0:],
                      out=rows_out[lo - row0[p]:hi - row0[p], k0:])

    with serial_blas():
        parallel_map(block, tasks, threads)
    return outs


def wave_trace(p: Phantom, x, geom: BoundaryGeometry) -> np.ndarray:
    """Time series u(x, k*dt), k = 1..n_time, for one observation point.

    x does not have to be a boundary node.  It is a part of one point, so
    its bytes may differ in the last digits from the same point's row in a
    larger part (a GEMM's bytes depend on its tile's shape).
    """
    point = np.asarray(x, dtype=float).reshape(1, 2)
    return _traces([p], [point], _boundary_wave_map(geom))[0][0, 0]


def _support_sample_points(p: Phantom) -> np.ndarray:
    """Points outlining the support; used for containment checks."""
    if isinstance(p, SquareIndicator):
        return np.array([[p.x_lo, p.y_lo], [p.x_lo, p.y_hi],
                         [p.x_hi, p.y_lo], [p.x_hi, p.y_hi]])
    if isinstance(p, EllipseIndicator):
        return ellipse_boundary_points(p, 256)
    if isinstance(p, WeightedSum):
        parts = [_support_sample_points(q) for coef, q in p.terms if coef != 0.0]
        return np.concatenate(parts) if parts else np.zeros((0, 2))
    raise ParameterError(f"unknown phantom type {type(p)!r}")


def _check_supports(phantoms, geom: BoundaryGeometry,
                    split: BoundarySplit | None) -> tuple:
    """Indices of the phantoms whose support leaves the split's detection
    region, () without a split; every support must lie inside the domain,
    else ParameterError."""
    pts = [_support_sample_points(p) for p in phantoms]
    owner = np.repeat(np.arange(len(phantoms)), [len(q) for q in pts])
    pts = np.concatenate(pts)
    if not np.all(geom.domain.contains(pts)):
        raise ParameterError("phantom support is not inside the domain")
    if split is None:
        return ()
    poking = np.bincount(owner[~detection_region_contains(split, pts)],
                         minlength=len(phantoms))
    return tuple(int(i) for i in np.flatnonzero(poking))


def simulate_wave_data(p: Phantom, geom: BoundaryGeometry, split: BoundarySplit,
                       part: Part = Part.FULL, threads: int = 1) -> WaveData:
    """Wave traces at every node of the requested boundary part.

    FULL runs the split's two parts, gamma1 and gamma2, and scatters them
    into the full boundary; GAMMA1 or GAMMA2 runs only that part.  Tiles and
    blocks never cross a part, so partial data is exactly the restriction of
    full data.  The phantom support must lie inside the domain; for
    partial-boundary simulations a support outside the detection region only
    triggers a warning (the extension problem is then unstable, not
    undefined).
    """
    if _check_supports([p], geom, None if part is Part.FULL else split):
        warnings.warn("phantom support is not inside the detection region",
                      stacklevel=2)

    wm = _boundary_wave_map(geom)
    if part is Part.FULL:
        i1, i2 = split.gamma1_idx, split.gamma2_idx
        u1, u2 = _traces([p], [geom.positions[i1], geom.positions[i2]], wm,
                         threads)
        node_idx = np.arange(geom.n_nodes)
        samples = np.empty((geom.n_nodes, geom.n_time))
        samples[i1], samples[i2] = u1[0], u2[0]
    else:
        node_idx = split.gamma1_idx if part is Part.GAMMA1 else split.gamma2_idx
        samples = _traces([p], [geom.positions[node_idx]], wm, threads)[0][0]
    return WaveData(part=part, node_idx=node_idx, dt=geom.dt,
                    n_time=geom.n_time, samples=samples,
                    fingerprint=split.fingerprint())


def restrict_wave_data(full: WaveData, split: BoundarySplit, part: Part) -> WaveData:
    """Row-restriction of full-boundary data to one part of the split."""
    if full.part is not Part.FULL:
        raise DataMismatchError("can only restrict full-boundary data")
    if full.fingerprint != split.fingerprint():
        raise DataMismatchError("wave data does not belong to this split")
    if part is Part.FULL:
        return full
    idx = split.gamma1_idx if part is Part.GAMMA1 else split.gamma2_idx
    return WaveData(part=part, node_idx=idx, dt=full.dt, n_time=full.n_time,
                    samples=full.samples[idx], fingerprint=full.fingerprint)
