import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

import lvpat.arcmeans as arcmeans
import lvpat.extension as extension
import lvpat.forward as forward
from lvpat._util import serial_blas
from lvpat.arcmeans import (_ellipse_crossings, _monic_quartic_roots,
                            exact_mean_table)
from lvpat.errors import DataMismatchError, ParameterError
from lvpat.extension import build_training_set
from lvpat.forward import (_CHUNK_ROWS, _TILE, Part, _wave_map,
                           restrict_wave_data, simulate_wave_data, wave_trace)
from lvpat.geometry import build_boundary, split_boundary
from lvpat.oracle import (_term_critical_radii, exact_circular_mean,
                          oracle_wave_field, phantom_mean_table)
from lvpat.phantoms import (EllipseIndicator, SquareIndicator, WeightedSum,
                            distance_to_support, ellipse_boundary_points,
                            training_partition)

from conftest import (BOX, GAMMA2_INTERVAL, TEST_PHANTOM, bounding_circle,
                      random_mix, random_square)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

UNIT_DISC = EllipseIndicator((0.0, 0.0), 1.0, 1.0, 0.0)

# One phantom per arc-measure path: the box band overlaps, the ellipse
# quartic, the linear branch of a circular ellipse (semi-axes equal, so the
# quartic's leading coefficient is exactly zero) and a weighted sum of both
# kernels.
KERNEL_CASES = {
    "square": SquareIndicator(-1.0, -0.4, -0.6, 0.1),
    "rotated_ellipse": TEST_PHANTOM,
    "circular_ellipse": EllipseIndicator((-0.3, -0.2), 0.35, 0.35, 0.4),
    "sum": WeightedSum(((0.7, SquareIndicator(-1.0, -0.4, -0.6, 0.1)),
                        (-1.3, TEST_PHANTOM))),
}

# A unit box with dyadic edges, so that centers on an edge, tangent radii and
# circles through a corner (offsets 0.75-1.0-1.25 and 0.375-0.5-0.625) are
# exact.  Rows are (center, radius, known mean or None).
EDGE_BOX = SquareIndicator(-0.5, 0.5, -0.25, 0.75)
BOX_EDGE_ROWS = {
    # r = 0 gives f(center), with the box half-open as in `evaluate`
    "r0_inside": ((0.0, 0.25), 0.0, 1.0),
    "r0_outside": ((2.0, -1.0), 0.0, 0.0),
    "r0_x_lo_edge": ((-0.5, 0.25), 0.0, 1.0),
    "r0_y_lo_edge": ((0.0, -0.25), 0.0, 1.0),
    "r0_x_hi_edge": ((0.5, 0.25), 0.0, 0.0),
    "r0_y_hi_edge": ((0.0, 0.75), 0.0, 0.0),
    "tangent_inside_x_lo": ((-0.25, 0.25), 0.25, 1.0),
    "tangent_inside_x_hi": ((0.25, 0.25), 0.25, 1.0),
    "tangent_inside_y_lo": ((0.0, 0.0), 0.25, 1.0),
    "tangent_inside_y_hi": ((0.0, 0.5), 0.25, 1.0),
    "tangent_outside_x_lo": ((-0.75, 0.25), 0.25, 0.0),
    "tangent_outside_x_hi": ((0.75, 0.25), 0.25, 0.0),
    "tangent_outside_y_lo": ((0.0, -0.5), 0.25, 0.0),
    "tangent_outside_y_hi": ((0.0, 1.0), 0.25, 0.0),
    "corner_x_lo_y_lo": ((-1.25, -1.25), 1.25, None),
    "corner_x_hi_y_lo": ((-0.25, -1.25), 1.25, None),
    "corner_x_lo_y_hi": ((0.5, 1.5), 1.25, None),
    "corner_x_hi_y_hi": ((1.5, 1.5), 1.25, None),
    "corner_from_inside": ((0.125, 0.25), 0.625, None),
    "inside": ((0.0, 0.25), 0.3, 1.0),
    "enclosing": ((0.0, 0.25), 1.0, 0.0),
}


def companion_roots(a, b, c, d):
    """Roots of z^4 + a z^3 + b z^2 + c z + d as companion eigenvalues."""
    comp = np.zeros((len(a), 4, 4), dtype=complex)
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    comp[:, :, 3] = -np.stack([d, c, b, a], axis=1)
    return np.linalg.eigvals(comp)


def crossing_coefficients(el, cx, cy, r):
    """A, B, C, D of g(beta) = A cos^2 + B cos + C sin + D per row, and the
    scale of the row's largest coefficient."""
    ca, sa = np.cos(el.rotation), np.sin(el.rotation)
    dx, dy = cx - el.center[0], cy - el.center[1]
    v1 = ca * dx + sa * dy
    v2 = -sa * dx + ca * dy
    ia2, ib2 = 1.0 / el.semi_a ** 2, 1.0 / el.semi_b ** 2
    A = r * r * (ia2 - ib2)
    B = 2.0 * v1 * r * ia2
    C = 2.0 * v2 * r * ib2
    D = v1 * v1 * ia2 + v2 * v2 * ib2 + r * r * ib2 - 1.0
    scale = np.maximum.reduce([np.abs(A), np.abs(B), np.abs(C), np.abs(D),
                               np.full_like(A, 1e-300)])
    return A, B, C, D, scale


def world_frame_measures(cand, el, cx, cy, radii):
    """Total arc measure inside the ellipse from world-frame crossing angles.

    cand is (n, slots) with NaN marking unused slots.  Arcs between
    consecutive crossings are classified by evaluating the phantom at their
    midpoints; radii with no crossings by evaluating it at one point.
    """
    n, slots = cand.shape
    cnt = np.sum(~np.isnan(cand), axis=1)
    s = np.sort(np.where(np.isnan(cand), np.inf, cand), axis=1)
    nxt = np.concatenate([s[:, 1:], np.full((n, 1), np.inf)], axis=1)
    j = np.arange(slots)[None, :]
    is_last = j == (cnt[:, None] - 1)
    nxt = np.where(is_last, s[:, :1] + 2 * np.pi, nxt)
    valid = j < cnt[:, None]
    s = np.where(valid, s, 0.0)
    nxt = np.where(valid, nxt, 0.0)
    gaps = nxt - s
    mids = s + 0.5 * gaps
    pts = np.empty((n, slots, 2))
    pts[..., 0] = np.reshape(cx, (-1, 1)) + radii[:, None] * np.cos(mids)
    pts[..., 1] = np.reshape(cy, (-1, 1)) + radii[:, None] * np.sin(mids)
    inside = (el.evaluate(pts) > 0.0) & valid
    measure = np.sum(np.where(inside, gaps, 0.0), axis=1)
    none = cnt == 0
    probe = np.empty((int(none.sum()), 2))
    probe[:, 0] = np.broadcast_to(cx, radii.shape)[none] + radii[none]
    probe[:, 1] = np.broadcast_to(cy, radii.shape)[none]
    measure[none] = np.where(el.evaluate(probe) > 0.0, 2 * np.pi, 0.0)
    return measure


def companion_arc_measures(el, cx, cy, radii):
    """The ellipse arc measure as computed before the closed-form solver:
    unit-modulus companion eigenvalues of the quartic in z = exp(i*beta),
    kept as the reference for the closed form."""
    r = radii
    A, B, C, D, scale = crossing_coefficients(el, cx, cy, r)
    cand = np.full((len(r), 4), np.nan)
    quartic = np.abs(A) > 1e-12 * scale
    idx = np.flatnonzero(quartic)
    Aq, Bq, Cq, Dq = A[idx], B[idx], C[idx], D[idx]
    roots = companion_roots((2.0 * Bq - 2.0j * Cq) / Aq,
                            (2.0 * Aq + 4.0 * Dq) / Aq + 0j,
                            (2.0 * Bq + 2.0j * Cq) / Aq, np.ones(len(idx)) + 0j)
    on_circle = np.abs(np.abs(roots) - 1.0) < 1e-6
    beta = np.where(on_circle, np.angle(roots), np.nan)
    An, Bn, Cn, Dn = (A[idx, None], B[idx, None], C[idx, None], D[idx, None])
    for _ in range(3):
        cb, sb = np.cos(beta), np.sin(beta)
        g = An * cb * cb + Bn * cb + Cn * sb + Dn
        gp = -2.0 * An * cb * sb - Bn * sb + Cn * cb
        step = np.where(np.abs(gp) > 1e-300, g / gp, 0.0)
        beta = beta - np.clip(step, -0.1, 0.1)
    cand[idx] = (beta + el.rotation) % (2 * np.pi)
    lin = np.flatnonzero(~quartic & (r > 0))
    amp = np.hypot(B[lin], C[lin])
    gamma = np.arctan2(C[lin], B[lin])
    ratio = np.where(amp > 0, -D[lin] / np.where(amp > 0, amp, 1.0), 2.0)
    ok = np.abs(ratio) <= 1.0
    delta = np.arccos(np.clip(ratio, -1.0, 1.0))
    cand[lin, 0] = np.where(ok, (gamma + delta + el.rotation) % (2 * np.pi), np.nan)
    cand[lin, 1] = np.where(ok, (gamma - delta + el.rotation) % (2 * np.pi), np.nan)
    return world_frame_measures(cand, el, cx, cy, radii)


# An axis-aligned ellipse with dyadic center and semi-axes, so that centers on
# its axes give exactly B = 0 or C = 0, and concentric circles B = C = 0.
AXIS_ELLIPSE = EllipseIndicator((0.25, -0.125), 0.5, 0.25, 0.0)


def axis_ellipse_rows():
    """(center, radius, tangent) rows of AXIS_ELLIPSE that are degenerate for
    the quartic: concentric circles (the depressed quartic has q = 0),
    centers on the major (C = 0) and minor (B = 0) axes, radii within 1e-9 of
    tangency, and small circles about an interior center."""
    c = np.array(AXIS_ELLIPSE.center)
    a, b = AXIS_ELLIPSE.semi_a, AXIS_ELLIPSE.semi_b
    rows = [(c, r, False) for r in (0.1, 0.2, 0.3, 0.37, 0.45, 0.6, 1.5)]
    rows += [(c, r + e, True) for r in (a, b) for e in (-1e-9, 0.0, 1e-9)]
    for axis in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        for u in (0.125, 0.375, 0.75, 1.5):
            rows += [(c + u * axis, r, False) for r in (0.0625, 0.3, 0.55, 1.2)]
        # inside tangent at the vertex from the center side, and outside
        # tangent from beyond the vertex
        vertex = a if axis[0] else b
        rows += [(c + 0.0625 * axis, vertex - 0.0625 + e, True)
                 for e in (-1e-9, 1e-9)]
        rows += [(c + (vertex + 0.5) * axis, 0.5 + e, True)
                 for e in (-1e-9, 1e-9)]
    inner = c + np.array([0.0625, 0.03125])
    rows += [(inner, r, False) for r in (1e-9, 1e-6, 1e-3, 0.05)]
    return rows


def concentric_mean(el, r):
    """Closed-form circular mean of an axis-aligned ellipse (a > b) about
    its center: the circle is inside where sin^2(beta) < s0."""
    ia2, ib2 = 1.0 / el.semi_a ** 2, 1.0 / el.semi_b ** 2
    s0 = (1.0 / r ** 2 - ia2) / (ib2 - ia2)
    return 4.0 * np.arcsin(np.sqrt(np.clip(s0, 0.0, 1.0))) / (2 * np.pi)


def all_slot_polish(A, B, C, D, trusted=True):
    """(phi, half, step) of quartic rows with the one-step g(beta) polish run
    over all four slots of `_monic_quartic_roots`, NaN ones included: the
    quarter turn phi (n,), the unpolished crossings half = 2 arctan(t)
    relative to it and the unclipped Newton steps (n, 4).  With trusted, a
    step counts only where |g'' step| < |g'|/2, as in the kernel; without,
    wherever |g'| > 1e-300, as before the alternation rule."""
    # the kernel's quartic: g(phi + pi) and g(phi) for the quarter turns
    # phi = k pi/2, and C' and D' - A' turned by phi
    g_turn = np.stack([A - B + D, D - C, A + B + D, D + C])
    k = np.argmax(np.abs(g_turn), axis=0)
    cols = np.arange(len(A))
    lead, const = g_turn[k, cols], g_turn[(k + 2) % 4, cols]
    Ck = np.stack([C, -B, -C, B])[k, cols]
    DmA = np.where(k % 2 == 0, D - A, D + A + A)
    t = _monic_quartic_roots(2.0 * Ck / lead, 2.0 * DmA / lead,
                             2.0 * Ck / lead, const / lead)
    phi = 0.5 * np.pi * k
    half = 2.0 * np.arctan(t)
    b = phi[:, None] + half
    An, Bn, Cn, Dn = A[:, None], B[:, None], C[:, None], D[:, None]
    cb, sb = np.cos(b), np.sin(b)
    g = (An * cb + Bn) * cb + Cn * sb + Dn
    gp = Cn * cb - (2.0 * An * cb + Bn) * sb
    minus_gpp = (2.0 * An * cb + Bn) * cb + Cn * sb - 2.0 * An * sb * sb
    with np.errstate(divide="ignore", invalid="ignore"):
        if trusted:
            step = np.where(np.abs(minus_gpp * g) < 0.5 * gp * gp, g / gp, 0.0)
        else:
            step = np.where(np.abs(gp) > 1e-300, g / gp, 0.0)
    return phi, half, step


def all_slot_crossings(A, B, C, D):
    """Crossings of quartic rows relative to their quarter turn, polished
    over all four slots; NaN marks unused slots."""
    _, half, step = all_slot_polish(A, B, C, D)
    return half - np.clip(step, -0.1, 0.1)


def midpoint_arc_measures(A, B, C, D):
    """The ellipse arc measure as classified before the alternation rule:
    absolute crossing angles reduced to [0, 2 pi) and sorted, each arc
    between consecutive crossings counted where g < 0 at its midpoint, the
    last one wrapping around to the first, and a circle without crossings
    counted by g(0) = A + B + D."""
    TWO_PI = 2.0 * np.pi
    scale = np.maximum.reduce([np.abs(A), np.abs(B), np.abs(C), np.abs(D)])
    quartic = np.abs(A) > 1e-12 * scale
    beta = np.full((len(A), 4), np.nan)
    phi, half, step = all_slot_polish(A[quartic], B[quartic], C[quartic],
                                      D[quartic], trusted=False)
    beta[quartic] = phi[:, None] + half - np.clip(step, -0.1, 0.1)
    idx = np.flatnonzero(~quartic)
    amp = np.hypot(B[idx], C[idx])
    gamma = np.arctan2(C[idx], B[idx])
    ratio = np.where(amp > 0, -D[idx] / np.where(amp > 0, amp, 1.0), 2.0)
    ok = np.abs(ratio) <= 1.0
    delta = np.arccos(np.clip(ratio, -1.0, 1.0))
    beta[idx, 0] = np.where(ok, gamma + delta, np.nan)
    beta[idx, 1] = np.where(ok, gamma - delta, np.nan)
    # np.sort puts NaN last: s[j + 1] <= s[0] + 2 pi, so fmin picks the
    # wrap where the next slot is NaN
    s = np.sort(beta - TWO_PI * np.floor(beta / TWO_PI), axis=1)
    wrap = s[:, :1] + TWO_PI
    gaps = np.fmin(np.concatenate([s[:, 1:], wrap], axis=1), wrap) - s
    i, j = np.nonzero(gaps >= 0.0)
    mid = s[i, j] + 0.5 * gaps[i, j]
    cm = np.cos(mid)
    inside = (A[i] * cm + B[i]) * cm + C[i] * np.sin(mid) + D[i] < 0.0
    measure = np.where(np.isnan(s[:, 0]), TWO_PI * (A + B + D < 0.0),
                       np.bincount(i, gaps[i, j] * inside, len(A)))
    return np.minimum(measure, TWO_PI)


def r_grid(wm):
    """The radii of the wave map's rows."""
    return wm.dr * np.arange(len(wm.diff_t))


def undifferenced_map(wm):
    """The hat integrals of the wave map at every half-step time, not
    differenced: (radius nodes, n_time + 1), from the formula of _WaveMap."""
    t, r, dr = wm.taus[None, :], r_grid(wm)[:, None], wm.dr
    rc = np.minimum(r, t)
    s = np.sqrt(np.maximum(t * t - rc * rc, 0.0))
    a = 0.5 * t * t * np.arcsin(rc / t) - 0.5 * rc * s
    d_i0 = s[:-1] - s[1:]
    d_i1 = a[1:] - a[:-1]
    w = np.zeros((len(r_grid(wm)), len(wm.taus)))
    w[:-1] += (r[1:] * d_i0 - d_i1) / dr
    w[1:] += (d_i1 - r[:-1] * d_i0) / dr
    return w


def radius_window(p, x, wm):
    """(j_lo, j_hi) of the radius grid covering the bounding circle of p as
    seen from x, with two steps of margin; None past the last radius node of
    the time grid."""
    center, rho = bounding_circle(p)
    n_col = wm.n_radii
    d = float(np.hypot(x[0] - center[0], x[1] - center[1]))
    j_lo = max(0, int(np.floor((d - rho) / wm.dr)) - 2)
    j_hi = min(n_col - 1, int(np.ceil((d + rho) / wm.dr)) + 2)
    return None if j_lo >= n_col - 1 else (j_lo, j_hi)


def extent_window(q, x, wm):
    """(j_lo, j_hi) of the radius grid covering the support of the box or
    ellipse q as seen from x, floor(near / dr) to ceil(far / dr); None past
    the last radius node.  A box's support lies between its distance from x (0
    inside) and its farthest corner; an ellipse's between the nearest and
    farthest of 256 parametric boundary samples, each widened by
    max(semi_a, semi_b) * pi / 256, and from 0 when x is inside."""
    if isinstance(q, SquareIndicator):
        near = np.hypot(max(q.x_lo - x[0], x[0] - q.x_hi, 0.0),
                        max(q.y_lo - x[1], x[1] - q.y_hi, 0.0))
        far = np.hypot(max(x[0] - q.x_lo, q.x_hi - x[0]),
                       max(x[1] - q.y_lo, q.y_hi - x[1]))
    else:
        psi = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        c, s = np.cos(q.rotation), np.sin(q.rotation)
        bx = q.center[0] + q.semi_a * np.cos(psi) * c - q.semi_b * np.sin(psi) * s
        by = q.center[1] + q.semi_a * np.cos(psi) * s + q.semi_b * np.sin(psi) * c
        d2 = (x[0] - bx) ** 2 + (x[1] - by) ** 2
        slack = max(q.semi_a, q.semi_b) * np.pi / 256
        inside = q.evaluate(np.asarray(x, dtype=float)) > 0.0
        near = 0.0 if inside else max(np.sqrt(d2.min()) - slack, 0.0)
        far = np.sqrt(d2.max()) + slack
    n_col = wm.n_radii
    j_lo = int(np.floor(near / wm.dr))
    j_hi = min(n_col - 1, int(np.ceil(far / wm.dr)))
    return None if j_lo >= n_col - 1 else (j_lo, j_hi)


def support_edge_points(q):
    """Points on the edge of the support of a box or ellipse: a box's
    corners and edge midpoints; an ellipse's boundary at every fifth of the
    256 sample parameters and of the parameters halfway between them, where
    the nearest sample is farthest."""
    if isinstance(q, SquareIndicator):
        xs = (q.x_lo, 0.5 * (q.x_lo + q.x_hi), q.x_hi)
        ys = (q.y_lo, 0.5 * (q.y_lo + q.y_hi), q.y_hi)
        return np.array([(x, y) for x in xs for y in ys
                         if x in (q.x_lo, q.x_hi) or y in (q.y_lo, q.y_hi)])
    return ellipse_boundary_points(q, 512)[::5]


# Terms for the window rule: eccentric ellipses with semi_b > semi_a (the
# boundary runs fastest along semi_b, so a slack of semi_a * pi / 256 is too
# small), a nearly circular ellipse (the quartic's linear branch), a square
# of side 1e-4 and a nested sum, which is flattened into its terms.
WINDOW_CASES = {
    "tall_ellipse": EllipseIndicator((0.1, 0.05), 0.12, 0.85, 0.3),
    "nearly_circular": EllipseIndicator((-0.4, 0.2), 0.3, 0.3 * (1 + 1e-7), 1.1),
    "tiny_square": SquareIndicator(0.3, 0.3001, -0.2, -0.1999),
    "nested_sum": WeightedSum((
        (0.5, WeightedSum(((1.0, SquareIndicator(-1.0, -0.4, -0.6, 0.1)),
                           (-2.0, TEST_PHANTOM)))),
        (1.5, EllipseIndicator((0.9, 0.1), 0.15, 0.4, 2.0)))),
}


# Terms for the window edges on coarse_geom (dr = 0.0125): a box, a
# rotated ellipse, an ellipse smaller than dr, an ellipse that ends 2 dr
# from the node at (-2, 0), and a sum of a box, an ellipse and a tiny box.
WINDOW_EDGE_CASES = {
    "square": SquareIndicator(-1.0, -0.4, -0.6, 0.1),
    "rotated_ellipse": TEST_PHANTOM,
    "tiny_ellipse": EllipseIndicator((0.3, -0.2), 0.004, 0.002, 1.0),
    "ellipse_near_node": EllipseIndicator((-1.86, 0.0), 0.12, 0.06, 0.2),
    "sum": WeightedSum(((0.7, SquareIndicator(-1.0, -0.4, -0.6, 0.1)),
                        (-1.3, TEST_PHANTOM),
                        (0.5, SquareIndicator(0.3, 0.3001, -0.2, -0.1999)))),
}


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


# One mean evaluation of the forward for one term: call numbers the
# evaluations, rows are rows of the pass (see `record_forward`).
Eval = namedtuple("Eval", "call term rows radii means")

# One dense tile of a block: rows [lo, hi) of the pass, columns from j0.
Tile = namedtuple("Tile", "lo hi j0 values")


def record_forward(monkeypatch, phantoms, parts):
    """Patch the forward so that it records what it computes; returns the
    lists the patch fills: the task list of each `parallel_map` call, one
    Eval per term per mean evaluation, and a copy of every dense tile the
    blocks build.  The pass numbers its rows part by part, phantom-major
    within a part; a point names its part, so no point may lie in two parts.
    A block's one box evaluation takes the rows of all its box terms; it is
    split here into its boxes by their edges."""
    tasks, calls, tiles = [], [], []
    run, means, boxes, dense = (forward.parallel_map, forward.exact_mean_table,
                                forward._box_arc_measures, forward._dense_tiles)
    owner = {}
    for k, p in enumerate(phantoms):
        for _, q in p.terms if isinstance(p, WeightedSum) else ((1.0, p),):
            owner.setdefault(q, k)
    # per point: the row of phantom 0 at it and its part's size
    index, row0 = {}, 0
    for x in parts:
        for i, c in enumerate(x):
            index[c.tobytes()] = (row0 + i, len(x))
        row0 += len(phantoms) * len(x)
    numbers = itertools.count()

    def rows(q, centers):
        at = np.array([index[c.tobytes()] for c in centers],
                      dtype=int).reshape(-1, 2)
        return at[:, 0] + owner[q] * at[:, 1]

    def mapped(fn, items, threads=1):
        tasks.append(list(items))
        return run(fn, tasks[-1], threads)

    def term_means(q, centers, radii):
        values = means(q, centers, radii)
        calls.append(Eval(next(numbers), q, rows(q, centers), radii, values))
        return values

    def box_measures(edges, cx, cy, radii):
        values = boxes(edges, cx, cy, radii)
        call = next(numbers)
        keys, which = np.unique(np.transpose(edges), axis=0, return_inverse=True)
        for k, key in enumerate(keys):
            at = which.ravel() == k
            q = SquareIndicator(*key)
            calls.append(Eval(call, q, rows(q, np.stack([cx[at], cy[at]], -1)),
                              radii[at], values[at] / (2 * np.pi)))
        return values

    def dense_tiles(*args):
        made = dense(*args)
        tiles.extend(Tile(int(lo), int(hi), int(j0), t.copy())
                     for lo, hi, j0, t in made)
        return made

    monkeypatch.setattr(forward, "parallel_map", mapped)
    monkeypatch.setattr(forward, "exact_mean_table", term_means)
    monkeypatch.setattr(forward, "_box_arc_measures", box_measures)
    monkeypatch.setattr(forward, "_dense_tiles", dense_tiles)
    return tasks, calls, tiles


def split_parts(geom, split):
    """The forward's two parts of a simulation, gamma1 and gamma2."""
    return [geom.positions[split.gamma1_idx], geom.positions[split.gamma2_idx]]


def simulate_recorded(p, geom, split, threads, monkeypatch):
    """Full-boundary data of p and the record of `record_forward`; row r of
    the pass is node np.concatenate([gamma1_idx, gamma2_idx])[r]."""
    tasks, calls, tiles = record_forward(monkeypatch, [p],
                                         split_parts(geom, split))
    data = simulate_wave_data(p, geom, split, Part.FULL, threads=threads)
    monkeypatch.undo()
    return data, tasks, calls, tiles


def table_entries(calls, p, wm):
    """(rows, columns, values) of the table entries the forward evaluated
    for phantom p: the recorded means scaled by their terms' coefficients."""
    coef = {q: c for c, q in (p.terms if isinstance(p, WeightedSum)
                              else ((1.0, p),))}
    return (np.concatenate([e.rows for e in calls]),
            np.rint(np.concatenate([e.radii for e in calls]) / wm.dr).astype(int),
            np.concatenate([coef[e.term] * e.means for e in calls]))


def part_sizes(split):
    """Point counts of the two parts of a simulation."""
    return [len(split.gamma1_idx), len(split.gamma2_idx)]


def tile_starts(n_phantoms, sizes):
    """First rows of the forward's tiles: _TILE points of one (part,
    phantom), for parts of the given point counts."""
    row0 = np.concatenate([[0], np.cumsum(n_phantoms * np.asarray(sizes))])
    return np.concatenate([(row0[p] + m * np.arange(n_phantoms)[:, None]
                            + np.arange(0, m, _TILE)).ravel()
                           for p, m in enumerate(sizes)])


def check_point_blocks(tasks, calls, n_phantoms, sizes):
    """The block rule of `forward._traces` for parts of the given point
    counts; returns the blocks as (part, first row, end row).

    One parallel pass over consecutive blocks of whole tiles, each in one
    part; per block one box evaluation for all its box terms and one
    mean-table call per ellipse term with rows in it; per part
    ceil(entries / _CHUNK_ROWS) blocks, each within one tile's entries of an
    equal share of the part's entries."""
    assert len(tasks) == 1
    blocks = [tuple(int(v) for v in task) for task in tasks[0]]
    row0 = np.concatenate([[0], np.cumsum(n_phantoms * np.asarray(sizes))])
    starts = tile_starts(n_phantoms, sizes)
    assert blocks[0][1] == 0 and blocks[-1][2] == row0[-1]
    assert all(a[2] == b[1] for a, b in zip(blocks, blocks[1:]))
    for p, lo, hi in blocks:
        assert row0[p] <= lo < hi <= row0[p + 1]
        assert lo in starts and (hi in starts or hi == row0[p + 1])
    ends = np.array([hi for _, _, hi in blocks])
    entries = np.zeros(len(blocks), dtype=int)
    kinds = {}
    for e in calls:
        block = np.searchsorted(ends, e.rows, side="right")
        # the call's rows all lie in one block: blocks hold whole rows
        assert np.all(block == block[0])
        kind = (block[0], "box" if isinstance(e.term, SquareIndicator)
                else id(e.term))
        assert kinds.setdefault(e.call, kind) == kind
        entries[block[0]] += len(e.rows)
    assert len(set(kinds.values())) == len(kinds)
    row = np.bincount(np.concatenate([e.rows for e in calls]),
                      minlength=row0[-1])
    tile = np.add.reduceat(row, starts)
    part = np.array([p for p, _, _ in blocks])
    for p in range(len(sizes)):
        total = row[row0[p]:row0[p + 1]].sum()
        n = np.count_nonzero(part == p)
        assert n == -(-total // _CHUNK_ROWS)
        largest = tile[(starts >= row0[p]) & (starts < row0[p + 1])].max()
        assert np.all(np.abs(entries[part == p] - total / n) <= largest)
    return blocks


class TestCircularMean:

    def test_batch_table_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        for p in (SquareIndicator(-1.0, -0.4, -0.6, 0.1), TEST_PHANTOM,
                  random_mix(rng)):
            center = rng.uniform(-2, 2, 2)
            radii = np.sort(rng.uniform(0.0, 4.0, 40))
            got = phantom_mean_table(p, center, radii)
            want = np.array([exact_circular_mean(p, center, r) for r in radii])
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(BOX_EDGE_ROWS))
    def test_box_edge_cases_match_oracle(self, name):
        center, r, known = BOX_EDGE_ROWS[name]
        want = exact_circular_mean(EDGE_BOX, center, r)
        # alone and among all other edge rows, one center per row
        got = exact_mean_table(EDGE_BOX, center, np.array([r]))[0]
        centers = np.array([c for c, _, _ in BOX_EDGE_ROWS.values()])
        radii = np.array([q for _, q, _ in BOX_EDGE_ROWS.values()])
        table = exact_mean_table(EDGE_BOX, centers, radii)
        got_row = table[list(BOX_EDGE_ROWS).index(name)]
        for value in (got, got_row):
            assert abs(value - want) <= 1e-12
            if known is not None:
                assert abs(value - known) <= 1e-12

    def test_per_row_box_edges_match_scalar_boxes(self):
        # rows of several boxes in one evaluation, edges gathered per row,
        # give each box's own table bit for bit: EDGE_BOX with its edge
        # rows (r = 0, tangents, corners) and partition cells with random
        # rows, r = 0 among them, all interleaved
        rng = np.random.default_rng(42)
        groups = [(EDGE_BOX,
                   np.array([c for c, _, _ in BOX_EDGE_ROWS.values()], dtype=float),
                   np.array([r for _, r, _ in BOX_EDGE_ROWS.values()]))]
        for box in training_partition((-1.25, 0.5, -0.7, 0.1752), 4, 2):
            radii = rng.uniform(0.0, 3.0, 40)
            radii[:3] = 0.0
            groups.append((box, rng.uniform(-2, 2, (40, 2)), radii))
        edges = np.concatenate([np.tile(q.bounding_box(), (len(r), 1))
                                for q, _, r in groups]).T
        centers = np.concatenate([c for _, c, _ in groups])
        radii = np.concatenate([r for _, _, r in groups])
        order = rng.permutation(len(radii))
        got = np.empty(len(radii))
        got[order] = arcmeans._box_arc_measures(
            edges[:, order], centers[order, 0], centers[order, 1],
            radii[order]) / (2 * np.pi)
        want = np.concatenate([exact_mean_table(q, c, r) for q, c, r in groups])
        assert got.tobytes() == want.tobytes()

    def test_sum_has_no_mean_table(self):
        # the forward evaluates a sum term by term; `oracle` holds the
        # whole-sum reference
        with pytest.raises(ParameterError):
            exact_mean_table(KERNEL_CASES["sum"], np.zeros(2), np.ones(3))

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_per_row_centers_match_scalar_calls(self, name):
        p = KERNEL_CASES[name]
        center, rho = bounding_circle(p)
        rng = np.random.default_rng(40)
        # (center, radii) groups: random centers and radii; a circle about the
        # support's center small enough to lie inside it; one far away that
        # neither meets nor encloses it; one enclosing it.  The last three
        # have no crossings, at three different centers.
        groups = [(rng.uniform(-2, 2, 2), np.sort(rng.uniform(0, 4, 30)))
                  for _ in range(3)]
        groups += [(center, np.array([0.0, 0.02, 0.05])),
                   (np.array([1.9, 0.9]), np.array([0.1, 0.3])),
                   (np.array([1.5, -0.5]), np.array([6.0]))]
        centers = np.concatenate([np.tile(c, (len(r), 1)) for c, r in groups])
        radii = np.concatenate([r for _, r in groups])
        got = phantom_mean_table(p, centers, radii)
        want = np.concatenate([phantom_mean_table(p, c, r) for c, r in groups])
        assert got.tobytes() == want.tobytes()
        # the inside circle holds the full value, the far and enclosing ones 0
        assert np.all(got[-6:-3] != 0.0)
        assert np.all(got[-3:] == 0.0)

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_two_row_centers_are_per_row(self, name):
        # a (2, 2) array is two centers, not one center per coordinate
        p = KERNEL_CASES[name]
        centers = np.array([[-0.6, -0.25], [1.2, 0.4]])
        radii = np.array([0.3, 1.7])
        got = phantom_mean_table(p, centers, radii)
        want = np.concatenate([phantom_mean_table(p, c, r[None])
                               for c, r in zip(centers, radii)])
        assert got.tobytes() == want.tobytes()

    def test_quartic_roots_match_companion_eigenvalues(self):
        rng = np.random.default_rng(31)
        n = 20000
        a, b, c, d = rng.standard_normal((4, n))
        # q = 0 (no odd terms, no shift): biquadratics with r < 0, and with
        # r of either sign
        a[:2000] = c[:2000] = 0.0
        d[:1000] = -np.abs(d[:1000])
        # near-double roots: (t^2 - 2u t + u^2 - e2) times a random
        # quadratic, so u +- sqrt(e2) are two real roots 2e-9 or 2e-6 apart,
        # a double root, or a complex pair 1e-9 off the axis (kept as the
        # double root u) or 1e-4 off it (dropped)
        m = 5000
        u = rng.uniform(-2.0, 2.0, m)
        e2 = rng.choice([1e-18, 1e-12, 0.0, -1e-18, -1e-8], m)
        p1, q1 = -2.0 * u, u * u - e2
        p2, q2 = rng.standard_normal((2, m))
        near = np.stack([p1 + p2, q1 + q2 + p1 * p2, p1 * q2 + p2 * q1,
                         q1 * q2])
        a, b, c, d = np.concatenate([(a, b, c, d), near], axis=1)
        got = _monic_quartic_roots(a, b, c, d)
        want = companion_roots(a, b, c, d)
        # the eigenvalues kept as real roots: 2|y| < 1e-6 (1 + x^2)
        ratio = 2.0 * np.abs(want.imag) / (1.0 + want.real ** 2)
        kept = ratio < 1e-6
        # rounding the coefficients splits a double root by about 1e-8,
        # which puts some near rows within a factor 10 of the rule's bound,
        # where the two solvers may keep different counts
        clear = ~np.any((ratio > 1e-7) & (ratio < 1e-5), axis=1)
        assert clear[:n].all() and clear[n:].sum() >= 0.95 * m
        assert not np.any(np.isinf(got))
        count = np.sum(~np.isnan(got), axis=1)
        assert np.array_equal(count[clear], np.sum(kept, axis=1)[clear])
        assert {0, 2, 4} <= set(count.tolist())
        # sorted real roots, NaN last, relative to max(1, |root|)
        want = np.sort(np.where(kept, want.real, np.nan), axis=1)
        err = np.abs(np.sort(got, axis=1) - want) / np.maximum(1.0, np.abs(want))
        err = np.nan_to_num(err, nan=0.0)
        assert err[:n].max() <= 1e-10
        # a double root moves by the square root of the coefficients'
        # rounding, in either solver
        assert err[n:][clear[n:]].max() <= 1e-5

    def test_ellipse_table_matches_companion_path(self):
        rng = np.random.default_rng(32)
        # eccentric and nearly circular ellipses: in z = exp(i*beta) the
        # latter spread the quartic's roots over |A|/scale ~ 1e-7 and its
        # inverse; small radii about interior centers do the same
        ellipses = [TEST_PHANTOM, AXIS_ELLIPSE,
                    EllipseIndicator((0.1, -0.2), 0.4, 0.13, 2.3),
                    EllipseIndicator((-0.3, 0.25), 0.3, 0.3 / (1 + 1e-7), 0.9)]
        worst = 0.0
        for el in ellipses:
            n = 30000
            centers = rng.uniform(-2, 2, (n, 2))
            radii = rng.uniform(0, 4, n)
            near = slice(0, 2000)
            centers[near] = np.array(el.center) + rng.uniform(-0.1, 0.1, (2000, 2))
            radii[near] = 10.0 ** rng.uniform(-8, -1, 2000)
            got = 2 * np.pi * exact_mean_table(el, centers, radii)
            want = companion_arc_measures(el, centers[:, 0], centers[:, 1], radii)
            worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-12

    def test_on_axis_centers_match_companion_path(self):
        # centers on an axis of a rotated ellipse give C or B at rounding
        # level, so the half-angle quartic has q near 0 and a resolvent
        # root near 0, where q/(2s) carries few correct digits
        rng = np.random.default_rng(34)
        worst = 0.0
        for el in (TEST_PHANTOM, EllipseIndicator((0.1, -0.2), 0.4, 0.13, 2.3),
                   EllipseIndicator((0.3, 0.1), 0.5, 0.2, np.pi / 2)):
            n = 10000
            turn = np.array([[np.cos(el.rotation), np.sin(el.rotation)],
                             [-np.sin(el.rotation), np.cos(el.rotation)]])
            side = rng.integers(0, 2, n)
            centers = (np.array(el.center)
                       + rng.uniform(-2.0, 2.0, (n, 1)) * turn[side]
                       + rng.choice([0.0, 1e-15, 1e-12], (n, 1)) * turn[1 - side])
            radii = rng.uniform(0.0, 3.0, n)
            got = 2 * np.pi * exact_mean_table(el, centers, radii)
            want = companion_arc_measures(el, centers[:, 0], centers[:, 1], radii)
            worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-12

    def test_polish_on_live_slots_matches_all_slot_polish(self):
        el = EllipseIndicator((0.1, -0.2), 0.6, 0.15, 0.7)
        rng = np.random.default_rng(33)
        n = 20000
        centers = np.array(el.center) + rng.uniform(-1.0, 1.0, (n, 2))
        radii = rng.uniform(0.0, 1.5, n)
        # about the ellipse's center, radii between the semi-axes cross four
        # times
        centers[:2000] = el.center
        radii[:2000] = rng.uniform(0.16, 0.59, 2000)
        A, B, C, D, scale = crossing_coefficients(el, centers[:, 0],
                                                  centers[:, 1], radii)
        quartic = np.abs(A) > 1e-12 * scale
        rows = [x[quartic] for x in (A, B, C, D)]
        got, _ = _ellipse_crossings(*rows)
        want = all_slot_crossings(*rows)
        assert np.array_equal(got, want, equal_nan=True)
        crossings = np.sum(~np.isnan(want), axis=1)
        assert {0, 2, 4} <= set(crossings.tolist())

    def test_alternation_matches_midpoint_classifier(self):
        # cases are (ellipse, centers, radii, name, measure of a tangency
        # or None)
        rng = np.random.default_rng(36)
        el = EllipseIndicator((0.1, -0.2), 0.6, 0.15, 0.7)
        # random rows, radii between the semi-axes about the center, which
        # cross four times, and r = 0
        n = 20000
        centers = np.array(el.center) + rng.uniform(-1.0, 1.0, (n, 2))
        radii = rng.uniform(0.0, 1.5, n)
        centers[:2000] = el.center
        radii[:2000] = rng.uniform(0.16, 0.59, 2000)
        radii[2000:2500] = 0.0
        cases = [(el, centers, radii, "random", None)]
        # circles touching the ellipse from inside and from outside, at
        # radii below its least radius of curvature
        for tangent in (TEST_PHANTOM, el):
            a, b = tangent.semi_a, tangent.semi_b
            theta = rng.uniform(0, 2 * np.pi, 2000)
            point = np.stack([a * np.cos(theta), b * np.sin(theta)])
            normal = point / np.array([[a * a], [b * b]])
            normal /= np.hypot(*normal)
            rho = 0.5 * b * b / a
            c, s = np.cos(tangent.rotation), np.sin(tangent.rotation)
            turn = np.array([[c, -s], [s, c]])
            for side, name, truth in ((-1.0, "inside tangent", 2 * np.pi),
                                      (1.0, "outside tangent", 0.0)):
                at = (turn @ (point + side * rho * normal)).T \
                    + np.array(tangent.center)
                cases.append((tangent, at, np.full(len(theta), rho), name,
                              truth))
        # centers on an axis of a rotated ellipse, where B or C is 0 or
        # rounding, and the degenerate rows of AXIS_ELLIPSE, whose tangencies
        # are exact double roots
        c, s = np.cos(el.rotation), np.sin(el.rotation)
        turn = np.array([[c, s], [-s, c]])
        side = rng.integers(0, 2, 4000)
        at = (np.array(el.center) + rng.uniform(-2.0, 2.0, (4000, 1)) * turn[side]
              + rng.choice([0.0, 1e-15, 1e-12], (4000, 1)) * turn[1 - side])
        cases.append((el, at, rng.uniform(0.0, 3.0, 4000), "on axis", None))
        rows = axis_ellipse_rows()
        cases.append((AXIS_ELLIPSE, np.array([c for c, _, _ in rows]),
                      np.array([r for _, r, _ in rows]), "axis ellipse", None))
        # nearly circular ellipses, with quartic and linear rows, and a
        # circle
        for near in (EllipseIndicator((-0.3, 0.25), 0.3, 0.3 / (1 + 1e-7), 0.9),
                     EllipseIndicator((-0.3, 0.25), 0.3, 0.3 / (1 + 1e-13), 0.9),
                     KERNEL_CASES["circular_ellipse"]):
            at = np.array(near.center) + rng.uniform(-0.8, 0.8, (4000, 2))
            r = rng.uniform(0.0, 1.2, 4000)
            at[:500] = near.center
            r[:50] = 0.0
            cases.append((near, at, r, "nearly circular", None))
        counts, linear = set(), 0
        for ell, at, r, name, truth in cases:
            A, B, C, D, scale = crossing_coefficients(ell, at[:, 0], at[:, 1], r)
            got = arcmeans._ellipse_arc_measures(ell, at[:, 0], at[:, 1], r)
            want = midpoint_arc_measures(A, B, C, D)
            if truth is None:
                assert np.abs(got - want).max() <= 1e-12, name
            else:
                # a tangency costs sqrt(eps) at the double root in either
                # rule; the alternation is no further from the truth
                err = np.abs(got - truth).max()
                assert err <= 1e-6 and err <= np.abs(want - truth).max(), name
            quartic = np.abs(A) > 1e-12 * scale
            linear += int(np.sum(~quartic))
            rel, lead = _ellipse_crossings(A[quartic], B[quartic], C[quartic],
                                           D[quartic])
            live = rel[~np.isnan(rel)]
            assert np.all((live > -np.pi) & (live < np.pi)), name
            count = np.sum(~np.isnan(rel), axis=1)
            assert np.all(count % 2 == 0), name
            assert not np.any(lead == 0.0), name
            counts |= set(count.tolist())
        assert counts == {0, 2, 4}
        assert linear > 0

    def test_alternation_without_sort_matches_sorted_crossings(self):
        # quadratic j fills slots j and j + 2, so a row's crossings are the
        # ends of two intervals, each real or NaN as a pair; the sum of
        # every other arc between them in order, without a sort, has the
        # bytes of the sorted sum (NaN last, a missing pair counting 0)
        rng = np.random.default_rng(53)
        n = 5000

        def sorted_alternation(rel):
            s = np.sort(rel, axis=1)
            return np.fmax(s[:, 1::2] - s[:, ::2], 0.0).sum(axis=1)

        def rows(lo0, hi0, lo1, hi1):
            # either interval as I0, and each one's ends in either slot
            pairs = np.stack([np.stack([lo0, hi0], -1),
                              np.stack([lo1, hi1], -1)], 1)
            pairs = np.take_along_axis(
                pairs, rng.permuted(np.tile([0, 1], (n, 1)), axis=1)[..., None],
                axis=1)
            pairs = np.take_along_axis(
                pairs, rng.permuted(np.tile([0, 1], (n, 2, 1)), axis=2), axis=2)
            return pairs.transpose(0, 2, 1).reshape(n, 4)

        b = np.sort(rng.uniform(-np.pi, np.pi, (n, 4)), axis=1)
        # ties among crossings on a coarse grid
        b[: n // 2] = np.sort(np.round(b[: n // 2], 1), axis=1)
        nan = np.full(n, np.nan)
        b0, b1, b2, b3 = b.T
        cases = {
            "disjoint": rows(b0, b1, b2, b3),
            "nested": rows(b0, b3, b1, b2),
            "overlapping": rows(b0, b2, b1, b3),
            "touching": rows(b0, b1, b1, b3),
            "one pair": rows(b0, b3, nan, nan),
            "no pair": rows(nan, nan, nan, nan),
            "tangency": rows(b1, b1, b0, b3),
            "tangency outside": rows(b0, b1, b3, b3),
            "tangency alone": rows(b2, b2, nan, nan),
        }
        # and the crossings of quartic rows of a rotated ellipse
        el = EllipseIndicator((0.1, -0.2), 0.6, 0.15, 0.7)
        centers = np.array(el.center) + rng.uniform(-1.0, 1.0, (n, 2))
        radii = rng.uniform(0.0, 1.5, n)
        centers[: n // 4] = el.center
        radii[: n // 4] = rng.uniform(0.16, 0.59, n // 4)
        A, B, C, D, scale = crossing_coefficients(el, centers[:, 0],
                                                  centers[:, 1], radii)
        quartic = np.abs(A) > 1e-12 * scale
        cases["ellipse"], _ = _ellipse_crossings(A[quartic], B[quartic],
                                                 C[quartic], D[quartic])
        for name, rel in cases.items():
            got = arcmeans._alternate_arcs(rel)
            assert got.tobytes() == sorted_alternation(rel).tobytes(), name
        assert {0, 2, 4} <= set(np.sum(~np.isnan(cases["ellipse"]), 1).tolist())

    def test_degenerate_ellipse_rows(self):
        rows = axis_ellipse_rows()
        centers = np.array([c for c, _, _ in rows])
        radii = np.array([r for _, r, _ in rows])
        got = exact_mean_table(AXIS_ELLIPSE, centers, radii)
        assert not np.any(np.isnan(got))
        assert np.all((got >= 0.0) & (got <= 1.0))
        c = np.array(AXIS_ELLIPSE.center)
        for (center, r, tangent), value in zip(rows, got):
            if np.array_equal(center, c):
                # tangency costs sqrt(eps) at the double root
                tol = 1e-6 if tangent else 1e-12
                assert abs(value - concentric_mean(AXIS_ELLIPSE, r)) <= tol
            if not tangent:
                want = exact_circular_mean(AXIS_ELLIPSE, center, r)
                assert abs(value - want) <= 1e-12
        # small circles about the interior center lie inside
        assert np.all(got[-4:] == 1.0)

    def test_inside_tangent_circles_hold_at_most_one(self):
        # circles inside the ellipse that touch it at one point: all arcs
        # are inside, and their gaps add up to 2 pi only up to rounding
        for el in (TEST_PHANTOM, AXIS_ELLIPSE):
            a, b = el.semi_a, el.semi_b
            theta = np.random.default_rng(35).uniform(0, 2 * np.pi, 5000)
            point = np.stack([a * np.cos(theta), b * np.sin(theta)])
            normal = point / np.array([[a * a], [b * b]])
            normal /= np.hypot(*normal)
            rho = 0.5 * b * b / a  # below the least radius of curvature
            c, s = np.cos(el.rotation), np.sin(el.rotation)
            centers = (np.array([[c, -s], [s, c]]) @ (point - rho * normal)).T \
                + np.array(el.center)
            got = exact_mean_table(el, centers, np.full(len(theta), rho))
            # tangency costs sqrt(eps) at the double root
            assert np.all((got >= 1.0 - 1e-6) & (got <= 1.0))

    def test_mismatched_center_shape_rejected(self):
        with pytest.raises(ParameterError):
            exact_mean_table(TEST_PHANTOM, np.zeros((3, 2)), np.ones(4))


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

    @pytest.mark.parametrize("part", [Part.GAMMA1, Part.GAMMA2])
    @pytest.mark.parametrize("name", ["square", "rotated_ellipse", "sum"])
    def test_parts_are_restrictions_of_full(self, coarse_geom, coarse_split,
                                            monkeypatch, name, part):
        # a partial call runs only its own part's points, and its bytes are
        # those of the same part run next to the other one
        p = KERNEL_CASES[name]
        full = simulate_wave_data(p, coarse_geom, coarse_split, Part.FULL)
        seen = []

        def spy(phantoms, parts, *args):
            seen.append([np.array(x) for x in parts])
            return traces(phantoms, parts, *args)

        traces = forward._traces
        monkeypatch.setattr(forward, "_traces", spy)
        got = simulate_wave_data(p, coarse_geom, coarse_split, part)
        idx = (coarse_split.gamma1_idx if part is Part.GAMMA1
               else coarse_split.gamma2_idx)
        assert len(seen) == 1 and len(seen[0]) == 1
        assert np.array_equal(seen[0][0], coarse_geom.positions[idx])
        assert np.array_equal(got.node_idx, idx)
        assert np.array_equal(full.samples[idx], got.samples)
        restricted = restrict_wave_data(full, coarse_split, part)
        assert np.array_equal(restricted.samples, got.samples)
        assert np.array_equal(restricted.node_idx, idx)

    @pytest.mark.parametrize("mismatch", [
        lambda u: dataclasses.replace(
            u, node_idx=np.random.default_rng(5).permutation(u.node_idx)),
        lambda u: dataclasses.replace(u, dt=2 * u.dt),
        lambda u: dataclasses.replace(u, fingerprint="deadbeef"),
        lambda u: dataclasses.replace(u, part=Part.GAMMA1),
    ], ids=["permuted-nodes", "double-dt", "other-fingerprint", "gamma1"])
    def test_restrict_rejects_data_off_the_split(self, coarse_geom,
                                                 coarse_split, mismatch):
        # a full container may list its nodes in any order; restriction
        # picks gamma1 rows by position, so only node order is accepted
        full = simulate_wave_data(TEST_PHANTOM, coarse_geom, coarse_split,
                                  Part.FULL)
        with pytest.raises(DataMismatchError):
            restrict_wave_data(mismatch(full), coarse_split, Part.GAMMA1)

    @pytest.mark.parametrize("part", [Part.FULL, Part.GAMMA1])
    @pytest.mark.parametrize("name", ["square", "rotated_ellipse", "sum"])
    def test_rows_match_per_node_reference(self, domain, name, part):
        # t_max = 1.5 is shorter than the distance from the phantoms to the
        # far side of the boundary, so some rows are exactly zero.  The
        # reference takes one window per node, about the whole phantom's
        # bounding circle, and the undifferenced map; the tiled product
        # takes term windows, the differenced map and another summation
        # order, so live rows agree to 1e-12 relative, not bit for bit.
        geom = build_boundary(domain, spacing_target=0.1, dt=0.05, t_max=1.5)
        split = split_boundary(geom, GAMMA2_INTERVAL)
        p = KERNEL_CASES[name]
        data = simulate_wave_data(p, geom, split, part)
        wm = _wave_map(geom.dt, geom.n_time)
        w_t = undifferenced_map(wm)
        zero_rows = 0
        for row, i in zip(data.samples, data.node_idx):
            x = geom.positions[i]
            window = radius_window(p, x, wm)
            if window is None:
                want = np.zeros(geom.n_time)
                zero_rows += 1
            else:
                j_lo, j_hi = window
                means = phantom_mean_table(p, x, r_grid(wm)[j_lo:j_hi + 1])
                want = np.diff(means @ w_t[j_lo:j_hi + 1]) / geom.dt
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()
        assert 0 < zero_rows < len(data.node_idx)

    def test_wave_map_is_differenced_hat_integrals(self):
        # 1100 steps build the map in two blocks of sample times
        for dt, n_time in ((0.05, 30), (0.05, 1100)):
            wm = forward._WaveMap(dt, n_time, forward._DR_FACTOR * dt)
            want = np.diff(undifferenced_map(wm), axis=1) / dt
            assert wm.diff_t.shape == want.shape == (len(r_grid(wm)), n_time)
            assert not wm.diff_t.flags.writeable
            err = np.abs(wm.diff_t - want).max()
            assert err <= 1e-12 * np.abs(want).max()

    def test_sum_rows_follow_term_windows(self, coarse_geom, coarse_split,
                                          monkeypatch):
        # two terms in opposite corners of the domain: the sum's bounding
        # circle spans both, each term's only itself
        square = SquareIndicator(-1.5, -1.3, -0.3, -0.1)
        ellipse = EllipseIndicator((1.3, 0.2), 0.2, 0.1, 0.5)
        p = WeightedSum(((0.8, square), (-1.2, ellipse)))
        _, calls, _ = record_forward(monkeypatch, [p],
                                     split_parts(coarse_geom, coarse_split))
        simulate_wave_data(p, coarse_geom, coarse_split, Part.FULL)
        wm = _wave_map(coarse_geom.dt, coarse_geom.n_time)

        def window_rows(q, window):
            windows = [window(q, x, wm) for x in coarse_geom.positions]
            return sum(hi - lo + 1 for lo, hi in filter(None, windows))

        assert not any(isinstance(e.term, WeightedSum) for e in calls)
        assert {e.term for e in calls} == {square, ellipse}
        total = sum(len(e.radii) for e in calls)
        assert total == (window_rows(square, extent_window)
                         + window_rows(ellipse, extent_window))
        # exact extents cut the rows of the terms' bounding circles, which
        # cut those of the whole sum's
        old = window_rows(square, radius_window) + window_rows(ellipse, radius_window)
        assert total < old < 2 * window_rows(p, radius_window)

    def test_threaded_simulation_is_identical(self, medium_geom, medium_split,
                                              monkeypatch):
        # a wide ellipse: its windows on medium_geom hold about 52k entries
        p = EllipseIndicator((-0.2, -0.1), 1.3, 0.6, np.pi / 8)
        runs, bounds = {}, {}
        for threads in (1, 2, 4):
            runs[threads], tasks, calls, _ = simulate_recorded(
                p, medium_geom, medium_split, threads, monkeypatch)
            bounds[threads] = check_point_blocks(
                tasks, calls, 1, part_sizes(medium_split))
        assert len(bounds[1]) >= 4
        for threads in (2, 4):
            assert bounds[threads] == bounds[1]
            assert runs[threads].samples.tobytes() == runs[1].samples.tobytes()

    def test_threaded_sum_simulation_is_identical(self, medium_geom,
                                                  medium_split, monkeypatch):
        p = KERNEL_CASES["sum"]
        runs, bounds = {}, {}
        for threads in (1, 2, 4):
            runs[threads], tasks, calls, _ = simulate_recorded(
                p, medium_geom, medium_split, threads, monkeypatch)
            bounds[threads] = check_point_blocks(
                tasks, calls, 1, part_sizes(medium_split))
            # every block holds rows of both terms
            assert len(calls) == 2 * len(bounds[threads])
        assert len(bounds[1]) >= 2
        for threads in (2, 4):
            assert bounds[threads] == bounds[1]
            assert runs[threads].samples.tobytes() == runs[1].samples.tobytes()

    def test_phantoms_share_blocks(self, medium_geom, medium_split,
                                   monkeypatch):
        # the rows of many phantoms, phantom-major, are cut by the rule of
        # a single phantom's points; one box evaluation per block takes the
        # rows of every box term in it, and a row keeps its term order
        cells = training_partition((-1.25, 0.5, -0.7, 0.1752), 8, 4)
        phantoms = [*cells[:12], KERNEL_CASES["sum"], *cells[12:]]
        points = medium_geom.positions[medium_split.gamma1_idx]
        wm = _wave_map(medium_geom.dt, medium_geom.n_time)
        runs, bounds = {}, {}
        for threads in (1, 2):
            tasks, calls, _ = record_forward(monkeypatch, phantoms, [points])
            runs[threads], = forward._traces(phantoms, [points], wm, threads)
            monkeypatch.undo()
            bounds[threads] = check_point_blocks(tasks, calls, len(phantoms),
                                                 [len(points)])
        assert len(bounds[1]) >= 4 and bounds[2] == bounds[1]
        assert runs[2].tobytes() == runs[1].tobytes()
        # some block's one box evaluation holds the rows of several cells
        boxes = {}
        for e in calls:
            if isinstance(e.term, SquareIndicator):
                boxes.setdefault(e.call, set()).add(e.term)
        assert max(len(terms) for terms in boxes.values()) > 2
        for k in (0, 12, 13):
            one = forward._traces([phantoms[k]], [points], wm)[0][0]
            assert runs[1][k].tobytes() == one.tobytes()

    @pytest.mark.parametrize("name", sorted(WINDOW_CASES))
    def test_rows_outside_term_extent_are_zero(self, coarse_geom, name,
                                               monkeypatch):
        # every row of a term's bounding-circle window that the forward does
        # not evaluate has a mean of exactly 0.0; dr = 0.001 is finer than
        # the sampling error a too small ellipse slack leaves at the edge
        p = WINDOW_CASES[name]
        wm = forward._WaveMap(0.004, 600, forward._DR_FACTOR * 0.004)
        rng = np.random.default_rng(51)
        terms = p.terms if isinstance(p, WeightedSum) else ((1.0, p),)
        lo, hi = np.array(p.bounding_box()).reshape(2, 2)
        points = [coarse_geom.positions[::8],
                  np.stack([rng.uniform(lo[0] - 0.2, lo[1] + 0.2, 40),
                            rng.uniform(hi[0] - 0.2, hi[1] + 0.2, 40)], axis=-1)]
        points = np.concatenate(points + [support_edge_points(q) for _, q in terms])
        _, evaluated, _ = record_forward(monkeypatch, [p], [points])
        dropped = 0
        for x in points:
            evaluated.clear()
            forward._traces([p], [x[None]], wm)
            for coef, q in terms:
                window = radius_window(q, x, wm)
                if window is None:
                    continue
                radii = r_grid(wm)[window[0]:window[1] + 1]
                kept = np.concatenate([e.radii for e in evaluated if e.term == q]
                                      or [[]])
                gone = radii[~np.isin(radii, kept)]
                dropped += len(gone)
                assert np.all(exact_mean_table(q, x, gone) == 0.0)
        # a 1e-4 square's bounding circle is as tight as its extent
        assert dropped > 0 or name == "tiny_square"

    @pytest.mark.parametrize("name", sorted(WINDOW_EDGE_CASES))
    def test_means_beside_windows_are_zero(self, coarse_geom, coarse_split,
                                           name, monkeypatch):
        # each (term, node) window runs from floor(lo / dr) to
        # ceil(hi / dr) of the term's extent, with no margin: the means one
        # grid step before and after it, where those radii exist, are
        # exactly 0.0, so the windows leave out only zeros
        p = WINDOW_EDGE_CASES[name]
        _, _, calls, _ = simulate_recorded(p, coarse_geom, coarse_split, 1,
                                           monkeypatch)
        wm = _wave_map(coarse_geom.dt, coarse_geom.n_time)
        node = np.concatenate([coarse_split.gamma1_idx, coarse_split.gamma2_idx])
        checked = {"before": 0, "after": 0}
        for e in calls:
            j = np.rint(e.radii / wm.dr).astype(int)
            order = np.lexsort((j, e.rows))
            rows, j = e.rows[order], j[order]
            first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            j_lo = np.minimum.reduceat(j, first)
            j_hi = np.maximum.reduceat(j, first)
            # one window per (term, row), every radius in it evaluated once
            assert np.array_equal(np.diff(np.r_[first, len(j)]),
                                  j_hi - j_lo + 1)
            x = coarse_geom.positions[node[rows[first]]]
            for side, beside, exists in (
                    ("before", j_lo - 1, j_lo >= 1),
                    ("after", j_hi + 1, j_hi + 1 < wm.n_radii)):
                means = exact_mean_table(e.term, x[exists],
                                         wm.dr * beside[exists])
                assert np.all(means == 0.0), (name, side)
                checked[side] += int(np.count_nonzero(exists))
        assert checked["before"] > 0 and checked["after"] > 0

    def test_tile_spans_are_nonzero_columns(self, medium_geom, medium_split,
                                            monkeypatch):
        # the windows' edges can hold exact zeros, which no tile keeps: a tile
        # spans its first to its last nonzero column and holds the sums of
        # its rows' means, and only tiles with a nonzero mean are built
        p = WINDOW_CASES["nested_sum"]
        wm = _wave_map(medium_geom.dt, medium_geom.n_time)
        _, tasks, calls, tiles = simulate_recorded(p, medium_geom,
                                                   medium_split, 2, monkeypatch)
        sizes = part_sizes(medium_split)
        assert len(check_point_blocks(tasks, calls, 1, sizes)) >= 2
        rows, cols, values = table_entries(calls, p, wm)
        assert np.count_nonzero(values == 0.0) > 0
        nz = values != 0.0
        rows, cols, values = rows[nz], cols[nz], values[nz]
        starts = tile_starts(1, sizes)
        built = starts[np.unique(np.searchsorted(starts, rows, side="right") - 1)]
        assert sorted(t.lo for t in tiles) == list(built)
        for t in tiles:
            at = (rows >= t.lo) & (rows < t.hi)
            assert t.values.shape[0] == t.hi - t.lo <= _TILE
            assert cols[at].min() == t.j0
            assert cols[at].max() == t.j0 + t.values.shape[1] - 1
            want = np.zeros_like(t.values)
            np.add.at(want, (rows[at] - t.lo, cols[at] - t.j0), values[at])
            assert np.abs(t.values - want).max() <= 1e-15 * np.abs(want).max()

    def test_rows_are_the_table_product(self, medium_geom, medium_split,
                                        monkeypatch):
        # each tile's GEMM writes its rows from the first time column its
        # span reaches; the rows are exactly the tiles' products, +0.0
        # before that column and in rows without a tile, and scipy's sparse
        # product of the means to 1e-13 relative per row
        p = KERNEL_CASES["sum"]
        data, _, calls, tiles = simulate_recorded(p, medium_geom, medium_split,
                                                  1, monkeypatch)
        wm = _wave_map(medium_geom.dt, medium_geom.n_time)
        node = np.concatenate([medium_split.gamma1_idx, medium_split.gamma2_idx])
        assert len(tiles) >= 8 and any(wm.first_k[t.j0] > 0 for t in tiles)
        want = np.zeros_like(data.samples)
        with serial_blas():
            for t in tiles:
                k0 = wm.first_k[t.j0]
                want[node[t.lo:t.hi], k0:] = t.values @ wm.diff_t[
                    t.j0:t.j0 + t.values.shape[1], k0:]
        assert data.samples.tobytes() == want.tobytes()
        rows, cols, values = table_entries(calls, p, wm)
        table = csr_array((values, (rows, cols)),
                          shape=(medium_geom.n_nodes, len(wm.diff_t)))
        ref = table @ wm.diff_t
        err = np.abs(data.samples[node] - ref).max(axis=1)
        assert np.all(err <= 1e-13 * np.abs(ref).max(axis=1))

    def test_wave_map_is_zero_before_first_k(self):
        # the causal skip is exact: every entry before a row's first_k is
        # +0.0, and first_k is the first nonzero column of its row
        for dt, n_time in ((0.05, 30), (0.02, 1000)):
            wm = forward._WaveMap(dt, n_time, forward._DR_FACTOR * dt)
            before = np.arange(n_time) < wm.first_k[:, None]
            skipped = wm.diff_t[before]
            assert np.all(skipped == 0.0) and not np.any(np.signbit(skipped))
            assert np.all(np.diff(wm.first_k) >= 0)
            live = np.flatnonzero(wm.first_k < n_time)
            assert np.all(wm.diff_t[live, wm.first_k[live]] != 0.0)
        # at step 0.02 about half the map lies before first_k
        assert 0.4 < before.mean() < 0.6

    def test_unreached_point_gives_zero_row(self, coarse_geom, monkeypatch):
        # t_max = 12: the wave from the phantom never reaches x = 30, so that
        # point has no window, no tile and a row of +0.0, alone in its part
        # and beside reached points in a tile; a part may also be empty (a
        # split's gamma2 can hold no node)
        p = KERNEL_CASES["sum"]
        wm = _wave_map(coarse_geom.dt, coarse_geom.n_time)
        far = np.array([[30.0, 0.0]])
        mixed = np.concatenate([coarse_geom.positions[:3], far])
        _, calls, tiles = record_forward(monkeypatch, [p], [far, mixed])
        alone, beside, empty = forward._traces([p], [far, mixed, np.zeros((0, 2))],
                                               wm)
        assert empty.shape == (1, 0, coarse_geom.n_time)
        assert alone.tobytes() == np.zeros_like(alone).tobytes()
        assert all(np.all(e.rows != 0) and np.all(e.rows != 4) for e in calls)
        assert [(t.lo, t.hi) for t in tiles] == [(1, 5)]
        assert np.all(beside[0, 3] == 0.0)
        assert np.all(np.abs(beside[0, :3]).max(axis=1) > 0.0)

    @pytest.mark.parametrize("p", [
        WeightedSum(()),
        WeightedSum(((0.0, TEST_PHANTOM), (0.0, KERNEL_CASES["square"])))])
    def test_all_zero_sum_gives_zero_data(self, coarse_geom, coarse_split, p):
        for part in Part:
            data = simulate_wave_data(p, coarse_geom, coarse_split, part)
            assert data.samples.tobytes() == np.zeros_like(data.samples).tobytes()

    def test_wave_trace_off_node_matches_batch_row(self, coarse_geom):
        # a point halfway between two nodes, as wave_trace's one point and
        # inside a tile of nodes: GEMMs of other shapes, one row to rounding
        p = KERNEL_CASES["sum"]
        wm = _wave_map(coarse_geom.dt, coarse_geom.n_time)
        nodes = coarse_geom.positions
        x = 0.5 * (nodes[10] + nodes[11])
        batch = np.concatenate([nodes[:10], x[None], nodes[11:40]])
        row = forward._traces([p], [batch], wm)[0][0, 10]
        u = wave_trace(p, x, coarse_geom)
        assert np.abs(row).max() > 0.0
        assert np.abs(u - row).max() <= 1e-13 * np.abs(row).max()

    def test_wave_map_blocks_change_no_bytes(self, monkeypatch):
        # the step-0.02 map of the forward-mix workload: 30.6 MiB
        dt, n_time = 0.02, 1000
        tracemalloc.start()
        try:
            wm = forward._WaveMap(dt, n_time, forward._DR_FACTOR * dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= wm.diff_t.nbytes + 8 * 2 ** 20
        # one block of 4e6 entries per 999 sample times
        monkeypatch.setattr(forward, "_MAP_BLOCK_ENTRIES", int(4e6))
        wide = forward._WaveMap(dt, n_time, forward._DR_FACTOR * dt)
        assert wide.diff_t.tobytes() == wm.diff_t.tobytes()

    @pytest.mark.parametrize("dt, n_time", [(0.04, 500), (0.02, 1000)])
    def test_partial_map_matches_full_build(self, dt, n_time):
        # a map of the first rows holds the same bytes in every row it has
        # as a build of every radius node of the time grid; a request past
        # the last node builds them all
        full = forward._WaveMap(dt, n_time, forward._DR_FACTOR * dt)
        assert len(full.diff_t) == len(full.first_k) == full.n_radii
        for rows in (1, 2, 161, 803, full.n_radii - 1, full.n_radii,
                     full.n_radii + 7):
            wm = forward._WaveMap(dt, n_time, forward._DR_FACTOR * dt, rows)
            n = min(rows, full.n_radii)
            assert len(wm.diff_t) == len(wm.first_k) == n
            assert not wm.diff_t.flags.writeable
            assert not wm.first_k.flags.writeable
            assert wm.diff_t.tobytes() == full.diff_t[:n].tobytes()
            assert wm.first_k.tobytes() == full.first_k[:n].tobytes()

    def test_far_wave_trace_reads_the_full_map(self, domain):
        # a boundary pass reads the map of the rows up to the domain's
        # diameter (4); wave_trace from a point past the domain reads the
        # full map instead and leaves the boundary map as it was
        geom = build_boundary(domain, spacing_target=0.1, dt=0.05, t_max=7.5)
        split = split_boundary(geom, GAMMA2_INTERVAL)
        p = KERNEL_CASES["sum"]
        before = simulate_wave_data(p, geom, split, Part.FULL)
        wm = forward._boundary_wave_map(geom)
        diameter_rows = int(np.ceil(4.0 / wm.dr)) + 3
        assert len(wm.diff_t) == diameter_rows < wm.n_radii
        far = np.array([6.0, 0.5])  # 7.1 from the square's far corner
        u = wave_trace(p, far, geom)
        full = _wave_map(geom.dt, geom.n_time)
        assert len(full.diff_t) == full.n_radii
        want = forward._traces([p], [far[None]], full)[0][0, 0]
        assert np.abs(want).max() > 0.0
        assert u.tobytes() == want.tobytes()
        assert forward._boundary_wave_map(geom) is wm
        assert len(wm.diff_t) == diameter_rows
        after = simulate_wave_data(p, geom, split, Part.FULL)
        assert after.samples.tobytes() == before.samples.tobytes()

    @pytest.mark.parametrize("step, rows", [(0.04, 403), (0.02, 803)])
    def test_boundary_passes_share_one_map(self, domain, step, rows,
                                           monkeypatch):
        # every stage that runs over the boundary reads the same map object,
        # built with the rows up to the domain's diameter, not all of the
        # time grid's radius nodes
        geom = build_boundary(domain, spacing_target=step, dt=step, t_max=20.0)
        split = split_boundary(geom, GAMMA2_INTERVAL)
        real, seen = forward.plan_pass, []

        def plan(phantoms, parts, wm):
            seen.append(wm)
            return real(phantoms, parts, wm)

        monkeypatch.setattr(forward, "plan_pass", plan)
        monkeypatch.setattr(extension, "plan_pass", plan)
        p = KERNEL_CASES["sum"]
        simulate_wave_data(p, geom, split, Part.FULL)
        simulate_wave_data(p, geom, split, Part.GAMMA1)
        build_training_set(training_partition(BOX, 2, 1), geom, split)
        wave_trace(p, geom.positions[7], geom)
        assert len(seen) == 4
        assert all(wm is seen[0] for wm in seen)
        assert len(seen[0].diff_t) == rows
        assert seen[0].n_radii == {0.04: 2004, 0.02: 4005}[step]

    def test_support_outside_domain_rejected(self, coarse_geom, coarse_split):
        huge = SquareIndicator(-3.0, 3.0, -0.5, 0.5)
        with pytest.raises(ParameterError):
            simulate_wave_data(huge, coarse_geom, coarse_split, Part.FULL)

    def test_outside_detection_region_warns(self, coarse_geom, coarse_split):
        # inside the domain but inside the missing cap's shadow
        p = SquareIndicator(-0.1, 0.1, 0.8, 0.92)
        with pytest.warns(UserWarning):
            simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)


class TestForwardSerialBlas:

    def test_forward_runs_on_one_blas_thread(self, coarse_geom, coarse_split,
                                             monkeypatch, blas_threads):
        real, seen = forward._dense_tiles, []

        def dense_tiles(*args):
            seen.append(blas_threads())
            return real(*args)

        monkeypatch.setattr(forward, "_dense_tiles", dense_tiles)
        simulate_wave_data(TEST_PHANTOM, coarse_geom, coarse_split, threads=2)
        build_training_set(training_partition(BOX, 4, 2), coarse_geom,
                           coarse_split, threads=2)
        assert len(seen) >= 4 and all(c == [1] * len(c) for c in seen)
        assert blas_threads() == [2] * len(seen[0])

    def test_blas_threads_restored_when_means_raise(
            self, coarse_geom, coarse_split, monkeypatch, blas_threads):
        def means(*args):
            raise RuntimeError("mean kernel failed")

        monkeypatch.setattr(forward, "exact_mean_table", means)
        with pytest.raises(RuntimeError, match="mean kernel failed"):
            simulate_wave_data(TEST_PHANTOM, coarse_geom, coarse_split,
                               threads=2)
        counts = blas_threads()
        assert counts == [2] * len(counts)

    def test_outputs_independent_of_openblas_threads(self, tmp_path):
        # library calls outside the CLI: each tile's GEMM (32 x ~100 x ~500
        # at step 0.04) is large enough for OpenBLAS to thread it
        script = (
            "import sys, numpy as np\n"
            "from lvpat.extension import build_training_set\n"
            "from lvpat.forward import simulate_wave_data\n"
            "from lvpat.geometry import EllipseDomain, build_boundary, "
            "split_boundary\n"
            "from lvpat.phantoms import EllipseIndicator, training_partition\n"
            "geom = build_boundary(EllipseDomain(2.0, 1.0), "
            "spacing_target=0.04, dt=0.04, t_max=20.0)\n"
            f"split = split_boundary(geom, {GAMMA2_INTERVAL!r})\n"
            f"ts = build_training_set(training_partition({BOX!r}, 4, 2), "
            "geom, split, threads=2)\n"
            "u = simulate_wave_data(EllipseIndicator(" + ", ".join(map(repr, (
                TEST_PHANTOM.center, TEST_PHANTOM.semi_a, TEST_PHANTOM.semi_b,
                TEST_PHANTOM.rotation))) + "), geom, split, threads=2)\n"
            "np.savez(sys.argv[1], u1=ts.u1_samples, u2=ts.u2_samples, "
            "u=u.samples)\n")
        outs = {}
        for n in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": n,
                   "PYTHONPATH": os.pathsep.join(filter(None, [
                       str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
            path = tmp_path / f"blas{n}.npz"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                           check=True, capture_output=True)
            with np.load(path) as f:
                outs[n] = {k: f[k].tobytes() for k in f.files}
        assert outs["1"].keys() == outs["2"].keys() == {"u1", "u2", "u"}
        differ = [k for k in outs["1"] if outs["1"][k] != outs["2"][k]]
        assert not differ, f"outputs depend on OPENBLAS_NUM_THREADS: {differ}"


class TestOracle:

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the oracle imports brentq where it calls it, so `import lvpat`
        # does not load scipy.optimize
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, lvpat; print('scipy.optimize' in sys.modules)"],
            env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "False"

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
