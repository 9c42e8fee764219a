"""Exact circular means of indicator phantoms, vectorized over radii.

The circular mean of an indicator equals (angular measure of the circle arcs
inside the support) / (2*pi).  For boxes it is closed form: the arcs inside
the band x_lo <= x <= x_hi (arccos of the clipped edge offsets) overlap the
arcs inside y_lo <= y <= y_hi (arcsin likewise).  Ellipse crossing angles
are the roots of a degree-4 polynomial in z = exp(i*beta) (batched companion
eigenvalues, then Newton polishing).  Weighted sums combine term measures
linearly, so linear combinations of phantoms produce exactly linear wave data.

A table row is one (center, radius) pair: the center is either one point
shared by every radius or one point per radius, so the whole boundary of a
phantom can be evaluated in a single call.  Rows never interact, so a row's
value does not depend on which other rows share its call.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .phantoms import EllipseIndicator, Phantom, SquareIndicator, WeightedSum

TWO_PI = 2.0 * np.pi

_ELL_SLOTS = 4  # max crossings of a circle with an ellipse


def _measures_from_candidates(cand: np.ndarray, el: EllipseIndicator, cx, cy,
                              radii) -> np.ndarray:
    """Total arc measure inside the ellipse from per-radius crossing angles.

    cand is (n, slots) with NaN marking unused slots.  Arcs between
    consecutive crossings are classified by testing their midpoints.  cx and
    cy are scalars or per-row arrays of shape (n,).
    """
    n, slots = cand.shape
    cnt = np.sum(~np.isnan(cand), axis=1)
    s = np.sort(np.where(np.isnan(cand), np.inf, cand), axis=1)
    nxt = np.concatenate([s[:, 1:], np.full((n, 1), np.inf)], axis=1)
    j = np.arange(slots)[None, :]
    is_last = j == (cnt[:, None] - 1)
    nxt = np.where(is_last, s[:, :1] + TWO_PI, nxt)
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

    # radii with no crossings: the whole circle is inside or outside
    none = cnt == 0
    if np.any(none):
        probe = np.empty((int(none.sum()), 2))
        probe[:, 0] = np.broadcast_to(cx, radii.shape)[none] + radii[none]
        probe[:, 1] = np.broadcast_to(cy, radii.shape)[none]
        measure[none] = np.where(el.evaluate(probe) > 0.0, TWO_PI, 0.0)
    return measure


def _box_arc_measures(sq: SquareIndicator, cx, cy, radii: np.ndarray) -> np.ndarray:
    """Arc measure inside a box as four clamped interval overlaps.

    On theta in [0, pi] the x band is [alpha_hi, alpha_lo] and the y band is
    [beta_lo, beta_hi] plus [pi - beta_hi, pi - beta_lo]; theta -> -theta maps
    the lower half circle onto the upper one with the y band negated.  Rows
    with r = 0 take 2*pi * f(center).
    """
    r = radii
    with np.errstate(divide="ignore", invalid="ignore"):
        a_hi = np.arccos(np.clip((sq.x_hi - cx) / r, -1.0, 1.0))
        a_lo = np.arccos(np.clip((sq.x_lo - cx) / r, -1.0, 1.0))
        b_lo = np.arcsin(np.clip((sq.y_lo - cy) / r, -1.0, 1.0))
        b_hi = np.arcsin(np.clip((sq.y_hi - cy) / r, -1.0, 1.0))
    lo = np.stack([b_lo, np.pi - b_hi, -b_hi, np.pi + b_lo], axis=1)
    hi = np.stack([b_hi, np.pi - b_lo, -b_lo, np.pi + b_hi], axis=1)
    overlap = np.minimum(a_lo[:, None], hi) - np.maximum(a_hi[:, None], lo)
    measure = np.sum(np.maximum(overlap, 0.0), axis=1)
    center = np.stack(np.broadcast_arrays(cx, cy), axis=-1)
    return np.where(r > 0, measure, TWO_PI * sq.evaluate(center))


def _ellipse_arc_measures(el: EllipseIndicator, cx, cy,
                          radii: np.ndarray) -> np.ndarray:
    """Crossings of circles with the ellipse via the unit-circle quartic.

    In the ellipse frame (offset v, semi-axes a, b) the crossing condition is
    A cos^2(beta) + B cos(beta) + C sin(beta) + D = 0; with z = exp(i*beta)
    this becomes A z^4 + (2B - 2iC) z^3 + (2A + 4D) z^2 + (2B + 2iC) z + A = 0,
    whose unit-modulus roots are the crossing angles.
    """
    ca, sa = np.cos(el.rotation), np.sin(el.rotation)
    dx, dy = cx - el.center[0], cy - el.center[1]
    v1 = ca * dx + sa * dy
    v2 = -sa * dx + ca * dy
    ia2, ib2 = 1.0 / el.semi_a ** 2, 1.0 / el.semi_b ** 2

    r = radii
    A = r * r * (ia2 - ib2)
    B = 2.0 * v1 * r * ia2
    C = 2.0 * v2 * r * ib2
    D = v1 * v1 * ia2 + v2 * v2 * ib2 + r * r * ib2 - 1.0

    cand = np.full((len(r), _ELL_SLOTS), np.nan)
    scale = np.maximum.reduce([np.abs(A), np.abs(B), np.abs(C), np.abs(D), np.full_like(A, 1e-300)])
    quartic = np.abs(A) > 1e-12 * scale

    if np.any(quartic):
        idx = np.flatnonzero(quartic)
        a4 = A[idx].astype(complex)
        comp = np.zeros((len(idx), 4, 4), dtype=complex)
        comp[:, 1, 0] = 1.0
        comp[:, 2, 1] = 1.0
        comp[:, 3, 2] = 1.0
        comp[:, 0, 3] = -A[idx] / a4
        comp[:, 1, 3] = -(2.0 * B[idx] + 2.0j * C[idx]) / a4
        comp[:, 2, 3] = -(2.0 * A[idx] + 4.0 * D[idx]) / a4
        comp[:, 3, 3] = -(2.0 * B[idx] - 2.0j * C[idx]) / a4
        roots = np.linalg.eigvals(comp)
        on_circle = np.abs(np.abs(roots) - 1.0) < 1e-6
        beta = np.where(on_circle, np.angle(roots), np.nan)
        # Newton polish on g(beta) to remove companion rounding
        An, Bn, Cn, Dn = (A[idx, None], B[idx, None], C[idx, None], D[idx, None])
        for _ in range(3):
            cb, sb = np.cos(beta), np.sin(beta)
            g = An * cb * cb + Bn * cb + Cn * sb + Dn
            gp = -2.0 * An * cb * sb - Bn * sb + Cn * cb
            step = np.where(np.abs(gp) > 1e-300, g / gp, 0.0)
            beta = beta - np.clip(step, -0.1, 0.1)
        # beta is the angle in the ellipse frame; world angle adds the rotation
        cand[idx] = (beta + el.rotation) % TWO_PI

    lin = ~quartic & (r > 0)
    if np.any(lin):
        # nearly circular support: B cos + C sin + D = 0
        idx = np.flatnonzero(lin)
        amp = np.hypot(B[idx], C[idx])
        gamma = np.arctan2(C[idx], B[idx])
        ratio = np.where(amp > 0, -D[idx] / np.where(amp > 0, amp, 1.0), 2.0)
        ok = np.abs(ratio) <= 1.0
        delta = np.arccos(np.clip(ratio, -1.0, 1.0))
        cand[idx, 0] = np.where(ok, (gamma + delta + el.rotation) % TWO_PI, np.nan)
        cand[idx, 1] = np.where(ok, (gamma - delta + el.rotation) % TWO_PI, np.nan)

    return _measures_from_candidates(cand, el, cx, cy, radii)


def exact_mean_table(p: Phantom, center, radii: np.ndarray) -> np.ndarray:
    """Exact circular means of the phantom at all radii about center.

    center is one point, shape (2,), shared by all radii, or one point per
    radius, shape (len(radii), 2).
    """
    c = np.asarray(center, dtype=float)
    r = np.asarray(radii, dtype=float)
    if c.shape == (2,):
        cx, cy = c[0], c[1]
    elif c.shape == r.shape + (2,) and r.ndim == 1:
        cx, cy = c[:, 0], c[:, 1]
    else:
        raise ParameterError(f"center shape {c.shape} fits neither (2,) nor "
                             f"one point per radius ({len(r)}, 2)")
    return _mean_table(p, cx, cy, r)


def _mean_table(p: Phantom, cx, cy, r: np.ndarray) -> np.ndarray:
    if isinstance(p, SquareIndicator):
        return _box_arc_measures(p, cx, cy, r) / TWO_PI
    if isinstance(p, EllipseIndicator):
        return _ellipse_arc_measures(p, cx, cy, r) / TWO_PI
    if isinstance(p, WeightedSum):
        out = np.zeros_like(r)
        for coef, q in p.terms:
            if coef != 0.0:
                out += coef * _mean_table(q, cx, cy, r)
        return out
    raise ParameterError(f"unknown phantom type {type(p)!r}")
