"""Exact circular means of indicator phantoms, vectorized over radii.

The circular mean of an indicator equals (angular measure of the circle arcs
inside the support) / (2*pi).  For boxes it is closed form: the arcs inside
the band x_lo <= x <= x_hi (arccos of the clipped edge offsets) overlap the
arcs inside y_lo <= y <= y_hi (arcsin likewise).  Ellipse crossing angles
are the real roots of a quartic in the tangent half-angle, solved row by row
in closed form (Ferrari, Cardano) and polished by Newton steps.  A weighted
sum has no table of its own: the forward evaluates it term by term, so
linear combinations of phantoms produce linear wave data.

A table row is one (center, radius) pair: the center is either one point
shared by every radius or one point per radius, so the whole boundary of a
phantom can be evaluated in a single call.  Rows never interact, so a row's
value does not depend on which other rows share its call.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .phantoms import EllipseIndicator, Phantom, SquareIndicator

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


def _box_arc_measures(edges, cx, cy, radii: np.ndarray) -> np.ndarray:
    """Arc measure inside a box as four clamped interval overlaps.

    edges are (x_lo, x_hi, y_lo, y_hi); each edge, like each center
    coordinate, is a scalar or a per-row array, so one call can evaluate
    rows of many boxes.  On theta in [0, pi] the x band is
    [alpha_hi, alpha_lo] and the y band is [beta_lo, beta_hi] plus
    [pi - beta_hi, pi - beta_lo]; theta -> -theta maps the lower half circle
    onto the upper one with the y band negated.  Rows with r = 0 take
    2*pi * f(center), with the box half-open as in `SquareIndicator`.
    """
    x_lo, x_hi, y_lo, y_hi = edges
    r = radii
    with np.errstate(divide="ignore", invalid="ignore"):
        a_hi = np.arccos(np.clip((x_hi - cx) / r, -1.0, 1.0))
        a_lo = np.arccos(np.clip((x_lo - cx) / r, -1.0, 1.0))
        b_lo = np.arcsin(np.clip((y_lo - cy) / r, -1.0, 1.0))
        b_hi = np.arcsin(np.clip((y_hi - cy) / r, -1.0, 1.0))
    lo = np.stack([b_lo, np.pi - b_hi, -b_hi, np.pi + b_lo], axis=1)
    hi = np.stack([b_hi, np.pi - b_lo, -b_lo, np.pi + b_hi], axis=1)
    overlap = np.minimum(a_lo[:, None], hi) - np.maximum(a_hi[:, None], lo)
    measure = np.sum(np.maximum(overlap, 0.0), axis=1)
    inside = (cx >= x_lo) & (cx < x_hi) & (cy >= y_lo) & (cy < y_hi)
    return np.where(r > 0, measure, TWO_PI * inside)


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3 * np.arange(3))
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])  # exp(i*phi), phi = k*pi/2


def _monic_quartic_roots(a, b, c, d) -> np.ndarray:
    """All roots of z^4 + a z^3 + b z^2 + c z + d, shape (n, 4), row by row.

    Ferrari's method.  With z = y - a/4 the quartic is y^4 + p y^2 + q y + r,
    which factors as (y^2 - s y + k + q/(2s)) (y^2 + s y + k - q/(2s)) with
    k = p/2 + m and s^2 = 2m for any root m of the resolvent cubic
    m^3 + p m^2 + (p^2/4 - r) m - q^2/8.  Cardano solves the cubic; its root
    of largest modulus, refined by one Newton step, keeps s away from 0 (s = 0
    needs p = q = r = 0, a fourfold root, where q/(2s) is taken as 0).  The
    quadratics are solved without cancellation, and two Newton steps on the
    quartic remove the rounding of the closed form.
    """
    h = 0.25 * a
    p = b - 6.0 * h * h
    q = c - (2.0 * b - 8.0 * h * h) * h
    r = d - (c - (b - 3.0 * h * h) * h) * h
    e1, e0 = 0.25 * p * p - r, -0.125 * q * q
    # Cardano on t^3 + P t + Q with m = t - p/3; of the two cubes u^3 pick the
    # larger, so that -Q/2 and the square root do not cancel
    P = e1 - p * p / 3.0
    Q = (2.0 * p * p - 9.0 * e1) * p / 27.0 + e0
    root = np.sqrt(0.25 * Q * Q + P * P * P / 27.0)
    u3 = np.where(np.abs(root - 0.5 * Q) >= np.abs(root + 0.5 * Q),
                  root - 0.5 * Q, -root - 0.5 * Q)
    u = (np.cbrt(np.abs(u3)) * np.exp(1j / 3.0 * np.angle(u3)))[:, None] \
        * _CUBE_ROOTS_OF_UNITY
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(u != 0, u - P[:, None] / (3.0 * u), 0.0) - p[:, None] / 3.0
        m = np.take_along_axis(m, np.argmax(np.abs(m), axis=1)[:, None], axis=1)[:, 0]
        f = ((m + p) * m + e1) * m + e0
        fp = (3.0 * m + 2.0 * p) * m + e1
        m = m - np.where(fp != 0, f / fp, 0.0)
        s = np.sqrt(2.0 * m)
        k = 0.5 * p + m
        g = np.where(s != 0, q / (2.0 * s), 0.0)
        # y^2 + B y + C: the root -(B +- sqrt(B^2 - 4C))/2 of larger modulus,
        # then C over it
        qb = np.stack([-s, s], axis=1)
        qc = np.stack([k + g, k - g], axis=1)
        sq = np.sqrt(qb * qb - 4.0 * qc)
        big = -0.5 * np.where(np.abs(qb + sq) >= np.abs(qb - sq), qb + sq, qb - sq)
        z = np.concatenate([big, np.where(big != 0, qc / big, 0.0)], axis=1) \
            - h[:, None]
        a, b, c, d = (np.reshape(x, (-1, 1)) for x in (a, b, c, d))
        for _ in range(2):
            f = (((z + a) * z + b) * z + c) * z + d
            fp = ((4.0 * z + 3.0 * a) * z + 2.0 * b) * z + c
            z = z - np.where(fp != 0, f / fp, 0.0)
    return z


def _ellipse_arc_measures(el: EllipseIndicator, cx, cy,
                          radii: np.ndarray) -> np.ndarray:
    """Crossings of circles with the ellipse via the unit-circle quartic.

    In the ellipse frame (offset v, semi-axes a, b) the crossing condition is
    g(beta) = A cos^2(beta) + B cos(beta) + C sin(beta) + D = 0; with
    z = exp(i*beta) this becomes
    A z^4 + (2B - 2iC) z^3 + (2A + 4D) z^2 + (2B + 2iC) z + A = 0, whose
    unit-modulus roots are the crossing angles.  They are found as the real
    roots t of the same quartic after the change z = exp(i*phi)(1 + it)/(1 - it),
    by `_monic_quartic_roots`, and polished on g(beta).
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
        # In z the roots spread from |z| ~ |A|/scale to its inverse, and the
        # closed form loses the unit-modulus ones to cancellation once |A|
        # falls below about 1e-4 * scale (nearly circular ellipses, small
        # circles).  In t = tan((beta - phi)/2) the unit circle is the real
        # line, and g is g(phi + pi) t^4 + 2C t^3 + 2(D - A) t^2 + 2C t + g(phi)
        # in the coefficients A, B, C, D of beta - phi.  Of phi = 0, pi/2, pi,
        # 3pi/2 the one with the largest |g(phi + pi)| >= scale/2 bounds every
        # root by |t| < 7.
        Aq, Bq, Cq, Dq = A[idx], B[idx], C[idx], D[idx]
        turns = np.stack([(Aq, Bq, Cq, Dq), (-Aq, Cq, -Bq, Aq + Dq),
                          (Aq, -Bq, -Cq, Dq), (-Aq, -Cq, Bq, Aq + Dq)])
        k = np.argmax(np.abs(turns[:, 0] - turns[:, 1] + turns[:, 3]), axis=0)
        Ak, Bk, Ck, Dk = np.take_along_axis(turns, k[None, None], axis=0)[0]
        lead = (Ak - Bk + Dk).astype(complex)
        t = _monic_quartic_roots(2.0 * Ck / lead, 2.0 * (Dk - Ak) / lead,
                                 2.0 * Ck / lead, (Ak + Bk + Dk) / lead)
        # t = +-i maps to z = 0 or infinity; an exact double root gives 0/0
        # in the polish; np.where discards both
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = _QUARTER_TURNS[k, None] * (1.0 + 1.0j * t) / (1.0 - 1.0j * t)
            on_circle = np.abs(np.abs(roots) - 1.0) < 1e-6
            beta = np.full(roots.shape, np.nan)
            # Newton polish on g(beta) to remove the closed form's rounding,
            # on the slots of roots on the circle only
            live = np.nonzero(on_circle)
            b = np.angle(roots[live])
            rows = idx[live[0]]
            An, Bn, Cn, Dn = A[rows], B[rows], C[rows], D[rows]
            for _ in range(3):
                cb, sb = np.cos(b), np.sin(b)
                g = An * cb * cb + Bn * cb + Cn * sb + Dn
                gp = -2.0 * An * cb * sb - Bn * sb + Cn * cb
                step = np.where(np.abs(gp) > 1e-300, g / gp, 0.0)
                b = b - np.clip(step, -0.1, 0.1)
            beta[live] = b
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
    """Exact circular means of a box or an ellipse at all radii about center.

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
    if isinstance(p, SquareIndicator):
        return _box_arc_measures(p.bounding_box(), cx, cy, r) / TWO_PI
    if isinstance(p, EllipseIndicator):
        return _ellipse_arc_measures(p, cx, cy, r) / TWO_PI
    raise ParameterError(f"no mean table for phantom type {type(p)!r}")
