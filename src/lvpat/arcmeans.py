"""Exact circular means of indicator phantoms, vectorized over radii.

The circular mean of an indicator equals (angular measure of the circle arcs
inside the support) / (2*pi).  For boxes it is closed form: the arcs inside
the band x_lo <= x <= x_hi (arccos of the clipped edge offsets) overlap the
arcs inside y_lo <= y <= y_hi (arcsin likewise).  For ellipses everything
happens in the ellipse's own frame, where the measure is the same as in the
world: a point at angle beta on the circle is inside where a function
g(beta) of cos(beta) and sin(beta) is negative.  With beta = k pi/2 +
2 arctan(t), the tangent half-angle t turns g = 0 into a quartic with real
coefficients, solved row by row in real arithmetic (Ferrari, Cardano) and
polished by a Newton step.  The crossings alternate the sign of g, so the
measure is the sum of every other arc between the crossings in angular
order, or its complement by the sign of g at t = +-inf.  A weighted sum has
no table of its own: the forward evaluates it term by term, so linear
combinations of phantoms produce linear wave data.

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


def _box_arc_measures(edges, cx, cy, radii: np.ndarray) -> np.ndarray:
    """Arc measure inside a box as four clamped interval overlaps.

    edges are (x_lo, x_hi, y_lo, y_hi); each edge, like each center
    coordinate, is a scalar or a per-row array, so one call can evaluate
    rows of many boxes.  On theta in [0, pi] the x band is
    [alpha_hi, alpha_lo] and the y band is [beta_lo, beta_hi] plus
    [pi - beta_hi, pi - beta_lo]; theta -> -theta maps the lower half circle
    onto the upper one with the y band negated.  Each of the four y
    intervals [lo, hi] adds max(min(alpha_lo, hi) - max(alpha_hi, lo), 0),
    left to right, row by row, with no (rows, 4) temporaries.  Rows with
    r = 0 take 2*pi * f(center), with the box half-open as in
    `SquareIndicator`.
    """
    x_lo, x_hi, y_lo, y_hi = edges
    r = radii
    with np.errstate(divide="ignore", invalid="ignore"):
        a_hi = np.arccos(np.clip((x_hi - cx) / r, -1.0, 1.0))
        a_lo = np.arccos(np.clip((x_lo - cx) / r, -1.0, 1.0))
        b_lo = np.arcsin(np.clip((y_lo - cy) / r, -1.0, 1.0))
        b_hi = np.arcsin(np.clip((y_hi - cy) / r, -1.0, 1.0))

    def overlap(lo, hi):
        return np.maximum(np.minimum(a_lo, hi) - np.maximum(a_hi, lo), 0.0)

    measure = (overlap(b_lo, b_hi) + overlap(np.pi - b_hi, np.pi - b_lo)
               + overlap(-b_hi, -b_lo) + overlap(np.pi + b_lo, np.pi + b_hi))
    inside = (cx >= x_lo) & (cx < x_hi) & (cy >= y_lo) & (cy < y_hi)
    return np.where(r > 0, measure, TWO_PI * inside)


# A complex root pair x +- iy of the half-angle quartic with
# 2|y| < _PAIR_TOL * (1 + x^2) lies within _PAIR_TOL of the unit circle in
# exp(i*beta): a tangency, kept as the double real root x
_PAIR_TOL = 1e-6


def _largest_resolvent_root(p, e1, e0):
    """Largest real root of m^3 + p m^2 + e1 m + e0, row by row.

    With m = t - p/3 the cubic is t^3 + P t + Q.  Where its discriminant
    Q^2/4 + P^3/27 is positive it has one real root, found by Cardano with
    the cube u^3 = -Q/2 - sign(Q) sqrt(disc) of larger modulus, so that the
    two terms do not cancel.  Otherwise all three roots are real and the
    largest is 2 rho cos(theta/3), rho = sqrt(-P/3),
    cos(theta) = -Q / (2 rho^3).  One Newton step refines the root where it
    lowers |f|.
    """
    P = e1 - p * p / 3.0
    Q = (2.0 * p * p - 9.0 * e1) * p / 27.0 + e0
    disc = 0.25 * Q * Q + P * P * P / 27.0
    rho = np.sqrt(np.maximum(-P / 3.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.cbrt(-0.5 * Q - np.copysign(np.sqrt(np.maximum(disc, 0.0)), Q))
        cardano = np.where(u != 0.0, u - P / (3.0 * u), 0.0)
        theta = np.arccos(np.clip(-0.5 * Q / (rho * rho * rho), -1.0, 1.0))
        trig = np.where(rho > 0.0, 2.0 * rho * np.cos(theta / 3.0), 0.0)
        m = np.where(disc > 0.0, cardano, trig) - p / 3.0
        f = ((m + p) * m + e1) * m + e0
        mn = m - f / ((3.0 * m + 2.0 * p) * m + e1)
        # the step counts where it lowers |f|: at a double root f and f' are
        # both rounding
        fn = ((mn + p) * mn + e1) * mn + e0
        return np.where(np.abs(fn) < np.abs(f), mn, m)


def _monic_quartic_roots(a, b, c, d) -> np.ndarray:
    """Real roots of t^4 + a t^3 + b t^2 + c t + d, shape (n, 4), row by row.

    Ferrari's method in real arithmetic; NaN fills the slots of complex
    roots.  With t = y - a/4 the quartic is y^4 + p y^2 + q y + r =
    (y^2 - s y + k + g) (y^2 + s y + k - g) for a root m of the resolvent
    cubic m^3 + p m^2 + (p^2/4 - r) m - q^2/8, with s^2 = 2m, k = p/2 + m,
    g = q/(2s) and g^2 = k^2 - r.  The cubic is -q^2/8 <= 0 at m = 0, so its
    largest real root is >= 0 and s is real.  Where m is small (q near 0) g
    comes from k^2 - r, since q/(2s) would divide two rounded small numbers;
    at m = 0 (q = 0 and no positive root) this is the biquadratic split
    y^2 = -p/2 -+ sqrt(p^2/4 - r).  The quadratics are solved without
    cancellation.  A complex pair x +- iy with 2|y| < 1e-6 (1 + x^2) is kept
    as the double root x.  Two Newton steps on the quartic remove the
    rounding of the closed form from the other roots; a step counts where it
    lowers |f|.
    """
    h = 0.25 * a
    p = b - 6.0 * h * h
    q = c - (2.0 * b - 8.0 * h * h) * h
    r = d - (c - (b - 3.0 * h * h) * h) * h
    e1 = 0.25 * p * p - r
    m = _largest_resolvent_root(p, e1, -0.125 * q * q)
    m = np.maximum(m, 0.0)
    s = np.sqrt(2.0 * m)
    k = 0.5 * p + m
    # k^2 - r has the better digits where g^2 >= m (|p| + m), m = 0 included
    gk = np.copysign(np.sqrt(np.maximum(k * k - r, 0.0)), q)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(gk * gk >= m * (np.abs(p) + m), gk, q / (2.0 * s))
    # y^2 + B y + C, one per column; B^2 < 4C gives -B/2 +- i sqrt(4C - B^2)/2
    qb = np.stack([-s, s], axis=1)
    qc = np.stack([k + g, k - g], axis=1)
    disc = qb * qb - 4.0 * qc
    sq = np.sqrt(np.abs(disc))
    x = -0.5 * qb - h[:, None]
    pair = (disc < 0.0) & (sq < _PAIR_TOL * (1.0 + x * x))
    # real roots: -(B + sign(B) sqrt)/2, of larger modulus, then C over it,
    # in slots j and j + 2 of quadratic j
    i, j = np.nonzero(disc >= 0.0)
    big = -0.5 * (qb[i, j] + np.copysign(sq[i, j], qb[i, j]))
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.where(big != 0.0, qc[i, j] / big, 0.0)
    i, j = np.concatenate([i, i]), np.concatenate([j, j + 2])
    z = np.concatenate([big, small]) - h[i]
    a, b, c, d = a[i], b[i], c[i], d[i]
    f = (((z + a) * z + b) * z + c) * z + d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            fp = ((4.0 * z + 3.0 * a) * z + 2.0 * b) * z + c
            zn = z - f / fp
            fn = (((zn + a) * zn + b) * zn + c) * zn + d
            # a step counts where it lowers |f|: at a double root f and f'
            # are both rounding, and their ratio is no step
            better = np.abs(fn) < np.abs(f)
            z, f = np.where(better, zn, z), np.where(better, fn, f)
    t = np.full((len(h), 4), np.nan)
    t[i, j] = z
    t[:, :2][pair] = t[:, 2:][pair] = x[pair]
    return t


def _ellipse_crossings(A, B, C, D) -> tuple:
    """Zeros of g(beta) = A cos^2(beta) + B cos(beta) + C sin(beta) + D on
    rows where A is not negligible, relative to a quarter turn of each row.

    Returns (rel, lead).  rel, shape (n, 4), holds beta - phi for the row's
    quarter turn phi = k pi/2, NaN in unused slots; lead = g(phi + pi).
    With beta = phi + 2 arctan(t), g (1 + t^2)^2 is the real quartic
    g(phi + pi) t^4 + 2C' t^3 + 2(D' - A') t^2 + 2C' t + g(phi) in the
    coefficients A', B', C', D' of beta - phi.  Of the four phi the one with
    the largest |g(phi + pi)| >= scale/2 bounds every root by |t| < 7.  The
    real roots of that quartic (`_monic_quartic_roots`) are polished by one
    Newton step on g(beta), clipped to +-0.1, so every crossing stays in
    2 arctan(7) + 0.1 < pi of phi: rel lies in (-pi, pi).  The step is
    dropped where it is not small against |g'/g''|, the distance to a
    double root, so the two copies of a tangency stay where the solver put
    them.
    """
    # g(phi + pi) for phi = 0, pi/2, pi, 3pi/2; g(phi) is two turns on
    leads = np.stack([A - B + D, D - C, A + B + D, D + C])
    k = np.argmax(np.abs(leads), axis=0)
    n = np.arange(len(A))
    lead = leads[k, n]
    c13 = 2.0 * np.choose(k, (C, -B, -C, B)) / lead
    c2 = 2.0 * np.where(k % 2 == 0, D - A, D + A + A) / lead
    t = _monic_quartic_roots(c13, c2, c13, leads[(k + 2) % 4, n] / lead)
    live = np.nonzero(~np.isnan(t))
    rows = live[0]
    half = 2.0 * np.arctan(t[live])
    # one clipped Newton step on g(beta) removes the closed form's
    # rounding; further steps move beta by at most ~2e-12 relative.  The
    # step counts where |g'' step| < |g'|/2: near a double root (a
    # tangency) g and g' are both rounding, and their ratio would push the
    # two copies apart into an arc that the alternation counts
    b = 0.5 * np.pi * k[rows] + half
    An, Bn, Cn, Dn = A[rows], B[rows], C[rows], D[rows]
    cb, sb = np.cos(b), np.sin(b)
    gb = (An * cb + Bn) * cb + Cn * sb + Dn
    gp = Cn * cb - (2.0 * An * cb + Bn) * sb
    gpp = (2.0 * An * cb + Bn) * cb + Cn * sb - 2.0 * An * sb * sb  # -g''
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(np.abs(gpp * gb) < 0.5 * gp * gp, gb / gp, 0.0)
    rel = np.full(t.shape, np.nan)
    rel[live] = half - np.clip(step, -0.1, 0.1)
    return rel, lead


def _alternate_arcs(rel: np.ndarray) -> np.ndarray:
    """S = (b1 - b0) + (b3 - b2) of each row's crossings b0 <= ... <= b3,
    without a sort.

    Quadratic j of the quartic fills slots j and j + 2, so the row's
    crossings are the ends of two intervals I0 and I1, each real or NaN as
    a pair, and S = |I0| + |I1| - 2 |I0 & I1|.  With both pairs real, b0
    and b3 are the least low end and the greatest high end, and b1 <= b2
    are the greater low end and the lesser high end, in order; S is summed
    from these exactly as from the sorted crossings, so its bytes are the
    same.  With one pair missing S is that pair's length plus 0.0, with
    none 0.0, as the sorted sum counts a missing pair.
    """
    l0, h0 = np.fmin(rel[:, 0], rel[:, 2]), np.fmax(rel[:, 0], rel[:, 2])
    l1, h1 = np.fmin(rel[:, 1], rel[:, 3]), np.fmax(rel[:, 1], rel[:, 3])
    # NaN unless both pairs are real
    m0, m1 = np.maximum(l0, l1), np.minimum(h0, h1)
    both = ((np.minimum(m0, m1) - np.minimum(l0, l1))
            + (np.maximum(h0, h1) - np.maximum(m0, m1)))
    # fmax turns the NaN of a missing pair into 0
    one = np.fmax(h0 - l0, 0.0) + np.fmax(h1 - l1, 0.0)
    return np.where(np.isnan(both), one, both)


def _ellipse_arc_measures(el: EllipseIndicator, cx, cy,
                          radii: np.ndarray) -> np.ndarray:
    """Arc measure inside the ellipse, by the alternation of its crossings.

    In the ellipse frame (offset v, semi-axes a, b) the point at angle beta
    on the circle lies inside exactly where
    g(beta) = A cos^2(beta) + B cos(beta) + C sin(beta) + D < 0; the measure
    does not depend on the rotation.  On a quartic row (|A| > 1e-12 scale)
    the crossings relative to the row's quarter turn phi
    (`_ellipse_crossings`) lie in the window (-pi, pi), over which
    beta - phi = 2 arctan(t) rises with t.  The quartic's real roots come in
    pairs from its two quadratics, so a row crosses 0, 2 or 4 times, a
    double root (a tangency) counting as two equal crossings.  In order,
    b0 <= b1 <= b2 <= b3, g changes sign at each crossing and keeps it
    across a double root, so the arcs [b0, b1] and [b2, b3] have the sign
    opposite to that of the arc through phi + pi, the one at t = +-inf.
    With S = (b1 - b0) + (b3 - b2), a missing pair counting 0
    (`_alternate_arcs`, which needs no sort), the measure is 2 pi - S where
    lead = g(phi + pi) < 0 and S otherwise;
    |lead| >= scale/2, so lead is never 0.  On the other rows g is
    amp cos(beta - gamma) + D, amp = |(B, C)|, inside on an arc of
    2 pi - 2 arccos(-D/amp) where |D| <= amp, and everywhere or nowhere by
    the sign of g(0) = A + B + D otherwise (r = 0 and concentric circles
    have amp = 0).
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
    scale = np.maximum(np.maximum(np.abs(A), np.abs(B)),
                       np.maximum(np.abs(C), np.abs(D)))
    quartic = np.abs(A) > 1e-12 * scale
    measure = np.empty(len(r))

    if np.any(quartic):
        idx = np.flatnonzero(quartic)
        rel, lead = _ellipse_crossings(A[idx], B[idx], C[idx], D[idx])
        S = _alternate_arcs(rel)
        measure[idx] = np.where(lead < 0.0, TWO_PI - S, S)

    if not np.all(quartic):
        idx = np.flatnonzero(~quartic)
        Bl, Cl, Dl = B[idx], C[idx], D[idx]
        amp = np.hypot(Bl, Cl)
        ratio = np.where(amp > 0, -Dl / np.where(amp > 0, amp, 1.0), 2.0)
        measure[idx] = np.where(
            np.abs(ratio) <= 1.0,
            TWO_PI - 2.0 * np.arccos(np.clip(ratio, -1.0, 1.0)),
            TWO_PI * (A[idx] + Bl + Dl < 0.0))
    return measure


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
