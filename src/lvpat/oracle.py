"""Independent slow references for the forward wave simulation and the
back-projection.

The forward reference is deliberately built from different ingredients than
the fast path in `forward`: circular means are exact arc measures obtained
from circle/boundary intersection angles, the radial integral is split at
the radii where the arc measure loses smoothness and uses Gauss-Legendre
plus a Gauss-Jacobi rule for the inverse-square-root endpoint, and the time
derivative is a fine central difference.  Use for verification only; this is
orders of magnitude slower than `forward.wave_trace`.

`backproject_point` evaluates the back-projection at a single point with the
sigma quadrature of the inner Abel integral taken directly, node by node;
`inversion.reconstruct` applies the same quadrature as one cached matrix and
interpolates in radius.

`phantom_mean_table` is the exception: not independent, but the whole-sum
mean table, built from `arcmeans.exact_mean_table` term by term, that the
forward's per-term windows are checked against.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .arcmeans import exact_mean_table
from .errors import DataMismatchError, ParameterError
from .forward import Part, WaveData
from .geometry import BoundaryGeometry
from .inversion import kappa_even
from .phantoms import (EllipseIndicator, Phantom, SquareIndicator, WeightedSum,
                       ellipse_boundary_points, eval_phantom)

TWO_PI = 2.0 * np.pi


def _square_crossing_angles(sq: SquareIndicator, center, r: float) -> np.ndarray:
    """Angles where the circle of radius r crosses the box boundary."""
    x0, y0 = center
    angles = []
    for x_edge in (sq.x_lo, sq.x_hi):
        c = (x_edge - x0) / r
        if -1.0 <= c <= 1.0:
            for psi in (np.arccos(c), -np.arccos(c)):
                y = y0 + r * np.sin(psi)
                if sq.y_lo <= y <= sq.y_hi:
                    angles.append(psi % TWO_PI)
    for y_edge in (sq.y_lo, sq.y_hi):
        s = (y_edge - y0) / r
        if -1.0 <= s <= 1.0:
            for psi in (np.arcsin(s), np.pi - np.arcsin(s)):
                x = x0 + r * np.cos(psi)
                if sq.x_lo <= x <= sq.x_hi:
                    angles.append(psi % TWO_PI)
    return np.array(sorted(set(angles)))


def _ellipse_crossing_angles(el: EllipseIndicator, center, r: float,
                             grid: int = 4096) -> np.ndarray:
    """Crossing angles from sign changes of the ellipse quadratic form.

    scipy.optimize is imported here, its only use, so that importing lvpat
    does not load it."""
    from scipy.optimize import brentq

    ca, sa = np.cos(el.rotation), np.sin(el.rotation)
    dx, dy = center[0] - el.center[0], center[1] - el.center[1]
    v1 = ca * dx + sa * dy
    v2 = -sa * dx + ca * dy

    def form(beta):
        return (((v1 + r * np.cos(beta)) / el.semi_a) ** 2
                + ((v2 + r * np.sin(beta)) / el.semi_b) ** 2 - 1.0)

    beta = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    h = form(beta)
    sign_change = np.flatnonzero(np.signbit(h) != np.signbit(np.roll(h, -1)))
    angles = []
    for k in sign_change:
        a, b = beta[k], beta[k] + (beta[1] - beta[0])
        root = brentq(form, a, b, xtol=1e-14, rtol=8.9e-16)
        angles.append((root + el.rotation) % TWO_PI)
    return np.array(sorted(angles))


def _indicator_arc_measure(p, center, r: float) -> float:
    """Angular measure of the circle arc lying inside one indicator support."""
    if isinstance(p, SquareIndicator):
        angles = _square_crossing_angles(p, center, r)
    elif isinstance(p, EllipseIndicator):
        angles = _ellipse_crossing_angles(p, center, r)
    else:
        raise ParameterError("indicator term expected")
    if len(angles) == 0:
        # fully inside or fully outside: probe one circle point
        probe = np.array([center[0] + r, center[1]])
        return TWO_PI if eval_phantom(p, probe) > 0 else 0.0
    bounds = np.concatenate([angles, [angles[0] + TWO_PI]])
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    pts = np.stack([center[0] + r * np.cos(mids), center[1] + r * np.sin(mids)], axis=-1)
    inside = eval_phantom(p, pts) > 0
    return float(np.sum(np.diff(bounds)[inside]))


def exact_circular_mean(p: Phantom, center, r: float) -> float:
    """Circular mean from exact arc measures (no angular sampling)."""
    c = np.asarray(center, dtype=float)
    if r == 0.0:
        return float(eval_phantom(p, c))
    if isinstance(p, WeightedSum):
        return sum(coef * exact_circular_mean(q, c, r) for coef, q in p.terms)
    return _indicator_arc_measure(p, c, r) / TWO_PI


def phantom_mean_table(p: Phantom, center, radii: np.ndarray) -> np.ndarray:
    """`arcmeans.exact_mean_table` extended to weighted sums, term by term.

    The forward never evaluates a sum as a whole: it gives each term its own
    radius window.  This is the whole-phantom table the tests compare those
    windows against.
    """
    if not isinstance(p, WeightedSum):
        return exact_mean_table(p, center, radii)
    out = np.zeros(np.shape(radii))
    for coef, q in p.terms:
        if coef != 0.0:
            out += coef * exact_mean_table(q, center, radii)
    return out


def _term_critical_radii(p, x) -> list:
    """Radii where the arc measure about x can lose smoothness."""
    if isinstance(p, SquareIndicator):
        out = []
        for cx in (p.x_lo, p.x_hi):
            for cy in (p.y_lo, p.y_hi):
                out.append(float(np.hypot(cx - x[0], cy - x[1])))
        # perpendicular feet onto the four edge lines, when inside the segment
        if p.x_lo <= x[0] <= p.x_hi:
            out += [abs(x[1] - p.y_lo), abs(x[1] - p.y_hi)]
        if p.y_lo <= x[1] <= p.y_hi:
            out += [abs(x[0] - p.x_lo), abs(x[0] - p.x_hi)]
        return out
    if isinstance(p, EllipseIndicator):
        d = np.hypot(*(ellipse_boundary_points(p, 8192) - x).T)
        grad = np.roll(d, -1) - d
        crit = np.flatnonzero(np.signbit(grad) != np.signbit(np.roll(grad, 1)))
        return [float(d[k]) for k in crit]
    if isinstance(p, WeightedSum):
        out = []
        for coef, q in p.terms:
            if coef != 0.0:
                out += _term_critical_radii(q, x)
        return out
    raise ParameterError(f"unknown phantom type {type(p)!r}")


_GL_NODES, _GL_WEIGHTS = roots_legendre(24)
_GJ_NODES, _GJ_WEIGHTS = roots_jacobi(48, -0.5, 0.0)


def _disc_potential(p: Phantom, x, t: float) -> float:
    """int_0^t m(r) r / sqrt(t^2 - r^2) dr with m the exact circular mean."""
    kinks = sorted({r for r in _term_critical_radii(p, x) if 1e-12 < r < t - 1e-12})
    breaks = [0.0] + kinks + [t]

    total = 0.0
    # all pieces except the last: smooth integrand, composite Gauss-Legendre
    for a, b in zip(breaks[:-2], breaks[1:-1]):
        n_panels = max(2, int(np.ceil((b - a) / 0.05)))
        edges = np.linspace(a, b, n_panels + 1)
        for pa, pb in zip(edges[:-1], edges[1:]):
            r_nodes = 0.5 * (pa + pb) + 0.5 * (pb - pa) * _GL_NODES
            vals = np.array([exact_circular_mean(p, x, r) for r in r_nodes])
            integ = vals * r_nodes / np.sqrt(t * t - r_nodes * r_nodes)
            total += 0.5 * (pb - pa) * float(np.dot(_GL_WEIGHTS, integ))
    # last piece carries the (t - r)^(-1/2) endpoint: Gauss-Jacobi
    a = breaks[-2]
    r_nodes = a + (t - a) * 0.5 * (_GJ_NODES + 1.0)
    vals = np.array([exact_circular_mean(p, x, r) for r in r_nodes])
    g = vals * r_nodes / np.sqrt(t + r_nodes)
    total += np.sqrt(0.5 * (t - a)) * float(np.dot(_GJ_WEIGHTS, g))
    return total


def oracle_wave_field(p: Phantom, x, t: float, diff_step: float = 0.01 / 16) -> float:
    """Reference value of the wave solution at a single space-time point."""
    if t <= 0:
        raise ParameterError("t must be positive")
    x = np.asarray(x, dtype=float)
    if t <= diff_step:
        diff_step = 0.5 * t
    up = _disc_potential(p, x, t + diff_step)
    dn = _disc_potential(p, x, t - diff_step)
    return (up - dn) / (2.0 * diff_step)


def _abel_inner(q_row: np.ndarray, times: np.ndarray, dt: float, t_max: float,
                radii: np.ndarray) -> np.ndarray:
    """int_R^t_max q(t)/sqrt(t^2-R^2) dt for every R in radii.

    Uses sigma = sqrt(t^2 - R^2) so the integrand q/sqrt(R^2+sigma^2) is
    smooth at sigma = 0; composite trapezoid with step ~dt.
    """
    out = np.zeros_like(radii)
    active = radii < t_max
    if not np.any(active):
        return out
    r = radii[active]
    n_sig = int(np.ceil(np.sqrt(t_max * t_max - r.min() ** 2) / dt)) + 1
    sig_max = np.sqrt(t_max * t_max - r * r)
    sig = np.linspace(0.0, 1.0, n_sig + 1)[None, :] * sig_max[:, None]
    t = np.sqrt(r[:, None] ** 2 + sig * sig)
    vals = np.interp(t, times, q_row) / t
    h = sig_max / n_sig
    out[active] = h * (np.sum(vals[:, 1:-1], axis=1) + 0.5 * (vals[:, 0] + vals[:, -1]))
    return out


def backproject_point(q: WaveData, geom: BoundaryGeometry, x0) -> float:
    """Back-projection value at a single strictly interior point.

    q is filtered full-boundary data (`inversion.ubp_filter`).
    """
    x0 = np.asarray(x0, dtype=float)
    if not geom.domain.contains(x0):
        raise ParameterError("reconstruction point must lie strictly inside the domain")
    if q.part is not Part.FULL:
        raise DataMismatchError("back-projection requires full-boundary data")
    pos = geom.positions[q.node_idx]
    radii = np.hypot(x0[0] - pos[:, 0], x0[1] - pos[:, 1])
    total = 0.0
    for i in range(len(q.node_idx)):
        inner = _abel_inner(q.samples[i], q.times, q.dt, q.t_max,
                            np.array([radii[i]]))[0]
        dot = (geom.normals[q.node_idx[i]] * (x0 - pos[i])).sum()
        total += geom.ds * dot * inner
    return kappa_even(2) * total
