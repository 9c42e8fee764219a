"""Elliptical domain, boundary discretization, and observed/unobserved boundary split.

The boundary of the ellipse (a1*cos(theta), a2*sin(theta)) is discretized with
nodes equidistant in arc length, which has a closed form in the incomplete
elliptic integral of the second kind; node angles are found by Newton steps
over all nodes at once.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipeinc

from ._util import json_object, number, required
from .errors import ParameterError

TWO_PI = 2.0 * np.pi

# Newton on the arc length stops after a step below this many radians: the
# error left is about its square, and a step's rounding floor (about
# eps * perimeter / min(a1, a2)) stays below it up to aspect ratios near 1e5.
_THETA_TOL = 1e-10


def _positive(x) -> bool:
    """x is a finite number above 0 (NaN fails both tests)."""
    return bool(x > 0 and np.isfinite(x))


@dataclass(frozen=True)
class EllipseDomain:
    """Ellipse centered at the origin with semi-axes a1 (x) and a2 (y)."""

    a1: float
    a2: float

    def __post_init__(self):
        if not (_positive(self.a1) and _positive(self.a2)):
            raise ParameterError("semi-axes must be finite and positive")

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.stack([self.a1 * np.cos(theta), self.a2 * np.sin(theta)], axis=-1)

    def boundary_speed(self, theta):
        """|d/dtheta (a1 cos, a2 sin)|, the arc-length density."""
        theta = np.asarray(theta, dtype=float)
        return np.sqrt((self.a1 * np.sin(theta)) ** 2 + (self.a2 * np.cos(theta)) ** 2)

    def outward_normal(self, theta):
        theta = np.asarray(theta, dtype=float)
        raw = np.stack([np.cos(theta) / self.a1, np.sin(theta) / self.a2], axis=-1)
        return raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    def arc_length(self, theta):
        """Arc length from theta = -pi to theta (the perimeter at pi): the
        speed is a1 sqrt(1 - m sin^2 phi), phi = theta + pi/2, m = 1 -
        (a2/a1)^2, integrated by `ellipeinc` (which takes m < 0 as well)."""
        m = 1.0 - (self.a2 / self.a1) ** 2
        phi = np.asarray(theta, dtype=float) + 0.5 * np.pi
        return self.a1 * (ellipeinc(phi, m) - ellipeinc(-0.5 * np.pi, m))

    def contains(self, points):
        """Strict interior test, vectorized over trailing point axis."""
        pts = np.asarray(points, dtype=float)
        q = (pts[..., 0] / self.a1) ** 2 + (pts[..., 1] / self.a2) ** 2
        return q < 1.0


@dataclass(frozen=True)
class BoundaryGeometry:
    """Arc-length-equidistant boundary nodes plus the shared time grid.

    positions/normals are (N, 2), thetas (N,); ds = perimeter/N is every
    node's midpoint-rule arc weight.  Samples of boundary data live on times
    k*dt for k = 1..n_time, with t_max = n_time*dt.
    """

    domain: EllipseDomain
    thetas: np.ndarray
    positions: np.ndarray
    normals: np.ndarray
    ds: float
    spacing_target: float
    dt: float
    n_time: int

    @property
    def n_nodes(self) -> int:
        return self.thetas.shape[0]

    @property
    def t_max(self) -> float:
        return self.n_time * self.dt

    @property
    def times(self) -> np.ndarray:
        """Sample times k*dt, k = 1..n_time."""
        return self.dt * np.arange(1, self.n_time + 1)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(struct.pack(
            "<ddddq", self.domain.a1, self.domain.a2,
            self.spacing_target, self.dt, self.n_time,
        ))
        h.update(np.ascontiguousarray(self.thetas).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class BoundarySplit:
    """Partition of boundary nodes into observed (gamma1) and missing (gamma2) parts.

    gamma2 is the set of nodes whose angle lies in [theta_lo, theta_hi) after
    wrapping to [-pi, pi).  The detection region is the convex polygon of the
    gamma1 nodes, whose positions in node order are its counter-clockwise
    vertices.
    """

    geometry: BoundaryGeometry
    theta_lo: float
    theta_hi: float
    gamma1_idx: np.ndarray
    gamma2_idx: np.ndarray

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.geometry.fingerprint().encode())
        h.update(struct.pack("<dd", self.theta_lo, self.theta_hi))
        return h.hexdigest()[:16]


def build_boundary(domain: EllipseDomain, spacing_target: float, dt: float,
                   t_max: float) -> BoundaryGeometry:
    """Discretize the ellipse boundary with nodes equidistant in arc length.

    The node count is round(perimeter / spacing_target); every node carries
    the uniform weight ds = perimeter / count, and node k sits at arc length
    k*ds from theta = -pi (1-4 Newton steps from angles interpolated on a
    uniform grid of 4 per node).  The time grid has n_time = round(t_max / dt)
    samples at k*dt, k >= 1.
    """
    if not (_positive(spacing_target) and _positive(dt) and _positive(t_max)):
        raise ParameterError("spacing_target, dt and t_max must be finite and "
                             "positive")
    if t_max < dt:
        raise ParameterError("t_max must be at least dt")

    perimeter = float(domain.arc_length(np.pi))
    n_nodes = int(round(perimeter / spacing_target))
    if n_nodes < 3:
        raise ParameterError("spacing_target too coarse: fewer than 3 nodes")
    ds = perimeter / n_nodes

    targets = ds * np.arange(n_nodes)
    grid = np.linspace(-np.pi, np.pi, 4 * n_nodes + 1)
    thetas = np.interp(targets, domain.arc_length(grid), grid)
    for _ in range(20):
        step = (domain.arc_length(thetas) - targets) / domain.boundary_speed(thetas)
        thetas -= step
        if np.max(np.abs(step)) <= _THETA_TOL:
            break
    else:
        raise RuntimeError("arc-length Newton iteration did not converge")

    n_time = int(round(t_max / dt))
    return BoundaryGeometry(
        domain=domain,
        thetas=thetas,
        positions=domain.boundary_point(thetas),
        normals=domain.outward_normal(thetas),
        ds=ds,
        spacing_target=spacing_target,
        dt=dt,
        n_time=n_time,
    )


def split_boundary(geom: BoundaryGeometry, theta_interval) -> BoundarySplit:
    """Split boundary nodes into gamma1 (observed) and gamma2 (missing).

    theta_interval is a half-open [lo, hi) in radians; its length must lie
    strictly between 0 and 2*pi.  Membership is evaluated after wrapping
    angles to [-pi, pi).
    """
    theta_lo, theta_hi = float(theta_interval[0]), float(theta_interval[1])
    length = theta_hi - theta_lo
    if not 0.0 < length < TWO_PI:
        raise ParameterError("interval length must be in (0, 2*pi)")

    offset = (geom.thetas - theta_lo) % TWO_PI
    in_gamma2 = offset < length
    gamma2_idx = np.flatnonzero(in_gamma2)
    gamma1_idx = np.flatnonzero(~in_gamma2)
    if len(gamma1_idx) < 3:
        raise ParameterError("gamma1 has fewer than 3 nodes; detection "
                             "region undefined")

    return BoundarySplit(
        geometry=geom,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        gamma1_idx=gamma1_idx,
        gamma2_idx=gamma2_idx,
    )


# the keys of a geometry object, in a config and in a model's meta
GEOMETRY_KEYS = ("a1", "a2", "spacing", "dt", "t_max", "gamma2_theta_lo",
                 "gamma2_theta_hi")


def geometry_object(split: BoundarySplit) -> dict:
    """The geometry object that `read_geometry` builds split back from."""
    geom = split.geometry
    return dict(zip(GEOMETRY_KEYS, (
        geom.domain.a1, geom.domain.a2, geom.spacing_target, geom.dt,
        geom.t_max, split.theta_lo, split.theta_hi)))


def read_geometry(obj, what: str, error: type = ParameterError) -> tuple:
    """(geometry, split) built from obj, a geometry object read from outside
    the program: a JSON object of GEOMETRY_KEYS, each a number.  Any key or
    value that is missing, unknown or rejected raises `error`, naming `what`."""
    g = json_object(obj, what, error, keys=GEOMETRY_KEYS)
    a1, a2, spacing, dt, t_max, theta_lo, theta_hi = (
        number(required(g, key, what, error), f"{what}.{key}", error)
        for key in GEOMETRY_KEYS)
    try:
        geom = build_boundary(EllipseDomain(a1, a2), spacing, dt, t_max)
        return geom, split_boundary(geom, (theta_lo, theta_hi))
    except ParameterError as exc:
        raise error(f"{what}: {exc}") from None


def detection_region_contains(split: BoundarySplit, points):
    """True where a point lies strictly inside the convex polygon of the
    gamma1 nodes, left of every edge in their counter-clockwise node order
    (gamma2 may wrap across theta = +-pi); points is (2,) or (..., 2)."""
    p = np.asarray(points, dtype=float)
    v = split.geometry.positions[split.gamma1_idx]
    edges = np.roll(v, -1, axis=0) - v
    rel = p[..., None, :] - v
    cross = edges[:, 0] * rel[..., 1] - edges[:, 1] * rel[..., 0]
    return np.all(cross > 0.0, axis=-1)
