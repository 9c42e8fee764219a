"""Initial-pressure phantoms: indicator functions and their rasterization.

Phantoms are symbolic and evaluated pointwise; boxes are half-open
([lo, hi) on both axes) so that a tiling partition covers every point
exactly once.  The ellipse indicator uses the strict interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from ._util import json_object, number, numbers
from .errors import ParameterError
from .geometry import EllipseDomain


@dataclass(frozen=True)
class SquareIndicator:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        box = tuple(float(v) for v in self.bounding_box())
        if not all(map(math.isfinite, box)):
            raise ParameterError(f"box {box} needs finite edges")
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ParameterError(f"box {box} needs x_lo < x_hi and y_lo < y_hi")

    def evaluate(self, points):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        inside = (x >= self.x_lo) & (x < self.x_hi) & (y >= self.y_lo) & (y < self.y_hi)
        return inside.astype(float)

    def bounding_box(self):
        return (self.x_lo, self.x_hi, self.y_lo, self.y_hi)


@dataclass(frozen=True)
class EllipseIndicator:
    center: tuple
    semi_a: float
    semi_b: float
    rotation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        values = (*self.center, self.semi_a, self.semi_b, self.rotation)
        if not all(map(math.isfinite, values)):
            raise ParameterError(f"ellipse center, semi-axes and rotation "
                                 f"must be finite, got {values}")
        if self.semi_a <= 0 or self.semi_b <= 0:
            raise ParameterError("ellipse semi-axes must be positive")

    def evaluate(self, points):
        pts = np.asarray(points, dtype=float)
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        dx = pts[..., 0] - self.center[0]
        dy = pts[..., 1] - self.center[1]
        # rotate by -rotation into the axis-aligned frame
        u = c * dx + s * dy
        v = -s * dx + c * dy
        q = (u / self.semi_a) ** 2 + (v / self.semi_b) ** 2
        return (q < 1.0).astype(float)

    def bounding_box(self):
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        ex = np.hypot(self.semi_a * c, self.semi_b * s)
        ey = np.hypot(self.semi_a * s, self.semi_b * c)
        x0, y0 = self.center
        return (x0 - ex, x0 + ex, y0 - ey, y0 + ey)


@dataclass(frozen=True)
class WeightedSum:
    """Flat linear combination of indicator phantoms."""

    terms: tuple  # of (coefficient, SquareIndicator | EllipseIndicator)

    def __post_init__(self):
        flat = []
        for coef, p in self.terms:
            if isinstance(p, WeightedSum):
                flat.extend((coef * c2, p2) for c2, p2 in p.terms)
            else:
                flat.append((float(coef), p))
        if not all(math.isfinite(coef) for coef, _ in flat):
            raise ParameterError(f"sum coefficients must be finite, got "
                                 f"{[coef for coef, _ in flat]}")
        object.__setattr__(self, "terms", tuple(flat))

    def evaluate(self, points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1], dtype=float)
        for coef, p in self.terms:
            out += coef * p.evaluate(pts)
        return out

    def bounding_box(self):
        boxes = [p.bounding_box() for coef, p in self.terms if coef != 0.0]
        if not boxes:
            return (0.0, 0.0, 0.0, 0.0)
        b = np.array(boxes)
        return (b[:, 0].min(), b[:, 1].max(), b[:, 2].min(), b[:, 3].max())


Phantom = Union[SquareIndicator, EllipseIndicator, WeightedSum]


def eval_phantom(p: Phantom, points) -> np.ndarray:
    """Evaluate a phantom at points of shape (..., 2); returns shape (...)."""
    return p.evaluate(points)


def ellipse_boundary_points(el: EllipseIndicator, n: int) -> np.ndarray:
    """The boundary points at parameters psi = 2*pi*k/n, k = 0..n-1, as (n, 2)."""
    psi = np.linspace(0, 2 * np.pi, n, endpoint=False)
    c, s = np.cos(el.rotation), np.sin(el.rotation)
    bx = el.center[0] + el.semi_a * np.cos(psi) * c - el.semi_b * np.sin(psi) * s
    by = el.center[1] + el.semi_a * np.cos(psi) * s + el.semi_b * np.sin(psi) * c
    return np.stack([bx, by], axis=-1)


_EXTENT_SAMPLES = 256


def radial_extent(p: Phantom, points: np.ndarray):
    """(lo, hi) per row of points (m, 2): the support lies in the annulus
    lo <= |y - x| <= hi about each point x.

    Boxes are exact: lo is the distance to the box (0 inside), hi the
    distance to its farthest corner.  Ellipses use the nearest and farthest
    of 256 parametric boundary samples, widened by max(semi_a, semi_b)*pi/256:
    consecutive samples lie at most max(semi_a, semi_b)*2*pi/256 apart along
    the boundary, so every boundary point is that close to a sample.  lo is
    0 inside.  Any other phantom, a weighted sum included, raises
    ParameterError: the forward passes the terms of a sum one at a time.
    """
    x, y = points[:, 0], points[:, 1]
    if isinstance(p, SquareIndicator):
        near_x = np.maximum(np.maximum(p.x_lo - x, x - p.x_hi), 0.0)
        near_y = np.maximum(np.maximum(p.y_lo - y, y - p.y_hi), 0.0)
        far_x = np.maximum(x - p.x_lo, p.x_hi - x)
        far_y = np.maximum(y - p.y_lo, p.y_hi - y)
        return np.hypot(near_x, near_y), np.hypot(far_x, far_y)
    if isinstance(p, EllipseIndicator):
        bx, by = np.array(ellipse_boundary_points(p, _EXTENT_SAMPLES).T)
        near2, far2 = np.empty(len(points)), np.empty(len(points))
        # squared distances over blocks of as many points as samples, so
        # that each temporary stays at 256 x 256 entries
        for lo in range(0, len(points), _EXTENT_SAMPLES):
            blk = slice(lo, lo + _EXTENT_SAMPLES)
            d2 = np.square(x[blk, None] - bx)
            d2 += np.square(y[blk, None] - by)
            near2[blk], far2[blk] = d2.min(axis=1), d2.max(axis=1)
        slack = max(p.semi_a, p.semi_b) * np.pi / _EXTENT_SAMPLES
        lo = np.where(p.evaluate(points) > 0.0, 0.0,
                      np.maximum(np.sqrt(near2) - slack, 0.0))
        return lo, np.sqrt(far2) + slack
    raise ParameterError(f"no radial extent for phantom type {type(p)!r}")


def distance_to_support(p: Phantom, point) -> float:
    """Euclidean distance from point to the phantom support (0 if inside).

    Exact for boxes; computed on a dense boundary sampling plus local
    refinement for ellipses; the minimum over nonzero terms for sums.
    """
    pt = np.asarray(point, dtype=float)
    if isinstance(p, SquareIndicator):
        dx = max(p.x_lo - pt[0], 0.0, pt[0] - p.x_hi)
        dy = max(p.y_lo - pt[1], 0.0, pt[1] - p.y_hi)
        return float(np.hypot(dx, dy))
    if isinstance(p, EllipseIndicator):
        if p.evaluate(pt) > 0:
            return 0.0
        psi = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
        c, s = np.cos(p.rotation), np.sin(p.rotation)
        bx = p.center[0] + p.semi_a * np.cos(psi) * c - p.semi_b * np.sin(psi) * s
        by = p.center[1] + p.semi_a * np.cos(psi) * s + p.semi_b * np.sin(psi) * c
        d = np.hypot(bx - pt[0], by - pt[1])
        # refine around the discrete minimum with a parabolic step
        k = int(np.argmin(d))
        dk = d[(k - 1) % len(d)], d[k], d[(k + 1) % len(d)]
        denom = dk[0] - 2 * dk[1] + dk[2]
        if denom > 0:
            shift = 0.5 * (dk[0] - dk[2]) / denom
            dpsi = psi[1] - psi[0]
            p_ref = psi[k] + shift * dpsi
            bxr = p.center[0] + p.semi_a * np.cos(p_ref) * c - p.semi_b * np.sin(p_ref) * s
            byr = p.center[1] + p.semi_a * np.cos(p_ref) * s + p.semi_b * np.sin(p_ref) * c
            return float(min(dk[1], np.hypot(bxr - pt[0], byr - pt[1])))
        return float(dk[1])
    if isinstance(p, WeightedSum):
        dists = [distance_to_support(q, pt) for coef, q in p.terms if coef != 0.0]
        return float(min(dists)) if dists else np.inf
    raise ParameterError(f"unknown phantom type {type(p)!r}")


def sup_norm(p: Phantom) -> float:
    """Sup norm of the phantom; exact when the summed supports are disjoint."""
    if isinstance(p, (SquareIndicator, EllipseIndicator)):
        return 1.0
    coefs = np.array([c for c, _ in p.terms])
    if coefs.size == 0:
        return 0.0
    # disjoint-support assumption; conservative upper bound otherwise
    return float(np.max(np.abs(coefs)))


def training_partition(box, n_w: int, n_h: int):
    """Tile a half-open box into n_w*n_h half-open squares (indicator phantoms).

    Index order follows column-major numbering: start at the bottom-left cell,
    go bottom to top within a column, then move one column to the right.
    Adjacent cells share identical edge coordinates, so every point of the box
    activates exactly one indicator.
    """
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in box)
    if n_w < 1 or n_h < 1:
        raise ParameterError("partition counts must be >= 1")
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ParameterError(f"degenerate box {(x_lo, x_hi, y_lo, y_hi)}: "
                             "needs x_lo < x_hi and y_lo < y_hi")
    x_edges = x_lo + (x_hi - x_lo) * np.arange(n_w + 1) / n_w
    y_edges = y_lo + (y_hi - y_lo) * np.arange(n_h + 1) / n_h
    x_edges[0], x_edges[-1] = x_lo, x_hi
    y_edges[0], y_edges[-1] = y_lo, y_hi
    cells = []
    for col in range(n_w):
        for row in range(n_h):
            cells.append(SquareIndicator(
                x_lo=x_edges[col], x_hi=x_edges[col + 1],
                y_lo=y_edges[row], y_hi=y_edges[row + 1],
            ))
    return cells


@dataclass(frozen=True)
class GridSpec:
    """Cartesian evaluation grid: nodes origin + (i*h, j*h), 0 <= i < nx, 0 <= j < ny."""

    origin: tuple
    h: float
    nx: int
    ny: int
    domain: EllipseDomain | None = None

    def __post_init__(self):
        origin = (float(self.origin[0]), float(self.origin[1]))
        if not (self.h > 0 and np.isfinite(self.h)) or \
           not np.all(np.isfinite(origin)) or self.nx < 1 or self.ny < 1:
            raise ParameterError("invalid grid spec: h must be finite and "
                                 "positive, the origin finite, nx, ny >= 1")
        object.__setattr__(self, "origin", origin)

    def points(self) -> np.ndarray:
        """All grid nodes as a read-only (nx, ny, 2) array, computed once."""
        return self._points

    def mask(self) -> np.ndarray:
        """Read-only (nx, ny) bool array of the nodes inside the domain,
        computed once."""
        return self._mask

    # cached in the instance dict: hash and equality stay on the fields
    @cached_property
    def _points(self) -> np.ndarray:
        x = self.origin[0] + self.h * np.arange(self.nx)
        y = self.origin[1] + self.h * np.arange(self.ny)
        out = np.empty((self.nx, self.ny, 2))
        out[..., 0] = x[:, None]
        out[..., 1] = y[None, :]
        out.flags.writeable = False
        return out

    @cached_property
    def _mask(self) -> np.ndarray:
        if self.domain is None:
            out = np.ones((self.nx, self.ny), dtype=bool)
        else:
            out = self.domain.contains(self._points)
        out.flags.writeable = False
        return out


@dataclass
class ImageField:
    """Scalar field sampled on a GridSpec; masked-out cells carry no meaning."""

    origin: tuple
    h: float
    values: np.ndarray
    domain_mask: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.domain_mask.shape:
            raise ParameterError("values and mask shapes differ")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    def same_grid(self, other: "ImageField") -> bool:
        return (self.values.shape == other.values.shape
                and self.origin == other.origin
                and self.h == other.h
                and bool(np.array_equal(self.domain_mask, other.domain_mask)))


def rasterize(p: Phantom, grid: GridSpec) -> ImageField:
    """Pointwise phantom evaluation on the grid nodes."""
    pts = grid.points()
    return ImageField(
        origin=grid.origin,
        h=grid.h,
        values=eval_phantom(p, pts),
        domain_mask=grid.mask(),
    )


def phantom_to_dict(p: Phantom) -> dict:
    if isinstance(p, SquareIndicator):
        return {"type": "square", "x_lo": p.x_lo, "x_hi": p.x_hi,
                "y_lo": p.y_lo, "y_hi": p.y_hi}
    if isinstance(p, EllipseIndicator):
        return {"type": "ellipse", "center": list(p.center), "semi_a": p.semi_a,
                "semi_b": p.semi_b, "rotation": p.rotation}
    if isinstance(p, WeightedSum):
        return {"type": "sum",
                "terms": [[c, phantom_to_dict(q)] for c, q in p.terms]}
    raise ParameterError(f"unknown phantom type {type(p)!r}")


# the keys of each phantom spec type, as `phantom_to_dict` writes them
_SPEC_KEYS = {"square": ("type", "x_lo", "x_hi", "y_lo", "y_hi"),
              "ellipse": ("type", "center", "semi_a", "semi_b", "rotation"),
              "sum": ("type", "terms")}


def phantom_from_dict(spec: dict) -> Phantom:
    """The phantom a spec (as written by `phantom_to_dict`) describes; a
    spec that is not an object, with a key its type does not have,
    non-number values, a center that is not two numbers or terms that are
    not [coefficient, spec] pairs raises ParameterError."""
    kind = json_object(spec, "phantom spec").get("type")
    if isinstance(kind, str) and kind in _SPEC_KEYS:
        json_object(spec, f"{kind} spec", keys=_SPEC_KEYS[kind])
    if kind == "square":
        return SquareIndicator(*(number(spec[k], f"square {k}")
                                 for k in ("x_lo", "x_hi", "y_lo", "y_hi")))
    if kind == "ellipse":
        return EllipseIndicator(numbers(spec["center"], 2, "ellipse center"),
                                number(spec["semi_a"], "ellipse semi_a"),
                                number(spec["semi_b"], "ellipse semi_b"),
                                number(spec.get("rotation", 0.0),
                                       "ellipse rotation"))
    if kind == "sum":
        terms = spec["terms"]
        if not isinstance(terms, list) or \
           not all(isinstance(t, list) and len(t) == 2 for t in terms):
            raise ParameterError(f"sum terms must be [coefficient, spec] "
                                 f"pairs, got {terms!r}")
        return WeightedSum(tuple((number(c, "sum coefficient"),
                                  phantom_from_dict(q)) for c, q in terms))
    raise ParameterError(f"unknown phantom spec type {kind!r}")
