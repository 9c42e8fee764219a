"""Learned extension of limited-view data onto the unobserved boundary part.

Training pairs (u1_i, u2_i) are simulated from indicator phantoms.  Extending
new data u1 amounts to orthogonal projection onto span{u1_i} in the discrete
L2 inner product over gamma1 x time: solve the Gram system for coefficients
c and combine sum_j c_j * u2_j.  The Gram matrix is factorized once
(Cholesky, with an escalating diagonal ridge as a safety net) and reused for
every extension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from ._util import cholesky_lower
from .errors import DataMismatchError, ParameterError, SingularTrainingSetError
from .forward import Part, WaveData, restrict_wave_data, simulate_wave_data
from .geometry import BoundaryGeometry, BoundarySplit
from .phantoms import phantom_from_dict, phantom_to_dict

RIDGE_START = 1e-12
RIDGE_CAP = 1e-6


@dataclass
class TrainingSet:
    """Simulated limited-view/missing-part trace pairs for training phantoms.

    outside_detection lists indices of phantoms whose support pokes out of
    the detection region; their extension problem is unstable, which is worth
    knowing but not fatal.
    """

    phantoms: list
    u1: list  # WaveData on gamma1, one per phantom
    u2: list  # WaveData on gamma2, one per phantom
    fingerprint: str
    outside_detection: tuple = ()

    def __post_init__(self):
        if not (len(self.phantoms) == len(self.u1) == len(self.u2)):
            raise ParameterError("phantoms/u1/u2 lengths differ")
        if len(self.phantoms) < 1:
            raise ParameterError("training set must not be empty")
        for w in (*self.u1, *self.u2):
            if w.fingerprint != self.fingerprint:
                raise DataMismatchError("training traces from mixed geometries")

    @property
    def n(self) -> int:
        return len(self.phantoms)


@dataclass
class ExtensionModel:
    """Trained extension operator: Gram factorization plus the gamma2 traces."""

    training: TrainingSet
    gram: np.ndarray
    chol_lower: np.ndarray
    ridge: float
    inner_weights: np.ndarray  # per-node weight * dt on gamma1, shape (n_gamma1,)

    @property
    def n(self) -> int:
        return self.training.n

    @property
    def fingerprint(self) -> str:
        return self.training.fingerprint


def build_training_set(phantoms, geom: BoundaryGeometry, split: BoundarySplit,
                       threads: int = 1) -> TrainingSet:
    """Simulate full-boundary data per phantom and file both restrictions.

    Simulating the full boundary once per phantom guarantees that stitching
    u1_i and u2_i back together reproduces the full data exactly.  Phantoms
    are simulated one after another; `threads` goes to `simulate_wave_data`,
    whose row chunks are the only parallel level.  Phantoms with support
    outside the detection region are recorded on the set and reported with
    a single warning.
    """
    from .forward import _support_sample_points
    from .geometry import detection_region_contains

    phantoms = list(phantoms)
    if not phantoms:
        raise ParameterError("need at least one training phantom")

    outside = tuple(
        i for i, p in enumerate(phantoms)
        if not all(detection_region_contains(split, q)
                   for q in _support_sample_points(p)))
    if outside:
        import warnings
        warnings.warn(f"{len(outside)} training phantom(s) lie outside the "
                      "detection region; their extension is unstable",
                      stacklevel=2)

    full = [simulate_wave_data(p, geom, split, Part.FULL, threads=threads)
            for p in phantoms]
    u1 = [restrict_wave_data(w, split, Part.GAMMA1) for w in full]
    u2 = [restrict_wave_data(w, split, Part.GAMMA2) for w in full]
    return TrainingSet(phantoms=phantoms, u1=u1, u2=u2,
                       fingerprint=split.fingerprint(),
                       outside_detection=outside)


def _gamma1_inner_weights(ts: TrainingSet, geom: BoundaryGeometry) -> np.ndarray:
    idx = ts.u1[0].node_idx
    return geom.weights[idx] * geom.dt


def gram_matrix(ts: TrainingSet, geom: BoundaryGeometry) -> np.ndarray:
    """Pairwise discrete inner products of the gamma1 training traces.

    Assembled in trace blocks so the full (n, gamma1*time) matrix is never
    materialized; large training sets would otherwise dominate memory.
    """
    w = _gamma1_inner_weights(ts, geom)
    n = ts.n
    gram = np.empty((n, n))
    block = max(1, int(3e7) // max(1, ts.u1[0].samples.size))

    def flat_block(lo, hi, weighted):
        rows = []
        for k in range(lo, hi):
            s = ts.u1[k].samples
            rows.append((s * w[:, None]).ravel() if weighted else s.ravel())
        return np.stack(rows)

    for lo_i in range(0, n, block):
        hi_i = min(lo_i + block, n)
        wi = flat_block(lo_i, hi_i, weighted=True)
        for lo_j in range(lo_i, n, block):
            hi_j = min(lo_j + block, n)
            uj = flat_block(lo_j, hi_j, weighted=False)
            sub = wi @ uj.T
            gram[lo_i:hi_i, lo_j:hi_j] = sub
            gram[lo_j:hi_j, lo_i:hi_i] = sub.T
            del uj
    return 0.5 * (gram + gram.T)


def factorize(gram: np.ndarray, ridge_start: float = RIDGE_START,
              ridge_cap: float = RIDGE_CAP):
    """Lower Cholesky factor of gram + eps*I with escalating ridge eps.

    eps starts at zero and climbs by decades from ridge_start*trace/n up to
    ridge_cap*trace/n; the eps that succeeded is returned alongside the
    factor.  Numerically rank-deficient matrices (dependent training traces)
    are rejected outright rather than rescued by the ridge, since a ridged
    solve of a singular system would silently return garbage coefficients.
    """
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ParameterError("gram matrix must be square")
    if not np.allclose(gram, gram.T, rtol=0, atol=1e-10 * max(1.0, float(np.abs(gram).max()))):
        raise ParameterError("gram matrix must be symmetric")
    n = gram.shape[0]
    scale = float(np.trace(gram)) / n if n else 1.0

    c, info = cholesky_lower(gram)
    if info == 0:
        return c, 0.0

    lam = np.linalg.eigvalsh(gram)
    if lam[0] <= n * np.finfo(float).eps * max(lam[-1], 0.0):
        raise SingularTrainingSetError(minor_index=int(info), ridge=0.0)

    eps = ridge_start * scale
    while eps <= ridge_cap * scale * (1.0 + 1e-12):
        c, info = dpotrf(gram + eps * np.eye(n), lower=1)
        if info == 0:
            return np.tril(c), eps
        eps *= 10.0
    raise SingularTrainingSetError(minor_index=int(info), ridge=eps / 10.0)


def train_extension_model(ts: TrainingSet, geom: BoundaryGeometry) -> ExtensionModel:
    """Assemble and factorize the Gram system for a training set."""
    gram = gram_matrix(ts, geom)
    chol, ridge = factorize(gram)
    return ExtensionModel(training=ts, gram=gram, chol_lower=chol, ridge=ridge,
                          inner_weights=_gamma1_inner_weights(ts, geom))


def _check_input(model: ExtensionModel, u1: WaveData):
    if u1.fingerprint != model.fingerprint:
        raise DataMismatchError("limited-view data does not match the model geometry")
    if u1.part is not Part.GAMMA1:
        raise DataMismatchError("extension input must live on gamma1")


def project_coefficients(model: ExtensionModel, u1: WaveData) -> np.ndarray:
    """Projection coefficients of u1 onto the span of the training traces."""
    _check_input(model, u1)
    w = model.inner_weights
    weighted = u1.samples * w[:, None]
    rhs = np.array([float(np.sum(weighted * ui.samples)) for ui in model.training.u1])
    coeffs = cho_solve((model.chol_lower, True), rhs)
    if not np.all(np.isfinite(coeffs)):
        raise SingularTrainingSetError(minor_index=0, ridge=model.ridge)
    return coeffs


def extend(model: ExtensionModel, u1: WaveData) -> WaveData:
    """Predicted gamma2 data: the coefficient combination of training u2 traces."""
    coeffs = project_coefficients(model, u1)
    template = model.training.u2[0]
    samples = np.zeros_like(template.samples)
    for c, u in zip(coeffs, model.training.u2):
        samples += c * u.samples
    return WaveData(part=Part.GAMMA2, node_idx=template.node_idx, dt=template.dt,
                    n_time=template.n_time, samples=samples,
                    fingerprint=template.fingerprint)


def stitch(u1: WaveData, u2: WaveData, geom: BoundaryGeometry,
           split: BoundarySplit) -> WaveData:
    """Merge gamma1 and gamma2 data into full-boundary data in node order."""
    fp = split.fingerprint()
    if u1.fingerprint != fp or u2.fingerprint != fp:
        raise DataMismatchError("parts do not belong to this boundary split")
    if u1.part is not Part.GAMMA1 or u2.part is not Part.GAMMA2:
        raise DataMismatchError("stitch expects a (gamma1, gamma2) pair")
    if not np.array_equal(u1.node_idx, split.gamma1_idx) or \
       not np.array_equal(u2.node_idx, split.gamma2_idx):
        raise DataMismatchError("node indices do not partition the boundary")
    samples = np.empty((geom.n_nodes, u1.n_time))
    samples[split.gamma1_idx] = u1.samples
    samples[split.gamma2_idx] = u2.samples
    return WaveData(part=Part.FULL, node_idx=np.arange(geom.n_nodes), dt=u1.dt,
                    n_time=u1.n_time, samples=samples, fingerprint=fp)


def zero_extend(u1: WaveData, geom: BoundaryGeometry, split: BoundarySplit) -> WaveData:
    """Pad limited-view data with zeros on gamma2 (the no-model baseline)."""
    zeros = WaveData(part=Part.GAMMA2, node_idx=split.gamma2_idx, dt=u1.dt,
                     n_time=u1.n_time,
                     samples=np.zeros((len(split.gamma2_idx), u1.n_time)),
                     fingerprint=split.fingerprint())
    return stitch(u1, zeros, geom, split)


def save_model(model: ExtensionModel, path) -> None:
    """Persist the model in a single container file (bit-exact round trip)."""
    from .io import write_container

    meta = {
        "fingerprint": model.fingerprint,
        "ridge": model.ridge,
        "n": model.n,
        "dt": model.training.u1[0].dt,
        "n_time": model.training.u1[0].n_time,
        "outside_detection": list(model.training.outside_detection),
        "phantoms": [phantom_to_dict(p) for p in model.training.phantoms],
    }
    sections = [
        ("meta", json.dumps(meta, sort_keys=True)),
        ("gram", model.gram),
        ("chol", model.chol_lower),
        ("weights", model.inner_weights),
        ("u1_idx", model.training.u1[0].node_idx.astype(float)),
        ("u2_idx", model.training.u2[0].node_idx.astype(float)),
        ("u1", np.stack([u.samples for u in model.training.u1])),
        ("u2", np.stack([u.samples for u in model.training.u2])),
    ]
    with open(path, "wb") as fh:
        fh.write(write_container(sections))


def load_model(path, expected_fingerprint: str | None = None) -> ExtensionModel:
    """Load a model container; optionally verify the geometry fingerprint."""
    from .io import finite_section, node_index_section, read_container

    with open(path, "rb") as fh:
        sections = dict(read_container(fh.read()))
    meta = json.loads(sections["meta"])
    if expected_fingerprint is not None and meta["fingerprint"] != expected_fingerprint:
        raise DataMismatchError("model belongs to a different geometry/split")
    for name in ("gram", "chol", "weights", "u1", "u2"):
        finite_section(name, sections[name])
    dt, n_time = float(meta["dt"]), int(meta["n_time"])
    fp = meta["fingerprint"]
    u1_idx = node_index_section("u1_idx", sections["u1_idx"])
    u2_idx = node_index_section("u2_idx", sections["u2_idx"])
    phantoms = [phantom_from_dict(d) for d in meta["phantoms"]]
    u1 = [WaveData(Part.GAMMA1, u1_idx, dt, n_time, s, fp) for s in sections["u1"]]
    u2 = [WaveData(Part.GAMMA2, u2_idx, dt, n_time, s, fp) for s in sections["u2"]]
    ts = TrainingSet(phantoms=phantoms, u1=u1, u2=u2, fingerprint=fp,
                     outside_detection=tuple(meta.get("outside_detection", ())))
    return ExtensionModel(training=ts, gram=sections["gram"],
                          chol_lower=sections["chol"], ridge=float(meta["ridge"]),
                          inner_weights=sections["weights"])


def coarsen_training_set(ts: TrainingSet, fine_shape, coarse_shape) -> TrainingSet:
    """Training set for a coarser partition by summing nested fine traces.

    Both shapes are (n_w, n_h) with column-major bottom-to-top numbering, and
    the fine partition must refine the coarse one by integer factors.  The
    summed traces equal direct simulation of the merged squares because the
    simulator is linear.
    """
    from .phantoms import SquareIndicator, WeightedSum

    fw, fh = fine_shape
    cw, ch = coarse_shape
    if fw % cw or fh % ch:
        raise ParameterError("fine partition does not refine the coarse one")
    if fw * fh != ts.n:
        raise ParameterError("fine shape does not match the training set size")
    rw, rh = fw // cw, fh // ch

    def fine_index(col, row):
        return col * fh + row

    phantoms, u1, u2 = [], [], []
    for col in range(cw):
        for row in range(ch):
            members = [fine_index(col * rw + i, row * rh + j)
                       for i in range(rw) for j in range(rh)]
            sub = [ts.phantoms[m] for m in members]
            if all(isinstance(s, SquareIndicator) for s in sub):
                merged = SquareIndicator(
                    x_lo=min(s.x_lo for s in sub), x_hi=max(s.x_hi for s in sub),
                    y_lo=min(s.y_lo for s in sub), y_hi=max(s.y_hi for s in sub))
            else:
                merged = WeightedSum(tuple((1.0, s) for s in sub))
            phantoms.append(merged)
            s1 = ts.u1[members[0]].samples.copy()
            s2 = ts.u2[members[0]].samples.copy()
            for m in members[1:]:
                s1 += ts.u1[m].samples
                s2 += ts.u2[m].samples
            u1.append(ts.u1[members[0]].copy_with(s1))
            u2.append(ts.u2[members[0]].copy_with(s2))
    return TrainingSet(phantoms=phantoms, u1=u1, u2=u2, fingerprint=ts.fingerprint)
