"""Learned extension of limited-view data onto the unobserved boundary part.

Training pairs (u1_i, u2_i) are simulated from indicator phantoms.  Extending
new data u1 amounts to orthogonal projection onto span{u1_i} in the discrete
L2 inner product over gamma1 x time: solve the Gram system for coefficients
c and combine sum_j c_j * u2_j.  The Gram matrix is factorized once
(Cholesky, with an escalating diagonal ridge as a safety net) and reused for
every extension.

The traces are two contiguous tensors, U1 (n, |gamma1|, T) and U2
(n, |gamma2|, T): the Gram matrix is a blocked SYRK over gamma1 nodes,
extension two GEMVs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf

from ._util import cholesky_lower
from .errors import (ContainerFormatError, DataMismatchError, ParameterError,
                     SingularTrainingSetError)
from .forward import (Part, WaveData, _support_sample_points, _traces,
                      _wave_map)
from .geometry import (BoundaryGeometry, BoundarySplit,
                       detection_region_contains)
from .io import (dump_container, finite_section, node_index_section,
                 read_container, time_axis)
from .phantoms import phantom_from_dict, phantom_to_dict

RIDGE_START = 1e-12
RIDGE_CAP = 1e-6
GRAM_BLOCK_NODES = 16


@dataclass
class TrainingSet:
    """Simulated limited-view/missing-part trace pairs for training phantoms.

    u1_samples[k] holds phantom k's traces at the gamma1 nodes u1_idx and
    u2_samples[k] those at the gamma2 nodes u2_idx, each with T samples at
    step dt.  outside_detection lists indices of phantoms whose support
    pokes out of the detection region; their extension problem is unstable,
    which is worth knowing but not fatal.
    """

    phantoms: list
    u1_idx: np.ndarray
    u2_idx: np.ndarray
    u1_samples: np.ndarray  # (n, |gamma1|, T)
    u2_samples: np.ndarray  # (n, |gamma2|, T)
    dt: float
    fingerprint: str
    outside_detection: tuple = ()

    def __post_init__(self):
        n, t = len(self.phantoms), self.u1_samples.shape[-1:]
        if n < 1:
            raise ParameterError("training set must not be empty")
        if self.u1_samples.shape != (n, len(self.u1_idx), *t) or \
           self.u2_samples.shape != (n, len(self.u2_idx), *t):
            raise ParameterError("training tensors disagree with the phantom "
                                 "count, node indices or time steps")

    @property
    def n(self) -> int:
        return len(self.phantoms)

    def _views(self, part: Part, idx, samples) -> list:
        read_only = samples.view()
        read_only.flags.writeable = False
        return [WaveData(part, idx, self.dt, samples.shape[2], s,
                         self.fingerprint) for s in read_only]

    @property
    def u1(self) -> list:
        """Per-phantom gamma1 WaveData, read-only views of u1_samples (no copy);
        u1/u2 serve callers outside lvpat, such as `perfbench/spans.py`."""
        return self._views(Part.GAMMA1, self.u1_idx, self.u1_samples)

    @property
    def u2(self) -> list:
        """Per-phantom gamma2 WaveData: read-only views of u2_samples, no copy."""
        return self._views(Part.GAMMA2, self.u2_idx, self.u2_samples)


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
    """Simulate every phantom's traces at the gamma1 and the gamma2 nodes.

    All phantoms go through one forward pass per boundary part, straight
    into the U1 and U2 tensors.  A trace depends only on its phantom and its
    node, so u1_i and u2_i stitched together are exactly the phantom's
    full-boundary data.  `threads` spreads the forward's blocks of
    (phantom, node) rows.  Every support must lie inside the domain;
    phantoms with support outside the detection region are recorded on the
    set and reported with a single warning.
    """
    phantoms = list(phantoms)
    if not phantoms:
        raise ParameterError("need at least one training phantom")

    pts = [_support_sample_points(p) for p in phantoms]
    owner = np.repeat(np.arange(len(phantoms)), [len(q) for q in pts])
    pts = np.concatenate(pts)
    if not np.all(geom.domain.contains(pts)):
        raise ParameterError("phantom support is not inside the domain")
    poking = np.bincount(owner[~detection_region_contains(split, pts)],
                         minlength=len(phantoms))
    outside = tuple(int(i) for i in np.flatnonzero(poking))
    if outside:
        warnings.warn(f"{len(outside)} training phantom(s) lie outside the "
                      "detection region; their extension is unstable",
                      stacklevel=2)

    i1, i2 = split.gamma1_idx, split.gamma2_idx
    wm = _wave_map(geom.dt, geom.n_time)
    return TrainingSet(phantoms=phantoms, u1_idx=i1, u2_idx=i2,
                       u1_samples=_traces(phantoms, geom.positions[i1], wm, threads),
                       u2_samples=_traces(phantoms, geom.positions[i2], wm, threads),
                       dt=geom.dt, fingerprint=split.fingerprint(),
                       outside_detection=outside)


def _gamma1_inner_weights(ts: TrainingSet, geom: BoundaryGeometry) -> np.ndarray:
    return geom.weights[ts.u1_idx] * geom.dt


def gram_matrix(ts: TrainingSet, geom: BoundaryGeometry) -> np.ndarray:
    """Pairwise discrete inner products of the gamma1 training traces.

    Accumulated over blocks of GRAM_BLOCK_NODES gamma1 nodes in node order:
    each block, scaled by sqrt(weight), adds its X @ X.T through one SYRK
    into the lower triangle, which is mirrored at the end.  So the result is
    exactly symmetric and the only copy of U1 is one block.
    """
    root = np.sqrt(_gamma1_inner_weights(ts, geom))
    gram = np.zeros((ts.n, ts.n), order="F")
    for lo in range(0, len(root), GRAM_BLOCK_NODES):
        blk = slice(lo, lo + GRAM_BLOCK_NODES)
        x = (ts.u1_samples[:, blk] * root[blk, None]).reshape(ts.n, -1)
        # x.T is x's buffer in Fortran order, so dsyrk makes no copy
        gram = dsyrk(1.0, x.T, beta=1.0, c=gram, trans=1, lower=1,
                     overwrite_c=1)
    return np.tril(gram) + np.tril(gram, -1).T


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


def project_coefficients(model: ExtensionModel, u1: WaveData) -> np.ndarray:
    """Projection coefficients of u1 onto the span of the training traces."""
    if u1.fingerprint != model.fingerprint:
        raise DataMismatchError("limited-view data does not match the model geometry")
    if u1.part is not Part.GAMMA1:
        raise DataMismatchError("extension input must live on gamma1")
    weighted = u1.samples * model.inner_weights[:, None]
    rhs = model.training.u1_samples.reshape(model.n, -1) @ weighted.ravel()
    coeffs = cho_solve((model.chol_lower, True), rhs)
    if not np.all(np.isfinite(coeffs)):
        raise SingularTrainingSetError(minor_index=0, ridge=model.ridge)
    return coeffs


def extend(model: ExtensionModel, u1: WaveData) -> WaveData:
    """Predicted gamma2 data: the coefficient combination of training u2 traces."""
    ts = model.training
    samples = np.tensordot(project_coefficients(model, u1), ts.u2_samples, axes=1)
    return WaveData(part=Part.GAMMA2, node_idx=ts.u2_idx, dt=ts.dt,
                    n_time=samples.shape[1], samples=samples,
                    fingerprint=ts.fingerprint)


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
    """Persist the model in one container file (bit-exact round trip); the
    Cholesky factor is not stored, as `load_model` recomputes it exactly."""
    ts = model.training
    meta = {
        "fingerprint": model.fingerprint,
        "dt": ts.dt,
        "n_time": ts.u1_samples.shape[2],
        "outside_detection": list(ts.outside_detection),
        "phantoms": [phantom_to_dict(p) for p in ts.phantoms],
    }
    sections = [
        ("meta", json.dumps(meta, sort_keys=True)),
        ("gram", model.gram),
        ("weights", model.inner_weights),
        ("u1_idx", ts.u1_idx.astype(float)),
        ("u2_idx", ts.u2_idx.astype(float)),
        ("u1", ts.u1_samples),
        ("u2", ts.u2_samples),
    ]
    with open(path, "wb") as fh:
        dump_container(sections, fh)


def load_model(path, expected_fingerprint: str | None = None) -> ExtensionModel:
    """Load a model container; optionally verify the geometry fingerprint.

    dt must be finite and positive and n_time a positive whole number;
    tensors must be finite and sized to the phantom count, node indices and
    n_time; the node indices of gamma1 and gamma2 must partition
    0 .. |gamma1| + |gamma2| - 1; the Gram matrix is refactorized, so it must
    pass `factorize`.
    """
    with open(path, "rb") as fh:
        sections = dict(read_container(fh))
    meta = json.loads(sections["meta"])
    if expected_fingerprint is not None and meta["fingerprint"] != expected_fingerprint:
        raise DataMismatchError("model belongs to a different geometry/split")
    u1_idx = node_index_section("u1_idx", sections["u1_idx"])
    u2_idx = node_index_section("u2_idx", sections["u2_idx"])
    if np.intersect1d(u1_idx, u2_idx).size:
        raise ContainerFormatError("sections 'u1_idx' and 'u2_idx' share node indices")
    # distinct indices, all below their count: exactly 0 .. n_nodes - 1
    n_nodes = len(u1_idx) + len(u2_idx)
    if np.any(u1_idx >= n_nodes) or np.any(u2_idx >= n_nodes):
        raise ContainerFormatError(f"sections 'u1_idx' and 'u2_idx' do not "
                                   f"cover the nodes 0 .. {n_nodes - 1}")
    phantoms = [phantom_from_dict(d) for d in meta["phantoms"]]
    dt, n_time = time_axis(meta)
    n = len(phantoms)
    for name, shape in (("gram", (n, n)), ("weights", (len(u1_idx),)),
                        ("u1", (n, len(u1_idx), n_time)),
                        ("u2", (n, len(u2_idx), n_time))):
        finite_section(name, sections[name])
        if sections[name].shape != shape:
            raise ContainerFormatError(f"section {name!r} has shape "
                                       f"{sections[name].shape}, expected {shape}")
    ts = TrainingSet(phantoms=phantoms, u1_idx=u1_idx, u2_idx=u2_idx,
                     u1_samples=sections["u1"], u2_samples=sections["u2"],
                     dt=dt, fingerprint=meta["fingerprint"],
                     outside_detection=tuple(meta.get("outside_detection", ())))
    chol, ridge = factorize(sections["gram"])
    return ExtensionModel(training=ts, gram=sections["gram"], chol_lower=chol,
                          ridge=ridge, inner_weights=sections["weights"])

