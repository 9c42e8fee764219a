"""Learned extension of limited-view data onto the unobserved boundary part.

Training pairs (u1_i, u2_i) are simulated from indicator phantoms.  Extending
new data u1 amounts to orthogonal projection onto span{u1_i} in the discrete
L2 inner product over gamma1 x time: solve the Gram system for coefficients
c and combine sum_j c_j * u2_j.  The Gram matrix is factorized once
(Cholesky, with an escalating diagonal ridge as a safety net) and reused for
every extension.

The traces are two contiguous tensors, U1 (n, |gamma1|, T) and U2
(n, |gamma2|, T).  The nodes are equidistant in arc length, so every sample
weighs ds * dt: the Gram matrix is a sum of SYRKs over fixed blocks of
gamma1 nodes of U1 as stored, extension two GEMVs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from ._util import cholesky_lower, number, numbers, parallel_map, required
from .errors import (ContainerFormatError, DataMismatchError, ParameterError,
                     SingularTrainingSetError)
from .forward import (Part, WaveData, _boundary_wave_map, _check_supports,
                      _traces)
from .geometry import BoundaryGeometry, BoundarySplit
from .io import (dump_container, finite_section, node_index_section,
                 read_container, read_meta, section, time_axis)
from .phantoms import phantom_from_dict, phantom_to_dict

RIDGE_START = 1e-12
RIDGE_CAP = 1e-6
PROJECT_BLOCK_ROWS = 16
GRAM_BLOCKS = 8


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
    ds: float  # arc weight of every boundary node; a sample weighs ds * dt

    @property
    def n(self) -> int:
        return self.training.n

    @property
    def fingerprint(self) -> str:
        return self.training.fingerprint


def build_training_set(phantoms, geom: BoundaryGeometry, split: BoundarySplit,
                       threads: int = 1) -> TrainingSet:
    """Simulate every phantom's traces at the gamma1 and the gamma2 nodes.

    All phantoms go through one forward pass over the two boundary parts,
    which returns the U1 and U2 tensors.  The forward cuts each (part,
    phantom) into the same tiles of nodes as `simulate_wave_data` does, and
    a trace depends only on its tile, so u1_i and u2_i are byte for byte the
    phantom's simulated gamma1 and gamma2 data, and stitched together its
    full-boundary data.  `threads` spreads the forward's blocks of tiles.
    Every support must lie inside the domain; phantoms with support outside
    the detection region are recorded on the set and reported with a single
    warning.
    """
    phantoms = list(phantoms)
    if not phantoms:
        raise ParameterError("need at least one training phantom")

    outside = _check_supports(phantoms, geom, split)
    if outside:
        warnings.warn(f"{len(outside)} training phantom(s) lie outside the "
                      "detection region; their extension is unstable",
                      stacklevel=2)

    i1, i2 = split.gamma1_idx, split.gamma2_idx
    u1, u2 = _traces(phantoms, [geom.positions[i1], geom.positions[i2]],
                     _boundary_wave_map(geom), threads)
    return TrainingSet(phantoms=phantoms, u1_idx=i1, u2_idx=i2,
                       u1_samples=u1, u2_samples=u2,
                       dt=geom.dt, fingerprint=split.fingerprint(),
                       outside_detection=outside)


def gram_matrix(ts: TrainingSet, geom: BoundaryGeometry,
                threads: int = 1) -> np.ndarray:
    """Pairwise discrete inner products of the gamma1 training traces.

    U1's gamma1 nodes are cut into GRAM_BLOCKS blocks of about equal node
    counts.  Each block's X_b @ X_b.T, with X_b = U1[:, block] as (n,
    nodes * T), a view of U1, is one `np.matmul` (which runs SYRK for this
    form and releases the GIL), and `threads` spreads the blocks.  The
    partial Grams are added in block order and scaled by ds * dt, and the
    lower triangle is mirrored, so the result is exactly symmetric and its
    bytes depend on the layout alone, not on `threads`.
    """
    x = ts.u1_samples
    bounds = x.shape[1] * np.arange(GRAM_BLOCKS + 1) // GRAM_BLOCKS

    def block(b):
        x_b = x[:, bounds[b]:bounds[b + 1]].reshape(ts.n, -1)
        return np.matmul(x_b, x_b.T)

    gram = sum(parallel_map(block, range(GRAM_BLOCKS), threads))
    gram *= geom.ds * geom.dt
    return np.tril(gram) + np.tril(gram, -1).T


def factorize(gram: np.ndarray):
    """Lower Cholesky factor of gram + eps*I with escalating ridge eps.

    eps starts at zero and climbs by decades from RIDGE_START*trace/n up to
    RIDGE_CAP*trace/n; the eps that succeeded is returned alongside the
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

    eps = RIDGE_START * scale
    while eps <= RIDGE_CAP * scale * (1.0 + 1e-12):
        c, info = dpotrf(gram + eps * np.eye(n), lower=1)
        if info == 0:
            return np.tril(c), eps
        eps *= 10.0
    raise SingularTrainingSetError(minor_index=int(info), ridge=eps / 10.0)


def train_extension_model(ts: TrainingSet, geom: BoundaryGeometry,
                          threads: int = 1) -> ExtensionModel:
    """Assemble and factorize the Gram system for a training set; `threads`
    spreads the Gram's node blocks."""
    gram = gram_matrix(ts, geom, threads)
    chol, ridge = factorize(gram)
    return ExtensionModel(training=ts, gram=gram, chol_lower=chol, ridge=ridge,
                          ds=geom.ds)


def project_coefficients(model: ExtensionModel, u1: WaveData,
                         threads: int = 1) -> np.ndarray:
    """Projection coefficients of u1 onto the span of the training traces.

    The right-hand side ds * dt * U1 @ u1 is one `np.dot` GEMV (which, unlike
    `@`, releases the GIL) per PROJECT_BLOCK_ROWS phantoms over `threads`;
    the blocks depend on n alone, so the bytes do not depend on `threads`.
    """
    if u1.fingerprint != model.fingerprint:
        raise DataMismatchError("limited-view data does not match the model geometry")
    if u1.part is not Part.GAMMA1:
        raise DataMismatchError("extension input must live on gamma1")
    ts = model.training
    if not np.array_equal(u1.node_idx, ts.u1_idx):
        raise DataMismatchError("limited-view data is not on the model's "
                                "gamma1 nodes in node order")
    if u1.dt != ts.dt or u1.n_time != ts.u1_samples.shape[2]:
        raise DataMismatchError(
            f"data sampled at dt={u1.dt!r} over {u1.n_time} steps; the model "
            f"has dt={ts.dt!r} over {ts.u1_samples.shape[2]} steps")
    x, v = ts.u1_samples.reshape(model.n, -1), u1.samples.ravel()
    rhs = model.ds * ts.dt * np.concatenate(parallel_map(
        lambda lo: np.dot(x[lo:lo + PROJECT_BLOCK_ROWS], v),
        range(0, model.n, PROJECT_BLOCK_ROWS), threads))
    coeffs = cho_solve((model.chol_lower, True), rhs)
    if not np.all(np.isfinite(coeffs)):
        raise SingularTrainingSetError(minor_index=0, ridge=model.ridge)
    return coeffs


def extend(model: ExtensionModel, u1: WaveData, threads: int = 1) -> WaveData:
    """Predicted gamma2 data: the coefficient combination of training u2 traces."""
    ts = model.training
    samples = np.tensordot(project_coefficients(model, u1, threads),
                           ts.u2_samples, axes=1)
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
        "ds": model.ds,
        "n_time": ts.u1_samples.shape[2],
        "outside_detection": list(ts.outside_detection),
        "phantoms": [phantom_to_dict(p) for p in ts.phantoms],
    }
    sections = [
        ("meta", json.dumps(meta, sort_keys=True)),
        ("gram", model.gram),
        ("u1_idx", ts.u1_idx.astype(float)),
        ("u2_idx", ts.u2_idx.astype(float)),
        ("u1", ts.u1_samples),
        ("u2", ts.u2_samples),
    ]
    with open(path, "wb") as fh:
        dump_container(sections, fh)


def load_model(path, expected_fingerprint: str | None = None) -> ExtensionModel:
    """Load a model container; optionally verify the geometry fingerprint.

    meta must be a JSON object whose phantoms are phantom specs and whose
    outside_detection indices are distinct and below the phantom count;
    dt and the boundary weight ds must be finite and positive, n_time a
    positive whole number; tensors must be finite and sized to the phantom
    count, node indices and n_time; the node indices of gamma1 and gamma2
    must partition 0 .. |gamma1| + |gamma2| - 1; the Gram matrix is
    refactorized, so it must pass `factorize`.
    """
    with open(path, "rb") as fh:
        sections = dict(read_container(fh))
    meta = read_meta(sections)
    fingerprint = required(meta, "fingerprint", "model meta",
                           ContainerFormatError)
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise DataMismatchError("model belongs to a different geometry/split")
    u1_idx = node_index_section("u1_idx", section(sections, "u1_idx", "model"))
    u2_idx = node_index_section("u2_idx", section(sections, "u2_idx", "model"))
    if np.intersect1d(u1_idx, u2_idx).size:
        raise ContainerFormatError("sections 'u1_idx' and 'u2_idx' share node indices")
    # distinct indices, all below their count: exactly 0 .. n_nodes - 1
    n_nodes = len(u1_idx) + len(u2_idx)
    if np.any(u1_idx >= n_nodes) or np.any(u2_idx >= n_nodes):
        raise ContainerFormatError(f"sections 'u1_idx' and 'u2_idx' do not "
                                   f"cover the nodes 0 .. {n_nodes - 1}")
    if not isinstance(meta.get("phantoms"), list):
        raise ContainerFormatError("model meta 'phantoms' is not a list")
    phantoms = [phantom_from_dict(d) for d in meta["phantoms"]]
    dt, n_time = time_axis(meta)
    ds = number(meta.get("ds"), "boundary weight ds", ContainerFormatError,
                positive=True)
    n = len(phantoms)
    outside = numbers(meta.get("outside_detection", []), None,
                      "outside_detection", ContainerFormatError, whole=True)
    if len(set(outside)) != len(outside) or \
       not all(0 <= i < n for i in outside):
        raise ContainerFormatError(f"outside_detection {list(outside)} is not "
                                   f"distinct phantom indices in [0, {n})")
    for name, shape in (("gram", (n, n)), ("u1", (n, len(u1_idx), n_time)),
                        ("u2", (n, len(u2_idx), n_time))):
        finite_section(name, section(sections, name, "model"))
        if sections[name].shape != shape:
            raise ContainerFormatError(f"section {name!r} has shape "
                                       f"{sections[name].shape}, expected {shape}")
    ts = TrainingSet(phantoms=phantoms, u1_idx=u1_idx, u2_idx=u2_idx,
                     u1_samples=sections["u1"], u2_samples=sections["u2"],
                     dt=dt, fingerprint=fingerprint,
                     outside_detection=outside)
    chol, ridge = factorize(sections["gram"])
    return ExtensionModel(training=ts, gram=sections["gram"], chol_lower=chol,
                          ridge=ridge, ds=ds)

