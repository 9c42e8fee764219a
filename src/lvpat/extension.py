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

A saved model holds its recipe, not its traces: the forward is deterministic,
so loading simulates the traces again from the stored geometry and phantoms.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from ._util import cholesky_lower, numbers, parallel_map, required
from .errors import (ContainerFormatError, DataMismatchError, ParameterError,
                     SingularTrainingSetError)
from .forward import (Part, WaveData, _boundary_wave_map, _check_supports,
                      _traces)
from .geometry import (BoundaryGeometry, BoundarySplit, geometry_object,
                       read_geometry)
from .io import (dump_container, finite_section, read_container, read_meta,
                 section)
from .phantoms import phantom_from_dict, phantom_to_dict, training_partition

RIDGE_START = 1e-12
RIDGE_CAP = 1e-6
GRAM_CHECK_RTOL = 1e-12  # a loaded Gram's diagonal against its traces
PROJECT_BLOCK_ROWS = 16
GRAM_BLOCKS = 8


@dataclass
class TrainingSet:
    """Simulated limited-view/missing-part trace pairs for training phantoms.

    u1_samples[k] holds phantom k's traces at the gamma1 nodes of split and
    u2_samples[k] those at its gamma2 nodes, over the geometry's time grid.
    outside_detection lists indices of phantoms whose support pokes out of
    the detection region; their extension problem is unstable, which is
    worth knowing but not fatal.
    """

    phantoms: list
    split: BoundarySplit
    u1_samples: np.ndarray  # (n, |gamma1|, T)
    u2_samples: np.ndarray  # (n, |gamma2|, T)
    outside_detection: tuple = ()

    def __post_init__(self):
        n, s, t = len(self.phantoms), self.split, self.split.geometry.n_time
        if n < 1:
            raise ParameterError("training set must not be empty")
        if self.u1_samples.shape != (n, len(s.gamma1_idx), t) or \
           self.u2_samples.shape != (n, len(s.gamma2_idx), t):
            raise ParameterError("training tensors disagree with the phantom "
                                 "count or the split's nodes and time steps")

    @property
    def n(self) -> int:
        return len(self.phantoms)

    def _views(self, part: Part, idx, samples) -> list:
        read_only = samples.view()
        read_only.flags.writeable = False
        dt, fp = self.split.geometry.dt, self.split.fingerprint()
        return [WaveData(part, idx, dt, samples.shape[2], s, fp)
                for s in read_only]

    @property
    def u1(self) -> list:
        """Per-phantom gamma1 WaveData, read-only views of u1_samples (no copy);
        u1/u2 serve callers outside lvpat, such as `perfbench/spans.py`."""
        return self._views(Part.GAMMA1, self.split.gamma1_idx, self.u1_samples)

    @property
    def u2(self) -> list:
        """Per-phantom gamma2 WaveData: read-only views of u2_samples, no copy."""
        return self._views(Part.GAMMA2, self.split.gamma2_idx, self.u2_samples)


@dataclass
class ExtensionModel:
    """Trained extension operator: the training set (split, phantoms and
    traces) and the Gram matrix with its factorization; partition is
    (n_w, n_h, box) when the phantoms are `training_partition(box, n_w, n_h)`.
    """

    training: TrainingSet
    gram: np.ndarray
    chol_lower: np.ndarray
    ridge: float
    partition: tuple | None = None

    @property
    def n(self) -> int:
        return self.training.n

    @property
    def fingerprint(self) -> str:
        return self.training.split.fingerprint()


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

    u1, u2 = _traces(phantoms, [geom.positions[split.gamma1_idx],
                                geom.positions[split.gamma2_idx]],
                     _boundary_wave_map(geom), threads)
    return TrainingSet(phantoms=phantoms, split=split, u1_samples=u1,
                       u2_samples=u2, outside_detection=outside)


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
    return ExtensionModel(training=ts, gram=gram, chol_lower=chol, ridge=ridge)


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
    ts, geom = model.training, model.training.split.geometry
    if not np.array_equal(u1.node_idx, ts.split.gamma1_idx):
        raise DataMismatchError("limited-view data is not on the model's "
                                "gamma1 nodes in node order")
    if u1.dt != geom.dt or u1.n_time != geom.n_time:
        raise DataMismatchError(
            f"data sampled at dt={u1.dt!r} over {u1.n_time} steps; the model "
            f"has dt={geom.dt!r} over {geom.n_time} steps")
    x, v = ts.u1_samples.reshape(model.n, -1), u1.samples.ravel()
    rhs = geom.ds * geom.dt * np.concatenate(parallel_map(
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
    return WaveData(part=Part.GAMMA2, node_idx=ts.split.gamma2_idx,
                    dt=ts.split.geometry.dt, n_time=samples.shape[1],
                    samples=samples, fingerprint=model.fingerprint)


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
    """Persist the model's recipe: section `meta` holds the fingerprint, the
    geometry object, the phantom specs, the numpy and scipy versions and any
    partition with its box; section `gram` the Gram matrix."""
    ts = model.training
    meta = {
        "fingerprint": model.fingerprint,
        "geometry": geometry_object(ts.split),
        "phantoms": [phantom_to_dict(p) for p in ts.phantoms],
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if model.partition is not None:
        n_w, n_h, box = model.partition
        meta["partition"], meta["box"] = [n_w, n_h], list(box)
    with open(path, "wb") as fh:
        dump_container([("meta", json.dumps(meta, sort_keys=True)),
                        ("gram", model.gram)], fh)


def load_model(path, expected_fingerprint: str | None = None,
               threads: int = 1) -> ExtensionModel:
    """Load a model container and simulate its traces again.

    The stored fingerprint is checked against expected_fingerprint
    (DataMismatchError) and against the geometry built from meta before
    `build_training_set` simulates the phantoms over `threads`.  The Gram
    matrix is refactorized, and its diagonal must equal ds*dt*||u1_k||^2 of
    the traces within GRAM_CHECK_RTOL.  A stored partition must tile its box
    into exactly the phantoms.  Format failures raise ContainerFormatError.
    """
    with open(path, "rb") as fh:
        sections = dict(read_container(fh))
    meta = read_meta(sections)
    fingerprint = required(meta, "fingerprint", "model meta",
                           ContainerFormatError)
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise DataMismatchError("model belongs to a different geometry/split")
    geom, split = read_geometry(
        required(meta, "geometry", "model meta", ContainerFormatError),
        "model geometry", ContainerFormatError)
    if split.fingerprint() != fingerprint:
        raise ContainerFormatError("model geometry does not have the "
                                   f"stored fingerprint {fingerprint!r}")
    specs = required(meta, "phantoms", "model meta", ContainerFormatError)
    if not isinstance(specs, list):
        raise ContainerFormatError("model meta 'phantoms' is not a list")
    phantoms = [phantom_from_dict(d) for d in specs]
    n = len(phantoms)
    gram = finite_section("gram", section(sections, "gram", "model"))
    if gram.shape != (n, n):
        raise ContainerFormatError(f"section 'gram' has shape {gram.shape}, "
                                   f"expected {(n, n)}")
    partition = None
    if "partition" in meta:
        n_w, n_h = numbers(meta["partition"], 2, "model partition",
                           ContainerFormatError, whole=True, positive=True)
        box = numbers(required(meta, "box", "model meta", ContainerFormatError),
                      4, "model box", ContainerFormatError)
        if n_w * n_h != n or training_partition(box, n_w, n_h) != phantoms:
            raise ContainerFormatError(f"model phantoms are not the {n_w}x{n_h}"
                                       f" partition of the box {list(box)}")
        partition = (n_w, n_h, box)

    ts = build_training_set(phantoms, geom, split, threads)
    chol, ridge = factorize(gram)
    x = ts.u1_samples.reshape(n, -1)
    norms = geom.ds * geom.dt * np.einsum("ij,ij->i", x, x)
    if not np.all(np.abs(np.diagonal(gram) - norms) <= GRAM_CHECK_RTOL * norms):
        raise ContainerFormatError("section 'gram' is not the Gram matrix "
                                   "of the model's phantoms")
    return ExtensionModel(training=ts, gram=gram, chol_lower=chol,
                          ridge=ridge, partition=partition)
