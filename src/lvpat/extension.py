"""Learned extension of limited-view data onto the unobserved boundary part.

Training pairs (u1_i, u2_i) are simulated from indicator phantoms.  Extending
new data u1 amounts to orthogonal projection onto span{u1_i} in the discrete
L2 inner product over gamma1 x time: solve the Gram system for coefficients
c and combine sum_j c_j * u2_j.  The Gram matrix is factorized once
(Cholesky, with an escalating diagonal ridge as a safety net) and reused for
every extension.  The nodes are equidistant in arc length, so every sample
weighs ds * dt.

A training set holds its traces in one of two representations.  A trace is
a row of the forward's mean tables times the wave map D (see
`forward.MeanTables`), and only the first C rows of D, the rows that the
set's windows reach, matter.  Below a fixed size crossover,
DENSE_RATIO * n <= C, the set holds its traces as two contiguous tensors,
U1 (n, |gamma1|, T) and U2 (n, |gamma2|, T); above it, it holds the mean
tables S1 and S2 instead.  Either way, u1[k] and u2[k] are the one reader
of exact traces: a view of the tensor, or one run of table rows built by
`forward.apply_rows`.
The crossover depends on sizes alone, so the path, and every byte, depends
neither on `threads` nor on the machine.

- Gram: a sum of SYRKs over blocks of whole tiles of gamma1 nodes, in block
  order.  A dense set slices U1.  A table set's inner products are
  quadratic forms in M = D[:C] D[:C]^T, whose eigenvalues fall below double
  rounding after about a third of its rows, so each block is the block's
  rows of S1 times W, a (C, k) factor with W W^T = M to rounding, in one
  sparse product: k columns per node instead of T.  The two
  representations' Grams agree within about 1e-15 of their largest entry.
- Projection: a dense set runs the GEMV U1 u1 in two fixed halves of its
  phantom rows, which `threads` can run side by side; a table set forms
  Y = u1 D[:C]^T and takes one sparse product of S1 with Y.  Y costs
  |gamma1| * T * C whatever n is, which the dense GEMV undercuts while n is
  small against C.
- Extension: a dense set combines U2 with the coefficients; a table set
  forms (S2^T c reshaped to |gamma2| x C) D[:C].  `extend_full` writes it
  straight into the gamma2 rows of the full-boundary data.

A saved model holds its recipe, not its traces: the forward is deterministic,
so loading tabulates the stored phantoms again on the stored geometry and
checks the whole stored Gram against `gram_matrix`, and the exact traces of
two anchor phantoms.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf
from scipy.sparse import csr_array

from ._util import cholesky_lower, numbers, parallel_map, required, serial_blas
from .errors import (ContainerFormatError, DataMismatchError, ParameterError,
                     SingularTrainingSetError)
from .forward import (_TILE, MeanTables, Part, WaveData, _boundary_wave_map,
                      _check_supports, _WaveMap, apply_rows, check_wave_data,
                      mean_tables, plan_pass, plan_traces)
from .geometry import (BoundaryGeometry, BoundarySplit, geometry_object,
                       read_geometry)
from .io import (dump_container, finite_section, read_container, read_meta,
                 section)
from .phantoms import phantom_from_dict, phantom_to_dict, training_partition

RIDGE_START = 1e-12
RIDGE_CAP = 1e-6
# a loaded Gram's entries against `gram_matrix`, relative to its largest,
# and its two anchor diagonal entries against their exact traces
GRAM_CHECK_RTOL = 1e-12
# bytes per Gram block, T samples per node of U1 for a dense set (a view)
# and k basis columns for a table set (`_gram_basis`), the product that each
# worker allocates: a block holds as many whole tiles of gamma1 nodes as
# fit, and at least one
GRAM_BLOCK_BYTES = 2 ** 23
# a training set keeps dense traces while DENSE_RATIO * n <= C, the wave-map
# rows its windows reach (C is 335, 669 and 1337 at steps 0.04, 0.02 and
# 0.01 on the reduced geometry).  The table projection costs about the same
# at every n, the dense one grows with n.  Medians of `project_coefficients`
# on a 2-core x86-64 machine, serial BLAS, at n = 32, 50, 72 and 128
# (`BENCH_one_reader.json`): at step 0.04, 1.5-2.5 ms for tables against
# 1.2-1.4, 1.9-2.1, 2.6-4.3 and 7.9-9.2 ms dense at threads 1; at step
# 0.02, 10-15 ms against 7.6-8.8, 12-15, 20-21 and 30-35 ms; at step 0.01,
# 65-78 ms against 31-41 and 56-64 ms at n = 32 and 50.  At threads 1 the
# two cross near n = 45 at steps 0.04 and 0.02 (C/n = 7 and 15); the dense
# halves at threads 2 take 0.4-1.1 of that time, by whether the second
# core is free, which moves the crossing up to n = 50-72.
DENSE_RATIO = 10


class _PartTraces(Sequence):
    """Phantom k's WaveData on one boundary part, read-only: a view of the
    dense tensor, or built from the tables when indexed."""

    def __init__(self, ts: "TrainingSet", part: Part):
        self._ts, self._part = ts, part

    def __len__(self) -> int:
        return self._ts.n

    def __getitem__(self, k) -> WaveData:
        ts, one = self._ts, self._part is Part.GAMMA1
        k = range(ts.n)[k]  # IndexError past the end
        split, geom = ts.split, ts.split.geometry
        idx = split.gamma1_idx if one else split.gamma2_idx
        dense = ts.u1_samples if one else ts.u2_samples
        if dense is not None:
            samples = dense[k].view()
        else:
            samples = np.zeros((len(idx), geom.n_time))
            with serial_blas():
                apply_rows(ts.tables, ts.tables.row0[0 if one else 1]
                           + k * len(idx), len(idx), samples)
        samples.flags.writeable = False
        return WaveData(self._part, idx, geom.dt, geom.n_time, samples,
                        split.fingerprint())


@dataclass
class TrainingSet:
    """Simulated limited-view/missing-part trace pairs for training phantoms.

    A set holds exactly one representation of its traces.  Either
    u1_samples[k] and u2_samples[k] hold phantom k's traces at the gamma1
    and the gamma2 nodes of split over the geometry's time grid (below the
    crossover, `_keeps_dense`), or tables holds the phantoms' mean tables
    there, gamma1 as part 0 and gamma2 as part 1 (above it).  u1[k] and
    u2[k] give the traces either way.  outside_detection lists indices of
    phantoms whose support pokes out of the detection region; their
    extension problem is unstable, which is worth knowing but not fatal.
    """

    phantoms: list
    split: BoundarySplit
    tables: MeanTables | None = None
    u1_samples: np.ndarray | None = None  # (n, |gamma1|, T)
    u2_samples: np.ndarray | None = None  # (n, |gamma2|, T)
    outside_detection: tuple = ()
    # a table set's parts as (n, |gamma_p| * C) CSR matrices: row k holds
    # phantom k's entries at column point * C + radius node
    _sparse: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        n, s, t = len(self.phantoms), self.split, self.split.geometry.n_time
        if n < 1:
            raise ParameterError("training set must not be empty")
        sizes = (len(s.gamma1_idx), len(s.gamma2_idx))
        dense = (self.u1_samples, self.u2_samples)
        held = (self.tables is not None, *(u is not None for u in dense))
        if held not in ((True, False, False), (False, True, True)):
            raise ParameterError("a training set holds either its mean tables "
                                 "or both dense tensors")
        if self.tables is None:
            if any(u.shape != (n, m, t) for u, m in zip(dense, sizes)):
                raise ParameterError("training tensors disagree with the "
                                     "phantom count or the split's nodes and "
                                     "time steps")
        elif (self.tables.n_phantoms, self.tables.sizes) != (n, sizes) or \
                self.tables.wm.n_time != t:
            raise ParameterError("mean tables disagree with the phantom count "
                                 "or the split's nodes and time steps")
        else:
            self._sparse = tuple(self._part_matrix(p) for p in (0, 1))

    def _part_matrix(self, part: int) -> csr_array:
        tab = self.tables
        c = tab.reach
        r0, r1 = tab.row0[part:part + 2]
        m = tab.sizes[part]
        if not m:
            return csr_array((self.n, 0))
        at = slice(tab.indptr[r0], tab.indptr[r1])
        flat = np.repeat(np.arange(r1 - r0, dtype=np.int32) % m,
                         np.diff(tab.indptr[r0:r1 + 1]))
        flat *= c
        flat += tab.cols[at]
        return _csr_over(tab.values[at], flat, _table_indptr(tab, r0, r1, m),
                         (self.n, m * c))

    def _gamma1_rows(self) -> csr_array:
        """A table set's gamma1 rows as one (n * |gamma1|, C) CSR matrix,
        phantom-major, over views of the tables' cols and values."""
        tab = self.tables
        r0, r1 = tab.row0[:2]
        at = slice(tab.indptr[r0], tab.indptr[r1])
        return _csr_over(tab.values[at], tab.cols[at],
                         _table_indptr(tab, r0, r1), (r1 - r0, tab.reach))

    @property
    def n(self) -> int:
        return len(self.phantoms)

    @property
    def dense(self) -> bool:
        return self.u1_samples is not None

    @property
    def u1(self) -> Sequence:
        """Per-phantom gamma1 WaveData, read-only; u1/u2 also serve callers
        outside lvpat, such as `perfbench/spans.py`."""
        return _PartTraces(self, Part.GAMMA1)

    @property
    def u2(self) -> Sequence:
        """Per-phantom gamma2 WaveData, read-only."""
        return _PartTraces(self, Part.GAMMA2)


def _table_indptr(tab: MeanTables, r0: int, r1: int,
                  step: int = 1) -> np.ndarray:
    """Row pointers from 0 over table rows [r0, r1), every step-th row
    ending a CSR row: int32, the dtype of the tables' cols, while the
    entries fit, so that `_csr_over` takes those cols as they are."""
    ip = tab.indptr[r0:r1 + 1:step] - tab.indptr[r0]
    return ip.astype(np.int32 if ip[-1] < 2 ** 31 else np.int64)


def _csr_over(data, indices, indptr, shape) -> csr_array:
    """A CSR matrix of `shape` over these arrays themselves, indices in
    indptr's dtype.  `csr_array`'s constructor copies a view of less than
    half its base, as one part of the tables is, so the arrays are set on an
    empty matrix instead."""
    mat = csr_array(shape)
    mat.data, mat.indptr = data, indptr
    mat.indices = indices.astype(indptr.dtype, copy=False)
    return mat


def _keeps_dense(n: int, reach: int) -> bool:
    """Whether a set of n phantoms whose windows reach `reach` wave-map rows
    holds dense traces."""
    return DENSE_RATIO * n <= reach


@dataclass
class ExtensionModel:
    """Trained extension operator: the training set (split, phantoms, and
    traces or, above the crossover, mean tables) and the Gram matrix with its
    factorization; partition is (n_w, n_h, box) when the phantoms are
    `training_partition(box, n_w, n_h)`.
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
    """Simulate U1 and U2 below the crossover (`_keeps_dense`), else
    tabulate every phantom's means at the gamma1 and the gamma2 nodes.

    All phantoms go through one forward pass over the two boundary parts,
    which keeps the traces below the crossover and the tables above it.  The
    forward cuts each (part, phantom) into the same tiles of nodes as
    `simulate_wave_data` does, and a trace depends only on its tile, so
    u1_i and u2_i (dense, or built from the tables) are byte for byte the
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

    plan = plan_pass(phantoms, [geom.positions[split.gamma1_idx],
                                geom.positions[split.gamma2_idx]],
                     _boundary_wave_map(geom))
    if _keeps_dense(len(phantoms), plan.reach):
        u1, u2 = plan_traces(plan, threads)
        return TrainingSet(phantoms=phantoms, split=split, u1_samples=u1,
                           u2_samples=u2, outside_detection=outside)
    return TrainingSet(phantoms=phantoms, split=split,
                       tables=mean_tables(plan, threads),
                       outside_detection=outside)


@lru_cache(maxsize=4)
def _gram_basis(wm: _WaveMap, reach: int) -> np.ndarray:
    """W (reach, k), read-only, with W W^T = D D^T to double rounding, for
    D = wm.diff_t[:reach]; built once per (map, reach).

    W = V_k Lambda_k^(1/2) keeps the eigenpairs of M = D D^T above
    eps * lambda_max, and the eigenvalues fall below that after about a
    third of the rows (k = 106, 204 and 385 of C = 335, 669 and 1337 at
    steps 0.04, 0.02 and 0.01 on the reduced geometry).  The factorization
    runs on one BLAS thread, so W's bytes do not depend on
    OPENBLAS_NUM_THREADS.
    """
    d = wm.diff_t[:reach]
    with serial_blas():
        lam, vec = np.linalg.eigh(d @ d.T)
    keep = lam > np.finfo(float).eps * lam[-1]
    w = vec[:, keep] * np.sqrt(lam[keep])
    w.flags.writeable = False
    return w


def _node_blocks(ts: TrainingSet, width: int, fn, threads: int = 1) -> list:
    """fn(lo, hi) of each block of gamma1 nodes [lo, hi), in block order.

    The blocks are runs of whole tiles of nodes, each with at most
    GRAM_BLOCK_BYTES of `width` doubles per (phantom, node) and at least one
    tile, cut from the sizes alone.  `threads` spreads the blocks, on one
    BLAS thread.
    """
    n, m = ts.n, len(ts.split.gamma1_idx)
    step = _TILE * max(1, GRAM_BLOCK_BYTES // (n * _TILE * width * 8))
    bounds = np.append(np.arange(0, m, step), m)
    with serial_blas():
        return parallel_map(lambda b: fn(bounds[b], bounds[b + 1]),
                            range(len(bounds) - 1), threads)


def gram_matrix(ts: TrainingSet, geom: BoundaryGeometry,
                threads: int = 1) -> np.ndarray:
    """Pairwise discrete inner products of the gamma1 training traces.

    Each gamma1 node block (`_node_blocks`) gives one (n, width) matrix X_b,
    and X_b @ X_b.T is one `np.matmul`, which runs SYRK for this form and
    releases the GIL.  A dense set's X_b is a view of the block's slice of
    U1, T samples per node.  A table set's inner products are sums of
    s_k D D^T s_l^T over its table rows, so its X_b is the block's rows of
    the gamma1 tables, gathered phantom-major, times W (`_gram_basis`): one
    sparse product, k columns per node instead of T, allocated in the
    worker.  The result agrees with the traces' Gram within about 1e-15 of
    its largest entry.  The partial Grams are added in block order and
    scaled by ds * dt, and the lower triangle is mirrored, so the result is
    exactly symmetric and its bytes depend on the sizes alone, not on
    `threads`.
    """
    n, m = ts.n, len(ts.split.gamma1_idx)
    if ts.dense:
        width = ts.split.geometry.n_time

        def rows(lo, hi):
            return ts.u1_samples[:, lo:hi].reshape(n, -1)
    else:
        w = _gram_basis(ts.tables.wm, ts.tables.reach)
        s1, width = ts._gamma1_rows(), w.shape[1]

        def rows(lo, hi):
            at = (m * np.arange(n)[:, None] + np.arange(lo, hi)).ravel()
            return (s1[at] @ w).reshape(n, -1)

    def block(lo, hi):
        x = rows(lo, hi)
        return np.matmul(x, x.T)

    gram = sum(_node_blocks(ts, width, block, threads))
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

    u1 must be gamma1 data of the model's split (`forward.check_wave_data`).
    For a dense set the right-hand side ds * dt * U1 @ u1 is two GEMVs, over
    U1's phantom rows [0, ceil(n/2)) and [ceil(n/2), n), spread over
    `threads`: the halves depend on n alone, so no byte depends on
    `threads`.  For a table set it is ds * dt * S1 @ vec(Y), with
    Y = u1 D[:C]^T on one BLAS thread.
    """
    ts, geom = model.training, model.training.split.geometry
    check_wave_data(u1, Part.GAMMA1, ts.split.gamma1_idx, geom,
                    model.fingerprint)
    if ts.dense:
        u, v = ts.u1_samples.reshape(model.n, -1), u1.samples.ravel()
        half = -(-model.n // 2)
        rhs = np.concatenate(parallel_map(
            lambda rows: np.dot(u[rows], v),
            (slice(0, half), slice(half, model.n)), threads))
    else:
        with serial_blas():
            y = u1.samples @ ts.tables.wm.diff_t[:ts.tables.reach].T
        rhs = ts._sparse[0] @ y.ravel()
    rhs *= geom.ds * geom.dt
    coeffs = cho_solve((model.chol_lower, True), rhs)
    if not np.all(np.isfinite(coeffs)):
        raise SingularTrainingSetError(minor_index=0, ridge=model.ridge)
    return coeffs


def extend(model: ExtensionModel, u1: WaveData, threads: int = 1,
           out: np.ndarray | None = None) -> WaveData:
    """Predicted gamma2 data: the coefficient combination of training u2
    traces, sum_k c_k U2_k for a dense set and (S2^T c) D[:C] for a table
    set, with S2^T c laid out as (|gamma2|, C).  `threads` spreads a dense
    set's projection (`project_coefficients`).  The result is written into
    `out`, a C-contiguous (|gamma2|, T) array, when it is given
    (`extend_full`), else into a fresh one, with the same bytes."""
    ts, geom = model.training, model.training.split.geometry
    coeffs = project_coefficients(model, u1, threads)
    m2 = len(ts.split.gamma2_idx)
    if out is None:
        out = np.empty((m2, geom.n_time))
    elif out.shape != (m2, geom.n_time) or not out.flags.c_contiguous:
        raise ParameterError("out must be a C-contiguous array of the "
                             "gamma2 nodes by the time steps")
    if ts.dense:
        np.dot(coeffs, ts.u2_samples.reshape(model.n, -1),
               out=out.reshape(-1))
    else:
        means = (ts._sparse[1].T @ coeffs).reshape(m2, -1)
        with serial_blas():
            np.matmul(means, ts.tables.wm.diff_t[:ts.tables.reach], out=out)
    return WaveData(part=Part.GAMMA2, node_idx=ts.split.gamma2_idx,
                    dt=geom.dt, n_time=geom.n_time, samples=out,
                    fingerprint=model.fingerprint)


def extend_full(model: ExtensionModel, u1: WaveData,
                threads: int = 1) -> tuple:
    """(gamma2 extension, full-boundary data) with one fresh array: the
    bytes of `extend` and then `stitch`.

    u1 goes into its rows of the full-boundary array, and `extend` writes
    the gamma2 extension straight into the rest when the gamma2 nodes are
    one run; a gamma2 that wraps past node 0 is copied in.  The extension's
    samples are then a view of the full data's.
    """
    split = model.training.split
    geom, g2 = split.geometry, split.gamma2_idx
    check_wave_data(u1, Part.GAMMA1, split.gamma1_idx, geom,
                    model.fingerprint)
    samples = np.empty((geom.n_nodes, geom.n_time))
    samples[split.gamma1_idx] = u1.samples
    run = len(g2) > 0 and g2[-1] - g2[0] + 1 == len(g2)
    u2 = extend(model, u1, threads,
                out=samples[g2[0]:g2[-1] + 1] if run else None)
    if not run:
        samples[g2] = u2.samples
    return u2, WaveData(part=Part.FULL, node_idx=np.arange(geom.n_nodes),
                        dt=geom.dt, n_time=geom.n_time, samples=samples,
                        fingerprint=model.fingerprint)


def stitch(u1: WaveData, u2: WaveData, geom: BoundaryGeometry,
           split: BoundarySplit) -> WaveData:
    """Merge gamma1 and gamma2 data into full-boundary data in node order;
    both parts must be on geom's time grid."""
    fp = split.fingerprint()
    check_wave_data(u1, Part.GAMMA1, split.gamma1_idx, geom, fp)
    check_wave_data(u2, Part.GAMMA2, split.gamma2_idx, geom, fp)
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
    """Load a model container and tabulate its training set again.

    The stored fingerprint is checked against expected_fingerprint
    (DataMismatchError) and against the geometry built from meta before
    `build_training_set` tabulates the phantoms over `threads`.  The stored
    Gram matrix is refactorized and checked whole: all n^2 entries against
    `gram_matrix` of the rebuilt set, and its diagonal at the anchor
    phantoms 0 and n - 1 against ds*dt*||u1_k||^2 of the exact traces
    `ts.u1[k]`, which ties a table set's Gram from the basis W to them (see
    GRAM_CHECK_RTOL).  A stored partition must tile its box into exactly the
    phantoms.  Format failures raise ContainerFormatError.
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
    fresh, ends = gram_matrix(ts, geom, threads), sorted({0, n - 1})
    norms = [geom.ds * geom.dt * np.vdot(u, u)
             for u in (ts.u1[k].samples for k in ends)]
    if not (np.allclose(gram, fresh, rtol=0,
                        atol=GRAM_CHECK_RTOL * np.abs(fresh).max())
            and np.allclose(fresh[ends, ends], norms, rtol=GRAM_CHECK_RTOL,
                            atol=0)):
        raise ContainerFormatError("section 'gram' is not the Gram matrix "
                                   "of the model's phantoms")
    return ExtensionModel(training=ts, gram=gram, chol_lower=chol,
                          ridge=ridge, partition=partition)
