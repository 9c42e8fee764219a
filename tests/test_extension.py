import dataclasses
import json
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.linalg.blas import dsyrk

import lvpat.extension as extension
from lvpat._util import serial_blas
from lvpat.cli import ExperimentConfig
from lvpat.errors import (ContainerFormatError, DataMismatchError,
                          ParameterError, SingularTrainingSetError)
from lvpat.extension import (TrainingSet, build_training_set, extend,
                             extend_full, factorize, gram_matrix, load_model,
                             project_coefficients, save_model, stitch,
                             train_extension_model, zero_extend)
from lvpat.forward import (_TILE, MeanTables, Part, WaveData,
                           _boundary_wave_map, mean_tables, plan_pass,
                           restrict_wave_data, simulate_wave_data)
from lvpat.geometry import read_geometry, split_boundary
from lvpat.metrics import boundary_time_inner, boundary_time_norm
from lvpat.phantoms import SquareIndicator, WeightedSum, training_partition

from conftest import BOX, GAMMA2_INTERVAL, TEST_PHANTOM, write_container

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def partition_set(shape, geom, split):
    """Training set of the (n_w, n_h) partition of BOX, simulated directly."""
    return build_training_set(training_partition(BOX, *shape), geom, split,
                              threads=2)


@pytest.fixture(scope="module")
def ts32(coarse_geom, coarse_split):
    """Finest training set of the partitions used here."""
    return partition_set((32, 16), coarse_geom, coarse_split)


@pytest.fixture(scope="module")
def model8(coarse_geom, coarse_split):
    return train_extension_model(partition_set((8, 4), coarse_geom,
                                               coarse_split), coarse_geom)


def split_tables(phantoms, geom, split, threads=1):
    """The mean tables of phantoms at the split's gamma1 and gamma2 nodes."""
    return mean_tables(plan_pass(phantoms, [geom.positions[split.gamma1_idx],
                                            geom.positions[split.gamma2_idx]],
                                 _boundary_wave_map(geom)), threads)


def random_tables(rng, n, geom, split, width=12):
    """Mean tables of n made-up phantoms: every row a window of up to
    `width` random nonzero values at a random radius node."""
    wm = _boundary_wave_map(geom)
    sizes = (len(split.gamma1_idx), len(split.gamma2_idx))
    rows = n * sum(sizes)
    counts = rng.integers(1, width + 1, rows)
    first = rng.integers(0, len(wm.diff_t) - width, rows)
    cols = (np.arange(counts.sum())
            + np.repeat(first - (np.cumsum(counts) - counts), counts))
    return MeanTables(
        n_phantoms=n, sizes=sizes,
        indptr=np.concatenate([[0], np.cumsum(counts)]),
        cols=cols.astype(np.int32), values=rng.uniform(0.5, 1.5, len(cols)),
        wm=wm, reach=int(cols.max()) + 1)


def as_dense(ts):
    """The table set ts as a dense set: its traces, built from its tables,
    stacked into the two tensors."""
    return TrainingSet(phantoms=ts.phantoms, split=ts.split,
                       u1_samples=np.stack([u.samples for u in ts.u1]),
                       u2_samples=np.stack([u.samples for u in ts.u2]))


def held_arrays(ts):
    """The arrays a training set holds: its two tensors, or its tables and
    the index arrays of its sparse parts (whose values are the tables')."""
    if ts.dense:
        return [ts.u1_samples, ts.u2_samples]
    tab = ts.tables
    return [tab.indptr, tab.cols, tab.values,
            *(a for s in ts._sparse for a in (s.indices, s.indptr))]


def held_bytes(ts):
    """Bytes of the arrays a training set holds."""
    return sum(a.nbytes for a in held_arrays(ts))


def mixture_data(model, coefs, split):
    """Limited-view data of a coefficient mixture, via simulator linearity."""
    samples = sum(c * u.samples for c, u in zip(coefs, model.training.u1))
    template = model.training.u1[0]
    return template.copy_with(samples), WeightedSum(
        tuple(zip(coefs, model.training.phantoms)))


class TestTrainingSet:

    def test_partition_sizes(self, ts32):
        assert ts32.n == 512
        assert all(u.part is Part.GAMMA1 for u in ts32.u1)
        assert all(u.part is Part.GAMMA2 for u in ts32.u2)

    def test_single_phantom(self, coarse_geom, coarse_split):
        ts = build_training_set([SquareIndicator(-1.0, -0.8, -0.5, -0.3)],
                                coarse_geom, coarse_split)
        assert ts.n == 1
        gram = gram_matrix(ts, coarse_geom)
        norm2 = boundary_time_norm(ts.u1[0], coarse_geom) ** 2
        assert gram[0, 0] == pytest.approx(norm2, rel=1e-12)

    def test_duplicate_phantom_makes_singular_gram(self, coarse_geom, coarse_split):
        sq = SquareIndicator(-1.0, -0.8, -0.5, -0.3)
        ts = build_training_set([sq, sq], coarse_geom, coarse_split)
        gram = gram_matrix(ts, coarse_geom)
        with pytest.raises(SingularTrainingSetError) as info:
            factorize(gram)
        assert info.value.minor_index == 2

    def test_views_share_the_tensors(self, ts32, coarse_geom, coarse_split):
        # a dense set's traces are read-only views of its tensors; a table
        # set (32x16 here) has no tensors and builds read-only traces
        n_time = coarse_geom.n_time
        ts = partition_set((4, 2), coarse_geom, coarse_split)
        assert ts.dense and not ts32.dense
        assert ts.u1_samples.shape == (8, len(coarse_split.gamma1_idx), n_time)
        assert ts.u2_samples.shape == (8, len(coarse_split.gamma2_idx), n_time)
        view = ts.u2[7].samples
        assert np.shares_memory(view, ts.u2_samples)
        assert not view.flags.writeable
        assert ts32.u1_samples is None and ts32.u2_samples is None
        built = ts32.u2[7].samples
        assert built.shape == (len(coarse_split.gamma2_idx), n_time)
        assert not built.flags.writeable
        assert len(ts32.u1) == 512
        with pytest.raises(IndexError):
            ts32.u1[512]

    def test_sparse_parts_take_the_tables_without_copies(self, ts32):
        # both parts keep int32 indices and the tables' own values, also the
        # gamma2 part, a view of less than half of them; the gamma1 rows
        # that the Gram multiplies take the tables' cols too, and times the
        # wave map they give the gamma1 traces
        tab = ts32.tables
        rows = ts32._gamma1_rows()
        for s in (*ts32._sparse, rows):
            assert s.indices.dtype == s.indptr.dtype == np.int32
            assert np.shares_memory(s.data, tab.values)
        assert np.shares_memory(rows.indices, tab.cols)
        assert ts32._sparse[1].nnz < tab.values.size // 2
        traces = (rows @ tab.wm.diff_t[:tab.reach]).reshape(
            ts32.n, -1, tab.wm.n_time)
        for k in (0, 200, 511):
            want = ts32.u1[k].samples
            assert np.abs(traces[k] - want).max() <= \
                1e-12 * np.abs(want).max()

    def test_tensors_are_restrictions_of_full_simulations(self, coarse_geom,
                                                          coarse_split):
        # squares, an ellipse and a nested sum of both kernels go through one
        # forward pass per boundary part; each phantom's rows are its own
        # full-boundary data, bit for bit, at every thread count, whether
        # the set holds them as tensors or builds them from its tables; the
        # tables themselves have the same bytes at every thread count
        cells = training_partition(BOX, 4, 2)
        nested = WeightedSum(((0.5, WeightedSum(((1.0, cells[1]),
                                                 (-2.0, TEST_PHANTOM)))),
                              (1.5, cells[6])))
        phantoms = [*cells[:4], TEST_PHANTOM, nested, *cells[4:]]
        full = [simulate_wave_data(p, coarse_geom, coarse_split, Part.FULL).samples
                for p in phantoms]
        i1, i2 = coarse_split.gamma1_idx, coarse_split.gamma2_idx
        u1 = np.stack([s[i1] for s in full])
        u2 = np.stack([s[i2] for s in full])
        table_bytes = set()
        for threads in (1, 2, 4):
            ts = build_training_set(phantoms, coarse_geom, coarse_split,
                                    threads=threads)
            assert ts.dense and ts.tables is None
            assert ts.u1_samples.tobytes() == u1.tobytes()
            assert ts.u2_samples.tobytes() == u2.tobytes()
            tables = split_tables(phantoms, coarse_geom, coarse_split, threads)
            table_bytes.add(tuple(a.tobytes() for a in (
                tables.indptr, tables.cols, tables.values)))
            table_set = TrainingSet(phantoms=phantoms, split=coarse_split,
                                    tables=tables)
            for k in range(len(phantoms)):
                assert table_set.u1[k].samples.tobytes() == u1[k].tobytes()
                assert table_set.u2[k].samples.tobytes() == u2[k].tobytes()
        assert len(table_bytes) == 1

    def test_support_outside_domain_rejected(self, coarse_geom, coarse_split):
        cells = training_partition(BOX, 2, 1)
        huge = SquareIndicator(-3.0, 3.0, -0.5, 0.5)
        with pytest.raises(ParameterError, match="domain"):
            build_training_set([*cells, huge], coarse_geom, coarse_split)

    def test_outside_detection_warns_once(self, coarse_geom, coarse_split):
        # two phantoms in the missing cap's shadow, one inside the region
        shadow = [SquareIndicator(-0.1, 0.1, 0.8, 0.92),
                  SquareIndicator(0.15, 0.3, 0.8, 0.9)]
        with pytest.warns(UserWarning, match="2 training phantom") as seen:
            ts = build_training_set([shadow[0], training_partition(BOX, 1, 1)[0],
                                     shadow[1]], coarse_geom, coarse_split)
        assert len(seen) == 1
        assert ts.outside_detection == (0, 2)

    @pytest.mark.parametrize("bad", [
        "phantoms", "table-phantoms", "u1_idx", "u2_idx", "n_time",
        "one-tensor", "tables", "both", "both-one-tensor", "neither"])
    def test_constructor_rejects_mismatched_tensors(self, coarse_geom,
                                                    coarse_split, medium_geom,
                                                    medium_split, bad):
        # a set holds either its tables or both tensors, never both and
        # never neither; the tables and the tensors must match the phantom
        # count, the split's gamma1 and gamma2 node counts and its
        # geometry's n_time
        cells = training_partition(BOX, 3, 1)
        i1, i2 = coarse_split.gamma1_idx, coarse_split.gamma2_idx
        t = coarse_split.geometry.n_time
        tensors = dict(u1_samples=np.zeros((3, len(i1), t)),
                       u2_samples=np.zeros((3, len(i2), t)))
        tables = dict(tables=split_tables(cells, coarse_geom, coarse_split))
        dense = dict(phantoms=cells, split=coarse_split, **tensors)
        table = dict(phantoms=cells, split=coarse_split, **tables)
        assert TrainingSet(**dense).dense
        assert not TrainingSet(**table).dense
        args = {
            "phantoms": {**dense, "phantoms": cells[:2]},
            "table-phantoms": {**table, "phantoms": cells[:2]},
            "u1_idx": {**dense, "u1_samples": tensors["u1_samples"][:, 1:]},
            "u2_idx": {**dense, "u2_samples": tensors["u2_samples"][:, 1:]},
            "n_time": {**dense, "u2_samples": np.zeros((3, len(i2), t - 1))},
            "one-tensor": {**dense, "u2_samples": None},
            "tables": {**table, "tables": split_tables(cells, medium_geom,
                                                       medium_split)},
            "both": {**dense, **tables},
            "both-one-tensor": {**table, "u1_samples": tensors["u1_samples"]},
            "neither": dict(phantoms=cells, split=coarse_split),
        }[bad]
        with pytest.raises(ParameterError):
            TrainingSet(**args)

    def test_table_traces_are_simulated_data(self, ts32, coarse_geom,
                                             coarse_split):
        # a table set's u1[k] and u2[k] are built from its tables, byte for
        # byte the phantom's simulated gamma1 and gamma2 data
        cells = training_partition(BOX, 32, 16)
        for k in (0, 77, 300, 511):
            for part, traces in ((Part.GAMMA1, ts32.u1), (Part.GAMMA2, ts32.u2)):
                want = simulate_wave_data(cells[k], coarse_geom, coarse_split,
                                          part)
                got = traces[k]
                assert got.part is part
                assert np.array_equal(got.node_idx, want.node_idx)
                assert got.samples.tobytes() == want.samples.tobytes()


class TestGramAndFactorization:

    def test_orthonormal_traces_give_identity(self, coarse_geom, coarse_split):
        # phantom k's one table entry sits at gamma1 node 3k, scaled so that
        # its trace has unit norm: traces at distinct nodes are orthogonal
        w = coarse_geom.ds * coarse_geom.dt
        wm = _boundary_wave_map(coarse_geom)
        m1, m2 = len(coarse_split.gamma1_idx), len(coarse_split.gamma2_idx)
        j = 40
        counts = np.zeros(4 * (m1 + m2), dtype=int)
        counts[np.arange(4) * (m1 + 3)] = 1
        tables = MeanTables(
            n_phantoms=4, sizes=(m1, m2),
            indptr=np.concatenate([[0], np.cumsum(counts)]),
            cols=np.full(4, j, dtype=np.int32),
            values=np.full(4, 1.0 / np.sqrt(w * (wm.diff_t[j] ** 2).sum())),
            wm=wm, reach=j + 1)
        phantoms = [SquareIndicator(k, k + 1, 0, 1) for k in range(4)]
        ts = TrainingSet(phantoms=phantoms, split=coarse_split, tables=tables)
        gram = gram_matrix(ts, coarse_geom)
        assert np.abs(gram - np.eye(4)).max() <= 1e-12
        dense = gram_matrix(as_dense(ts), coarse_geom)
        assert np.abs(dense - gram).max() <= 1e-12 * np.abs(gram).max()

    def test_gram_matches_pairwise_inner_products(self, coarse_geom,
                                                  coarse_split):
        ts = build_training_set(
            [SquareIndicator(-1.0, -0.8, -0.5, -0.3),
             SquareIndicator(-0.9, -0.5, -0.6, -0.2),
             SquareIndicator(0.0, 0.3, -0.4, 0.1),
             SquareIndicator(-0.3, 0.0, -0.1, 0.1)],
            coarse_geom, coarse_split)
        gram = gram_matrix(ts, coarse_geom)
        u1 = ts.u1
        want = np.array([[boundary_time_inner(a, b, coarse_geom) for b in u1]
                         for a in u1])
        assert np.abs(gram - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(gram, gram.T)

    def test_gram_blocks_match_one_syrk(self, coarse_geom, coarse_split,
                                        monkeypatch):
        # the node blocks' partial Grams, added in block order, agree with
        # one SYRK over all of U1 to rounding, are exactly symmetric, and
        # give the same bytes for every thread count within each
        # representation; dense blocks of three tiles leave a last block of
        # 4 nodes (148 gamma1 nodes), whose tile is partial too, and the
        # table set's blocks of k basis columns per node hold more tiles.
        # The table Gram agrees with the traces' within 1e-12 of max|G|
        rng = np.random.default_rng(8)
        n, n_time = 40, coarse_geom.n_time
        n_nodes = len(coarse_split.gamma1_idx)
        monkeypatch.setattr(extension, "GRAM_BLOCK_BYTES",
                            3 * n * _TILE * n_time * 8)
        assert n_nodes % (3 * _TILE) == 4
        ts = TrainingSet(phantoms=[SquareIndicator(0, 1, 0, 1)] * n,
                         split=coarse_split,
                         tables=random_tables(rng, n, coarse_geom, coarse_split))
        dense = as_dense(ts)
        u1 = dense.u1_samples
        w = coarse_geom.ds * coarse_geom.dt
        want = dsyrk(w, u1.reshape(n, -1).T, trans=1, lower=1)
        want = np.tril(want) + np.tril(want, -1).T
        blocks, real = [], extension.parallel_map

        def recorded(fn, items, threads):
            blocks.append(list(items))
            return real(fn, items, threads)

        monkeypatch.setattr(extension, "parallel_map", recorded)
        grams = {(t, s.dense): gram_matrix(s, coarse_geom, threads=t)
                 for t in (1, 2, 4) for s in (ts, dense)}
        k = extension._gram_basis(ts.tables.wm, ts.tables.reach).shape[1]
        step = _TILE * (3 * n_time // k)
        n_table = -(-n_nodes // step)
        assert n_table == 2
        assert blocks == [list(range(n_table)), list(range(4))] * 3
        gram = grams[1, True]
        assert np.abs(gram - want).max() <= 1e-13 * np.abs(want).max()
        shift = np.abs(grams[1, False] - gram).max() / np.abs(gram).max()
        print(f"table Gram against the traces' Gram: {shift:.2e} of max|G|")
        assert shift <= 1e-12
        for g in grams.values():
            assert np.array_equal(g, g.T)
        for t in (2, 4):
            for d in (True, False):
                assert grams[t, d].tobytes() == grams[1, d].tobytes()

    def test_table_blocks_are_tile_runs_in_order(self, coarse_geom,
                                                 coarse_split, monkeypatch):
        # a table set's Gram runs its blocks of whole tiles over the gamma1
        # nodes in node order, at most GRAM_BLOCK_BYTES of k columns per
        # (phantom, node) each, and adds their partial Grams in that order:
        # the bytes of one block at a time
        ts = partition_set((16, 8), coarse_geom, coarse_split)
        assert not ts.dense
        m = len(coarse_split.gamma1_idx)
        k = extension._gram_basis(ts.tables.wm, ts.tables.reach).shape[1]
        monkeypatch.setattr(extension, "GRAM_BLOCK_BYTES",
                            2 * ts.n * _TILE * k * 8)
        seen, real = [], extension._node_blocks

        def recorded(ts, width, fn, threads=1):
            def block(lo, hi):
                part = fn(lo, hi)
                seen.append((lo, hi, part))
                return part
            return real(ts, width, block, threads)

        monkeypatch.setattr(extension, "_node_blocks", recorded)
        gram = gram_matrix(ts, coarse_geom)
        bounds = [(lo, hi) for lo, hi, _ in seen]
        assert bounds == [(lo, min(lo + 2 * _TILE, m))
                          for lo in range(0, m, 2 * _TILE)]
        want = sum(part for _, _, part in seen)
        want *= coarse_geom.ds * coarse_geom.dt
        want = np.tril(want) + np.tril(want, -1).T
        assert gram.tobytes() == want.tobytes()

    def test_identity_factorizes_with_zero_ridge(self):
        chol, ridge = factorize(np.eye(5))
        assert ridge == 0.0
        assert np.array_equal(chol, np.eye(5))

    def test_real_gram_needs_no_ridge(self, model8):
        assert model8.ridge == 0.0

    def test_near_singular_gets_ridge(self):
        v = np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]])
        chol, ridge = factorize(v)
        assert ridge >= 0.0  # may or may not need jitter, must not raise
        recon = chol @ chol.T
        assert np.abs(recon - v).max() <= 1e-6


class TestGramBasis:

    def test_basis_reproduces_the_map_product(self, coarse_geom, coarse_split):
        # W W^T = D D^T within C * eps * lambda_max on fewer columns than
        # rows; W is read-only and built once per (map, reach)
        wm = _boundary_wave_map(coarse_geom)
        reach = split_tables(training_partition(BOX, 1, 1), coarse_geom,
                             coarse_split).reach
        extension._gram_basis.cache_clear()
        w = extension._gram_basis(wm, reach)
        d = wm.diff_t[:reach]
        m = d @ d.T
        lam_max = np.linalg.eigvalsh(m)[-1]
        assert w.shape[0] == reach and w.shape[1] < reach
        assert np.abs(w @ w.T - m).max() <= \
            reach * np.finfo(float).eps * lam_max
        assert not w.flags.writeable
        assert extension._gram_basis(wm, reach) is w
        assert extension._gram_basis(wm, reach - 1) is not w
        assert extension._gram_basis.cache_info().misses == 2

    def test_table_gram_independent_of_openblas_threads(
            self, coarse_geom, coarse_split, blas_threads):
        from lvpat import _util
        ts = partition_set((16, 8), coarse_geom, coarse_split)
        assert not ts.dense
        grams = []
        for n in (2, 1):
            for _, set_ in _util._openblas():
                set_(n)
            extension._gram_basis.cache_clear()
            grams.append(gram_matrix(ts, coarse_geom, threads=2))
        assert grams[0].tobytes() == grams[1].tobytes()

    def test_small_cells_load_through_the_gram_check(
            self, coarse_geom, coarse_split, tmp_path):
        # cells of 1/160 x 1/160 hold one radius node per table row, the
        # shortest window; on load their stored Gram matches the rebuilt
        # set's `gram_matrix`, and its anchor diagonal the exact traces'
        # norms, within GRAM_CHECK_RTOL
        box = (-0.3, -0.25, -0.1, -0.075)
        ts = build_training_set(training_partition(box, 8, 4), coarse_geom,
                                coarse_split)
        assert not ts.dense and np.diff(ts.tables.indptr).max() == 1
        model = train_extension_model(ts, coarse_geom)
        model.partition = (8, 4, box)
        save_model(model, tmp_path / "small.patb")
        loaded = load_model(tmp_path / "small.patb")
        assert loaded.gram.tobytes() == model.gram.tobytes()


class TestProjection:

    def test_training_trace_gives_unit_vector(self, model8):
        for k in (0, 7, 31):
            c = project_coefficients(model8, model8.training.u1[k])
            want = np.zeros(model8.n)
            want[k] = 1.0
            assert np.abs(c - want).max() <= 1e-8

    def test_zero_data_gives_zero(self, model8):
        u0 = model8.training.u1[0].copy_with(
            np.zeros_like(model8.training.u1[0].samples))
        assert np.abs(project_coefficients(model8, u0)).max() == 0.0

    def test_two_term_mixture(self, model8, coarse_split):
        coefs = np.zeros(model8.n)
        coefs[0], coefs[1] = 0.3, 0.7
        u1, _ = mixture_data(model8, coefs, coarse_split)
        c = project_coefficients(model8, u1)
        assert np.abs(c - coefs).max() <= 1e-6

    def test_idempotence(self, model8):
        rng = np.random.default_rng(13)
        coefs = rng.uniform(-1, 1, model8.n)
        samples = sum(c * u.samples for c, u in zip(coefs, model8.training.u1))
        u1 = model8.training.u1[0].copy_with(samples)
        c1 = project_coefficients(model8, u1)
        samples2 = sum(c * u.samples for c, u in zip(c1, model8.training.u1))
        c2 = project_coefficients(model8, u1.copy_with(samples2))
        assert np.abs(c1 - c2).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 1), (4, 2)])
    def test_dense_halves_independent_of_threads(self, coarse_geom,
                                                 coarse_split, shape):
        # a dense set's right-hand side is two GEMVs over the phantom rows
        # [0, ceil(n/2)) and [ceil(n/2), n): the same coefficient and
        # extension bytes at threads 1, 2 and 4, an empty or odd half
        # included, and within rounding of one GEMV over all rows
        ts = partition_set(shape, coarse_geom, coarse_split)
        assert ts.dense
        model = train_extension_model(ts, coarse_geom)
        u1 = simulate_wave_data(TEST_PHANTOM, coarse_geom, coarse_split,
                                Part.GAMMA1)
        with serial_blas():
            coeffs = {t: project_coefficients(model, u1, threads=t)
                      for t in (1, 2, 4)}
            ext = {t: extend(model, u1, threads=t).samples for t in (1, 2, 4)}
            rhs = np.dot(ts.u1_samples.reshape(ts.n, -1), u1.samples.ravel())
        rhs *= coarse_geom.ds * coarse_geom.dt
        one = cho_solve((model.chol_lower, True), rhs)
        for t in (2, 4):
            assert coeffs[t].tobytes() == coeffs[1].tobytes()
            assert ext[t].tobytes() == ext[1].tobytes()
        assert np.abs(coeffs[1] - one).max() <= 1e-14 * np.abs(one).max()

    def test_fingerprint_mismatch_rejected(self, model8):
        bad = model8.training.u1[0]
        bad = WaveData(bad.part, bad.node_idx, bad.dt, bad.n_time, bad.samples,
                       "deadbeef")
        with pytest.raises(DataMismatchError):
            project_coefficients(model8, bad)


class TestExtend:

    @pytest.mark.parametrize("mismatch", [
        lambda u: dataclasses.replace(u, node_idx=u.node_idx[:-1],
                                      samples=u.samples[:-1]),
        lambda u: dataclasses.replace(u, n_time=u.n_time - 1,
                                      samples=u.samples[:, :-1]),
        lambda u: dataclasses.replace(u, dt=2 * u.dt),
        lambda u: dataclasses.replace(u, node_idx=u.node_idx[::-1],
                                      samples=u.samples[::-1]),
    ], ids=["node-dropped", "short-time-axis", "double-dt", "reversed-nodes"])
    def test_data_off_the_model_grid_rejected(self, model8, mismatch):
        # same fingerprint and part as the model, other nodes or time grid
        with pytest.raises(DataMismatchError):
            extend(model8, mismatch(model8.training.u1[0]))

    def test_training_member_is_reproduced(self, model8, coarse_geom):
        got = extend(model8, model8.training.u1[5])
        want = model8.training.u2[5]
        scale = boundary_time_norm(want, coarse_geom)
        diff = want.copy_with(got.samples - want.samples)
        assert boundary_time_norm(diff, coarse_geom) <= 1e-8 * scale

    def test_span_member_extension_is_exact(self, model8, coarse_geom,
                                            coarse_split):
        rng = np.random.default_rng(17)
        coefs = rng.uniform(-1, 1, model8.n)
        u1, mix = mixture_data(model8, coefs, coarse_split)
        got = extend(model8, u1)
        want = sum(c * u.samples for c, u in zip(coefs, model8.training.u2))
        rel = (np.linalg.norm(got.samples - want)
               / max(np.linalg.norm(want), 1e-30))
        assert rel <= 1e-8

    def test_linearity(self, model8):
        u_a = model8.training.u1[3]
        u_b = model8.training.u1[20]
        mixed = u_a.copy_with(0.25 * u_a.samples + 4.0 * u_b.samples)
        got = extend(model8, mixed).samples
        want = 0.25 * extend(model8, u_a).samples + 4.0 * extend(model8, u_b).samples
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale

    def test_nested_coarse_function_in_fine_model(self, ts32, coarse_geom,
                                                  coarse_split):
        # a 4x2 cell is a union of 32x16 cells, so the fine model must extend
        # its trace to solver accuracy
        cell = training_partition(BOX, 4, 2)[3]
        full = simulate_wave_data(cell, coarse_geom, coarse_split, Part.FULL)
        fine_model = train_extension_model(ts32, coarse_geom)
        got = extend(fine_model,
                     restrict_wave_data(full, coarse_split, Part.GAMMA1))
        want = restrict_wave_data(full, coarse_split, Part.GAMMA2)
        rel = (np.linalg.norm(got.samples - want.samples)
               / np.linalg.norm(want.samples))
        assert rel <= 1e-6

    def test_error_nonincreasing_against_truth(self, ts32, coarse_geom,
                                               coarse_split):
        full = simulate_wave_data(TEST_PHANTOM, coarse_geom, coarse_split,
                                  Part.FULL, threads=2)
        u1 = restrict_wave_data(full, coarse_split, Part.GAMMA1)
        u2 = restrict_wave_data(full, coarse_split, Part.GAMMA2)
        errs = []
        for shape in [(4, 2), (8, 4), (16, 8), (32, 16)]:
            ts = ts32 if shape == (32, 16) else partition_set(
                shape, coarse_geom, coarse_split)
            model = train_extension_model(ts, coarse_geom)
            got = extend(model, u1)
            diff = u2.copy_with(got.samples - u2.samples)
            errs.append(boundary_time_norm(diff, coarse_geom))
        assert all(np.isfinite(errs))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12, f"extension error increased: {errs}"


class TestTablePath:
    """Training sets above the crossover hold mean tables, not traces."""

    # (C, {partition: dense}) of the shipped configs, and of the
    # benchmark's pipeline (4x2, 8x4, 16x8) and apply (8x4) at step 0.04
    PATHS = {
        "smoke": (135, {(2, 1): True, (4, 2): True}),
        "reduced": (669, {(4, 2): True, (8, 4): True, (16, 8): False,
                          (32, 16): False}),
        "full": (1337, {(4, 2): True, (8, 4): True, (16, 8): True,
                        (32, 16): False}),
        "step 0.04": (335, {(4, 2): True, (8, 4): True, (16, 8): False}),
    }

    @staticmethod
    def step_004():
        """(geometry, split) of the benchmark's pipeline and apply."""
        raw = json.loads((CONFIG_DIR / "experiment_reduced.json").read_text())
        return read_geometry({**raw["geometry"], "spacing": 0.04, "dt": 0.04},
                             "geometry")

    def test_path_choice_pinned(self):
        # every partition of a box reaches the rows its whole box reaches,
        # so C comes from the 1x1 partition; the shipped n_list are pinned
        # too, so a config edit shows here
        for name, (reach, paths) in self.PATHS.items():
            if name == "step 0.04":
                geom, split = self.step_004()
                shapes = [(4, 2), (8, 4), (16, 8)]
            else:
                cfg = ExperimentConfig.from_json(
                    CONFIG_DIR / f"experiment_{name}.json")
                geom, split, shapes = cfg.geometry, cfg.split, cfg.n_list
                assert cfg.box == BOX
            whole = split_tables(training_partition(BOX, 1, 1), geom, split)
            assert whole.reach == reach, name
            assert [tuple(s) for s in shapes] == list(paths), name
            got = {tuple(s): extension._keeps_dense(s[0] * s[1], reach)
                   for s in shapes}
            assert got == paths, name

    def test_table_set_holds_a_tenth_of_the_traces(self):
        # the pipeline's 8x4 set holds exactly its dense U1 + U2 bytes, and
        # its 16x8 set keeps tables of at most 1/10 of them (array nbytes)
        geom, split = self.step_004()
        sizes = len(split.gamma1_idx) + len(split.gamma2_idx)
        for shape, dense in (((8, 4), True), ((16, 8), False)):
            ts = partition_set(shape, geom, split)
            assert ts.dense is dense
            traces = ts.n * sizes * geom.n_time * 8
            if dense:
                assert held_bytes(ts) == traces
            else:
                assert ts.tables.reach == 335
                assert 10 * held_bytes(ts) <= traces

    def test_span_member_exactness_above_crossover(self, medium_geom,
                                                   medium_split):
        # c4's check on a 16x8 model at step 0.04, above the crossover
        ts = partition_set((16, 8), medium_geom, medium_split)
        assert not ts.dense
        model = train_extension_model(ts, medium_geom, threads=2)
        rng = np.random.default_rng(99)
        coefs = rng.uniform(-1, 1, model.n)
        f = WeightedSum(tuple(zip(coefs, ts.phantoms)))
        full = simulate_wave_data(f, medium_geom, medium_split, Part.FULL,
                                  threads=2)
        u1 = restrict_wave_data(full, medium_split, Part.GAMMA1)
        u2 = restrict_wave_data(full, medium_split, Part.GAMMA2)
        diff = u2.copy_with(extend(model, u1).samples - u2.samples)
        rel = (boundary_time_norm(diff, medium_geom)
               / boundary_time_norm(u2, medium_geom))
        assert rel <= 1e-6

    def test_dense_and_table_paths_agree(self, model8, coarse_geom,
                                         coarse_split):
        # one model: Grams from both representations, coefficients and
        # extensions within 1e-12 of their maximum
        assert not model8.training.dense
        dense = dataclasses.replace(model8, training=as_dense(model8.training))
        gram = gram_matrix(dense.training, coarse_geom)
        assert np.abs(gram - model8.gram).max() <= 1e-12 * np.abs(gram).max()
        rng = np.random.default_rng(21)
        mixed, _ = mixture_data(model8, rng.uniform(-1, 1, model8.n),
                                coarse_split)
        for u1 in (simulate_wave_data(TEST_PHANTOM, coarse_geom, coarse_split,
                                      Part.GAMMA1), mixed):
            c_tab = project_coefficients(model8, u1)
            c_dense = project_coefficients(dense, u1)
            assert np.abs(c_tab - c_dense).max() <= 1e-12 * np.abs(c_dense).max()
            got, want = extend(model8, u1).samples, extend(dense, u1).samples
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestStitch:

    def test_parts_reassemble_exactly(self, coarse_geom, coarse_split):
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        full = simulate_wave_data(p, coarse_geom, coarse_split, Part.FULL)
        u1 = restrict_wave_data(full, coarse_split, Part.GAMMA1)
        u2 = restrict_wave_data(full, coarse_split, Part.GAMMA2)
        again = stitch(u1, u2, coarse_geom, coarse_split)
        assert np.array_equal(again.samples, full.samples)

    @pytest.mark.parametrize("interval", [GAMMA2_INTERVAL, (3.0, 3.4)])
    def test_extend_full_is_extend_then_stitch(self, coarse_geom, interval):
        # one fresh array with the bytes of extend and then stitch, for a
        # dense (4x2) and a table (8x4) set: the extension is written in
        # place while the gamma2 nodes are one run, copied in when they wrap
        # past node 0
        split = split_boundary(coarse_geom, interval)
        g2 = split.gamma2_idx
        run = bool(np.all(np.diff(g2) == 1))
        assert run is (interval == GAMMA2_INTERVAL)
        u1 = simulate_wave_data(TEST_PHANTOM, coarse_geom, split, Part.GAMMA1)
        for shape in ((4, 2), (8, 4)):
            model = train_extension_model(
                partition_set(shape, coarse_geom, split), coarse_geom)
            u2, full = extend_full(model, u1, threads=2)
            want = stitch(u1, extend(model, u1), coarse_geom, split)
            assert full.samples.tobytes() == want.samples.tobytes()
            assert u2.samples.tobytes() == want.samples[g2].tobytes()
            assert np.shares_memory(u2.samples, full.samples) is run
            with pytest.raises(ParameterError):
                extend(model, u1, out=np.empty((coarse_geom.n_time, len(g2))))

    def test_zero_extension(self, coarse_geom, coarse_split):
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        u1 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)
        u0 = zero_extend(u1, coarse_geom, coarse_split)
        assert np.all(u0.samples[coarse_split.gamma2_idx] == 0.0)
        assert np.array_equal(u0.samples[coarse_split.gamma1_idx], u1.samples)

    def test_mismatched_fingerprints_rejected(self, coarse_geom, coarse_split):
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        u1 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)
        u2 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA2)
        fake = WaveData(u2.part, u2.node_idx, u2.dt, u2.n_time, u2.samples, "bad")
        with pytest.raises(DataMismatchError):
            stitch(u1, fake, coarse_geom, coarse_split)

    def test_other_dt_rejected(self, coarse_geom, coarse_split):
        # a part sampled at another dt is not stitched under the other's
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        u1 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)
        u2 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA2)
        for a, b in ((u1, dataclasses.replace(u2, dt=2 * u2.dt)),
                     (dataclasses.replace(u1, dt=2 * u1.dt), u2)):
            with pytest.raises(DataMismatchError, match="dt="):
                stitch(a, b, coarse_geom, coarse_split)

    def test_other_n_time_rejected(self, coarse_geom, coarse_split):
        # a part with another step count, or both parts off the geometry's
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        u1 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)
        u2 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA2)

        def short(u):
            return dataclasses.replace(u, n_time=u.n_time - 1,
                                       samples=u.samples[:, :-1])

        for a, b in ((u1, short(u2)), (short(u1), u2), (short(u1), short(u2))):
            with pytest.raises(DataMismatchError, match="steps"):
                stitch(a, b, coarse_geom, coarse_split)

    def test_wrong_parts_rejected(self, coarse_geom, coarse_split):
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        u1 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)
        with pytest.raises(DataMismatchError):
            stitch(u1, u1, coarse_geom, coarse_split)


# bad values of a number in a model's meta; MISSING drops the key
MISSING = object()
BAD_NUMBERS = {"missing": MISSING, "nan": float("nan"),
               "infinite": float("inf"), "zero": 0.0, "negative": -0.1,
               "text": "0.1"}


def bad_geometry(*keys):
    """(path into meta, bad value) cases for geometry keys, with ids
    "<bad>-<key>"."""
    return [pytest.param(("geometry", key), bad, id=f"{name}-{key}")
            for key in keys for name, bad in BAD_NUMBERS.items()]


def same_bytes(a, b):
    """Whether two training sets hold the same representation with the same
    bytes: both tensors, or the tables and their sparse parts' indices."""
    return a.dense is b.dense and all(
        u.tobytes() == v.tobytes()
        for u, v in zip(held_arrays(a), held_arrays(b)))


class TestPersistence:

    def test_round_trip_bit_exact(self, model8, tmp_path):
        # the load simulates the traces again on one thread (model8 was
        # trained on two) and refactorizes the stored Gram matrix
        path = tmp_path / "model.patb"
        save_model(model8, path)
        again = load_model(path, expected_fingerprint=model8.fingerprint)
        assert np.array_equal(again.gram, model8.gram)
        assert np.array_equal(again.chol_lower, model8.chol_lower)
        assert again.ridge == model8.ridge
        assert again.training.phantoms == model8.training.phantoms
        assert again.fingerprint == model8.fingerprint
        assert same_bytes(again.training, model8.training)
        assert again.partition is None
        # saving the reloaded model reproduces the same bytes
        path2 = tmp_path / "model2.patb"
        save_model(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_partition_round_trip(self, model8, tmp_path):
        path = tmp_path / "model.patb"
        save_model(dataclasses.replace(model8, partition=(8, 4, BOX)), path)
        again = load_model(path, threads=2)
        assert again.partition == (8, 4, BOX)
        assert same_bytes(again.training, model8.training)

    def test_fingerprint_checked_on_load(self, model8, tmp_path):
        path = tmp_path / "model.patb"
        save_model(model8, path)
        with pytest.raises(DataMismatchError):
            load_model(path, expected_fingerprint="0123456789abcdef")

    def test_no_trace_is_simulated_for_a_foreign_model(self, model8, tmp_path,
                                                       monkeypatch):
        # the expected and the rebuilt fingerprints are checked before the
        # forward runs
        def forbidden(*args, **kwargs):
            raise AssertionError("traces simulated")

        path = tmp_path / "model.patb"
        self.corrupt_meta(model8, path, ("fingerprint",), "0123456789abcdef")
        monkeypatch.setattr(extension, "build_training_set", forbidden)
        with pytest.raises(DataMismatchError):
            load_model(path, expected_fingerprint=model8.fingerprint)
        with pytest.raises(ContainerFormatError, match="fingerprint"):
            load_model(path)

    def test_no_cholesky_section_stored(self, model8, tmp_path):
        from lvpat.io import read_container
        path = tmp_path / "model.patb"
        save_model(model8, path)
        sections = dict(read_container(BytesIO(path.read_bytes())))
        assert list(sections) == ["meta", "gram"]
        meta = json.loads(sections["meta"])
        assert sorted(meta) == ["fingerprint", "geometry", "phantoms",
                                "versions"]
        assert sorted(meta["versions"]) == ["numpy", "scipy"]

    @staticmethod
    def corrupt_section(model, path, section, corrupt):
        """Save model to path with corrupt(array) applied to one section.

        corrupt edits the array in place, or returns a replacement for it.
        """
        from lvpat.io import read_container
        save_model(model, path)
        sections = read_container(BytesIO(path.read_bytes()))
        for k, (name, value) in enumerate(sections):
            if name == section:
                replaced = corrupt(value)
                if replaced is not None:
                    sections[k] = (name, replaced)
        path.write_bytes(write_container(sections))

    def corrupt_meta(self, model, path, keys, bad):
        """Save model to path with meta[keys[0]][keys[1]]... set to bad,
        or dropped when bad is MISSING."""
        def corrupt(text):
            meta = json.loads(text)
            node = meta
            for key in keys[:-1]:
                node = node[key]
            if bad is MISSING:
                del node[keys[-1]]
            else:
                node[keys[-1]] = bad
            return json.dumps(meta, sort_keys=True)

        self.corrupt_section(model, path, "meta", corrupt)

    def bad_meta_rejected(self, model, tmp_path, keys, bad):
        path = tmp_path / "model.patb"
        self.corrupt_meta(model, path, keys, bad)
        with pytest.raises(ContainerFormatError):
            load_model(path)

    @pytest.mark.parametrize("section", ["gram"])
    def test_non_finite_section_rejected(self, model8, tmp_path, section):
        path = tmp_path / "model.patb"

        def corrupt(value):
            value.flat[value.size // 2] = np.nan

        self.corrupt_section(model8, path, section, corrupt)
        with pytest.raises(ContainerFormatError, match=section):
            load_model(path)

    @pytest.mark.parametrize("section, corrupt", [
        ("gram", lambda g: g[:-1, :-1]),
        ("gram", lambda g: g[:, :-1]),
    ], ids=["gram-n", "gram-square"])
    def test_count_mismatch_rejected(self, model8, tmp_path, section, corrupt):
        path = tmp_path / "model.patb"
        self.corrupt_section(model8, path, section, corrupt)
        with pytest.raises(ContainerFormatError, match=f"{section}.*shape"):
            load_model(path)

    @pytest.mark.parametrize("keys, bad", [
        *bad_geometry("dt", "t_max"),
        pytest.param(("phantoms",), 5, id="number-phantoms"),
    ])
    def test_bad_time_axis_rejected(self, model8, tmp_path, keys, bad):
        self.bad_meta_rejected(model8, tmp_path, keys, bad)

    @pytest.mark.parametrize("bad", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
    def test_bad_boundary_weight_rejected(self, model8, tmp_path, bad):
        # the spacing sets the boundary weight ds
        self.bad_meta_rejected(model8, tmp_path, ("geometry", "spacing"), bad)

    @pytest.mark.parametrize("keys, bad", [
        *bad_geometry("a1", "a2", "gamma2_theta_lo", "gamma2_theta_hi"),
        pytest.param(("geometry",), [1.0], id="list-geometry"),
        pytest.param(("geometry", "t_maxx"), 20.0, id="unknown-key"),
    ])
    def test_bad_geometry_rejected(self, model8, tmp_path, keys, bad):
        # a value that builds some other geometry fails the fingerprint
        self.bad_meta_rejected(model8, tmp_path, keys, bad)

    @pytest.mark.parametrize("keys, bad, error", [
        (("partition",), [8, 0], ContainerFormatError),
        (("partition",), [-8, 4], ContainerFormatError),
        (("partition",), [8.5, 4], ContainerFormatError),
        (("partition",), ["8", 4], ContainerFormatError),
        (("partition",), [4, 4], ContainerFormatError),
        (("partition",), [4, 8], ContainerFormatError),
        (("box",), MISSING, ContainerFormatError),
        (("box",), [BOX[0], 0.6, *BOX[2:]], ContainerFormatError),
        (("box",), "box", ContainerFormatError),
        # a degenerate box fails as in a config
        (("box",), [BOX[0], float("nan"), *BOX[2:]], ParameterError),
        (("box",), [BOX[0], float("inf"), *BOX[2:]], ParameterError),
        (("box",), [BOX[1], BOX[0], *BOX[2:]], ParameterError),
    ], ids=["zero-shape", "negative-shape", "fractional-shape", "text-shape",
            "other-count", "transposed", "missing-box", "other-box",
            "text-box", "nan-box", "infinite-box", "degenerate-box"])
    def test_bad_partition_rejected(self, model8, tmp_path, keys, bad, error):
        # a stored shape and box must tile the box into exactly the phantoms
        path = tmp_path / "model.patb"
        self.corrupt_meta(dataclasses.replace(model8, partition=(8, 4, BOX)),
                          path, keys, bad)
        with pytest.raises(error):
            load_model(path)

    def test_non_symmetric_gram_rejected(self, model8, tmp_path):
        path = tmp_path / "model.patb"

        def corrupt(gram):
            gram[0, 1] += 1e-3 * np.abs(gram).max()

        self.corrupt_section(model8, path, "gram", corrupt)
        with pytest.raises(ParameterError, match="symmetric"):
            load_model(path)

    @pytest.fixture(scope="class")
    def model4(self, coarse_geom, coarse_split):
        return train_extension_model(
            partition_set((4, 2), coarse_geom, coarse_split), coarse_geom)

    def test_gram_of_other_phantoms_rejected(self, model4, model8, tmp_path):
        # symmetric and positive definite, but 1e-9 away from the Gram
        # matrix of the model's traces, for a dense set and for a table set
        # (model8 on this geometry)
        assert model4.training.dense and not model8.training.dense
        for model in (model4, model8):
            path = tmp_path / "model.patb"
            self.corrupt_section(model, path, "gram",
                                 lambda gram: gram * (1.0 + 1e-9))
            with pytest.raises(ContainerFormatError,
                               match="not the Gram matrix"):
                load_model(path)

    @pytest.mark.parametrize("name", ["model4", "model8"])
    def test_off_diagonal_tamper_rejected(self, name, request, tmp_path):
        # G[0, 1] and G[1, 0] move by 1e-6 of max|G|: the stored Gram stays
        # symmetric and positive definite and keeps the traces' diagonal,
        # for a dense set (model4) and for a table set (model8)
        model = request.getfixturevalue(name)
        path = tmp_path / "model.patb"

        def corrupt(gram):
            gram[[0, 1], [1, 0]] += 1e-6 * np.abs(gram).max()
            assert np.linalg.eigvalsh(gram).min() > 0.0

        self.corrupt_section(model, path, "gram", corrupt)
        with pytest.raises(ContainerFormatError, match="not the Gram matrix"):
            load_model(path)

    def test_load_builds_the_anchor_traces_only(self, model8, coarse_geom,
                                                coarse_split, tmp_path,
                                                monkeypatch):
        # the Gram is checked through `gram_matrix`; only the anchors 0 and
        # n - 1 build their exact gamma1 traces from a table set's rows, and
        # a one-phantom model has one anchor
        calls, read = [], []
        apply_rows = extension.apply_rows
        getitem = extension._PartTraces.__getitem__

        def counted_rows(tables, start, length, out):
            calls.append((start, length))
            apply_rows(tables, start, length, out)

        def counted_getitem(traces, k):
            read.append(k)
            return getitem(traces, k)

        one = train_extension_model(build_training_set(
            [SquareIndicator(-1.0, -0.8, -0.5, -0.3)], coarse_geom,
            coarse_split), coarse_geom)
        save_model(model8, tmp_path / "model8.patb")
        save_model(one, tmp_path / "one.patb")
        monkeypatch.setattr(extension, "apply_rows", counted_rows)
        monkeypatch.setattr(extension._PartTraces, "__getitem__",
                            counted_getitem)
        loaded = load_model(tmp_path / "model8.patb")
        m = len(coarse_split.gamma1_idx)
        row0 = loaded.training.tables.row0[0]
        assert calls == [(row0, m), (row0 + 31 * m, m)]
        assert read == [0, 31]
        del calls[:], read[:]
        loaded = load_model(tmp_path / "one.patb")
        assert loaded.gram.tobytes() == one.gram.tobytes()
        assert calls == [] and read == [0]

    def test_truncated_file_rejected(self, model8, tmp_path):
        path = tmp_path / "model.patb"
        save_model(model8, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ContainerFormatError):
            load_model(path)
