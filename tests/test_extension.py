import dataclasses
import json
import tracemalloc
from io import BytesIO

import numpy as np
import pytest

from lvpat.errors import (ContainerFormatError, DataMismatchError,
                          ParameterError, SingularTrainingSetError)
from lvpat.extension import (GRAM_BLOCK_NODES, TrainingSet,
                             build_training_set, extend, factorize,
                             gram_matrix, load_model, project_coefficients,
                             save_model, stitch, train_extension_model,
                             zero_extend)
from lvpat.forward import Part, WaveData, restrict_wave_data, simulate_wave_data
from lvpat.metrics import boundary_time_inner, boundary_time_norm
from lvpat.phantoms import SquareIndicator, WeightedSum, training_partition

from conftest import BOX, TEST_PHANTOM


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
        n_time = coarse_geom.n_time
        assert ts32.u1_samples.shape == (512, len(coarse_split.gamma1_idx), n_time)
        assert ts32.u2_samples.shape == (512, len(coarse_split.gamma2_idx), n_time)
        view = ts32.u2[7].samples
        assert np.shares_memory(view, ts32.u2_samples)
        assert not view.flags.writeable

    def test_tensors_are_restrictions_of_full_simulations(self, coarse_geom,
                                                          coarse_split):
        # squares, an ellipse and a nested sum of both kernels go through one
        # forward pass per boundary part; each phantom's rows are its own
        # full-boundary data, bit for bit, at every thread count
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
        for threads in (1, 2, 4):
            ts = build_training_set(phantoms, coarse_geom, coarse_split,
                                    threads=threads)
            assert ts.u1_samples.tobytes() == u1.tobytes()
            assert ts.u2_samples.tobytes() == u2.tobytes()

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

    @pytest.mark.parametrize("bad", ["phantoms", "u1_idx", "u2_idx", "n_time"])
    def test_constructor_rejects_mismatched_tensors(self, coarse_split, bad):
        i1, i2 = coarse_split.gamma1_idx, coarse_split.gamma2_idx
        args = dict(phantoms=[SquareIndicator(k, k + 1, 0, 1) for k in range(3)],
                    u1_idx=i1, u2_idx=i2, u1_samples=np.zeros((3, len(i1), 6)),
                    u2_samples=np.zeros((3, len(i2), 6)), dt=0.1,
                    fingerprint=coarse_split.fingerprint())
        TrainingSet(**args)
        if bad == "phantoms":
            args["phantoms"] = args["phantoms"][:2]
        elif bad == "n_time":
            args["u2_samples"] = np.zeros((3, len(i2), 5))
        else:
            args[bad] = args[bad][1:]
        with pytest.raises(ParameterError):
            TrainingSet(**args)


class TestGramAndFactorization:

    def test_orthonormal_traces_give_identity(self, coarse_geom, coarse_split):
        idx = coarse_split.gamma1_idx
        w = coarse_geom.weights[idx] * coarse_geom.dt
        n_time = coarse_geom.n_time
        fp = coarse_split.fingerprint()
        traces = np.zeros((4, len(idx), n_time))
        for k in range(4):
            traces[k, 3 * k, 5 + k] = 1.0 / np.sqrt(w[3 * k] * 1.0)
        phantoms = [SquareIndicator(k, k + 1, 0, 1) for k in range(4)]
        ts = TrainingSet(phantoms=phantoms, u1_idx=idx, u2_idx=idx,
                         u1_samples=traces, u2_samples=traces,
                         dt=coarse_geom.dt, fingerprint=fp)
        gram = gram_matrix(ts, coarse_geom)
        assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_gram_matches_pairwise_inner_products(self, coarse_geom,
                                                  coarse_split):
        # the boundary's own weights are uniform; uneven ones make a weight
        # applied along the time axis instead of the node axis show
        nodes = np.arange(coarse_geom.n_nodes)
        geom = dataclasses.replace(
            coarse_geom, weights=coarse_geom.weights * (1.5 + np.sin(nodes)))
        ts = build_training_set(
            [SquareIndicator(-1.0, -0.8, -0.5, -0.3),
             SquareIndicator(-0.9, -0.5, -0.6, -0.2),
             SquareIndicator(0.0, 0.3, -0.4, 0.1),
             SquareIndicator(-0.3, 0.0, -0.1, 0.1)],
            coarse_geom, coarse_split)
        gram = gram_matrix(ts, geom)
        u1 = ts.u1
        want = np.array([[boundary_time_inner(a, b, geom) for b in u1]
                         for a in u1])
        assert np.abs(gram - want).max() <= 1e-12 * np.abs(want).max()
        # the gamma1 node count is no multiple of the node block, so the
        # last block is a partial one
        assert len(ts.u1_idx) % GRAM_BLOCK_NODES != 0
        assert np.array_equal(gram, gram.T)

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

    def test_fingerprint_mismatch_rejected(self, model8):
        bad = model8.training.u1[0]
        bad = WaveData(bad.part, bad.node_idx, bad.dt, bad.n_time, bad.samples,
                       "deadbeef")
        with pytest.raises(DataMismatchError):
            project_coefficients(model8, bad)


class TestExtend:

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


class TestStitch:

    def test_parts_reassemble_exactly(self, coarse_geom, coarse_split):
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        full = simulate_wave_data(p, coarse_geom, coarse_split, Part.FULL)
        u1 = restrict_wave_data(full, coarse_split, Part.GAMMA1)
        u2 = restrict_wave_data(full, coarse_split, Part.GAMMA2)
        again = stitch(u1, u2, coarse_geom, coarse_split)
        assert np.array_equal(again.samples, full.samples)

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

    def test_wrong_parts_rejected(self, coarse_geom, coarse_split):
        p = SquareIndicator(-1.0, -0.6, -0.5, -0.1)
        u1 = simulate_wave_data(p, coarse_geom, coarse_split, Part.GAMMA1)
        with pytest.raises(DataMismatchError):
            stitch(u1, u1, coarse_geom, coarse_split)


class TestPersistence:

    def test_round_trip_bit_exact(self, model8, tmp_path):
        path = tmp_path / "model.patb"
        save_model(model8, path)
        again = load_model(path, expected_fingerprint=model8.fingerprint)
        assert np.array_equal(again.gram, model8.gram)
        assert np.array_equal(again.chol_lower, model8.chol_lower)
        assert again.ridge == model8.ridge
        assert np.array_equal(again.training.u1_samples,
                              model8.training.u1_samples)
        assert np.array_equal(again.training.u2_samples,
                              model8.training.u2_samples)
        # saving the reloaded model reproduces the same bytes
        path2 = tmp_path / "model2.patb"
        save_model(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_reads_payloads_in_place(self, model8, tmp_path):
        # each tensor is read straight into its array: no copy of the file
        path = tmp_path / "model.patb"
        save_model(model8, path)
        tracemalloc.start()
        try:
            load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * path.stat().st_size

    def test_fingerprint_checked_on_load(self, model8, tmp_path):
        path = tmp_path / "model.patb"
        save_model(model8, path)
        with pytest.raises(DataMismatchError):
            load_model(path, expected_fingerprint="0123456789abcdef")

    def test_no_cholesky_section_stored(self, model8, tmp_path):
        from lvpat.io import read_container
        path = tmp_path / "model.patb"
        save_model(model8, path)
        sections = dict(read_container(BytesIO(path.read_bytes())))
        assert list(sections) == ["meta", "gram", "weights", "u1_idx",
                                  "u2_idx", "u1", "u2"]
        assert "ridge" not in json.loads(sections["meta"])

    @staticmethod
    def corrupt_section(model, path, section, corrupt):
        """Save model to path with corrupt(array) applied to one section.

        corrupt edits the array in place, or returns a replacement for it.
        """
        from lvpat.io import read_container, write_container
        save_model(model, path)
        sections = read_container(BytesIO(path.read_bytes()))
        for k, (name, value) in enumerate(sections):
            if name == section:
                replaced = corrupt(value)
                if replaced is not None:
                    sections[k] = (name, replaced)
        path.write_bytes(write_container(sections))

    @pytest.mark.parametrize("section", ["gram", "weights", "u1", "u2"])
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
        ("weights", lambda w: w[:-1]),
        ("u1", lambda u: u[:-1]),
        ("u1", lambda u: u[:, :-1]),
        ("u1", lambda u: u[:, :, :-1]),
        ("u2", lambda u: u[:-1]),
        ("u2", lambda u: u[:, :-1]),
        ("u2", lambda u: u[:, :, :-1]),
    ], ids=["gram-n", "gram-square", "weights-nodes", "u1-n", "u1-nodes",
            "u1-time", "u2-n", "u2-nodes", "u2-time"])
    def test_count_mismatch_rejected(self, model8, tmp_path, section, corrupt):
        path = tmp_path / "model.patb"
        self.corrupt_section(model8, path, section, corrupt)
        with pytest.raises(ContainerFormatError, match=f"{section}.*shape"):
            load_model(path)

    @pytest.mark.parametrize("key, bad, message", [
        ("dt", lambda dt: float("nan"), "time step"),
        ("dt", lambda dt: 0.0, "time step"),
        ("dt", lambda dt: -0.1, "time step"),
        ("n_time", lambda n: n + 0.5, "n_time"),
        ("n_time", lambda n: 0, "n_time"),
        ("n_time", lambda n: -n, "n_time"),
    ], ids=["nan-dt", "zero-dt", "negative-dt", "fractional-n_time",
            "zero-n_time", "negative-n_time"])
    def test_bad_time_axis_rejected(self, model8, tmp_path, key, bad, message):
        # the fractional n_time used to be truncated to the tensors' length
        path = tmp_path / "model.patb"

        def corrupt(text):
            meta = json.loads(text)
            meta[key] = bad(meta[key])
            return json.dumps(meta, sort_keys=True)

        self.corrupt_section(model8, path, "meta", corrupt)
        with pytest.raises(ContainerFormatError, match=message):
            load_model(path)

    def test_non_symmetric_gram_rejected(self, model8, tmp_path):
        path = tmp_path / "model.patb"

        def corrupt(gram):
            gram[0, 1] += 1e-3 * np.abs(gram).max()

        self.corrupt_section(model8, path, "gram", corrupt)
        with pytest.raises(ParameterError, match="symmetric"):
            load_model(path)

    @pytest.mark.parametrize("section", ["u1_idx", "u2_idx"])
    @pytest.mark.parametrize("bad, reason", [
        (lambda idx: idx[1] + 0.5, "integers"),
        (lambda idx: -1.0, "negative"),
        (lambda idx: idx[0], "repeats"),
    ], ids=["fractional", "negative", "duplicate"])
    def test_bad_node_index_rejected(self, model8, tmp_path, section, bad, reason):
        path = tmp_path / "model.patb"

        def corrupt(value):
            value[1] = bad(value)

        self.corrupt_section(model8, path, section, corrupt)
        with pytest.raises(ContainerFormatError, match=f"{section}.*{reason}"):
            load_model(path)

    def test_overlapping_node_indices_rejected(self, model8, tmp_path):
        path = tmp_path / "model.patb"
        u1_idx = model8.training.u1_idx

        def corrupt(value):
            value[0] = u1_idx[0]

        self.corrupt_section(model8, path, "u2_idx", corrupt)
        with pytest.raises(ContainerFormatError, match="share node indices"):
            load_model(path)

    def test_node_index_gap_rejected(self, model8, tmp_path):
        path = tmp_path / "model.patb"
        ts = model8.training
        n_nodes = len(ts.u1_idx) + len(ts.u2_idx)

        def corrupt(value):
            value[-1] = n_nodes

        self.corrupt_section(model8, path, "u1_idx", corrupt)
        with pytest.raises(ContainerFormatError, match="do not cover"):
            load_model(path)

    def test_truncated_file_rejected(self, model8, tmp_path):
        path = tmp_path / "model.patb"
        save_model(model8, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ContainerFormatError):
            load_model(path)
