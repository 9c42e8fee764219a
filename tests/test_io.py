import hashlib
import json
import struct
import tracemalloc
from io import BytesIO

import numpy as np
import pytest

from lvpat.errors import ContainerFormatError, ParameterError
from lvpat.forward import Part, WaveData
from lvpat.io import (dump_container, export_csv, export_pgm, read_container,
                      read_image_field, read_wave_data, write_image_field,
                      write_wave_data)
from lvpat.phantoms import ImageField

from conftest import write_container


class TestContainer:

    def test_tensor_round_trip(self):
        arr = np.arange(6.0).reshape(3, 2)
        sections = [("data", arr), ("note", "hello")]
        blob = write_container(sections)
        back = read_container(BytesIO(blob))
        assert back[0][0] == "data"
        assert np.array_equal(back[0][1], arr)
        assert back[1] == ("note", "hello")

    def test_deterministic_bytes(self):
        arr = np.linspace(0, 1, 17).reshape(17, 1)
        a = write_container([("x", arr), ("m", "meta")])
        b = write_container([("x", arr.copy()), ("m", "meta")])
        assert a == b

    def test_bytes_match_pinned_reference(self):
        # sha256 of the container this section list has always produced: text
        # with a non-ASCII character, an empty tensor, a Fortran-ordered
        # tensor (written row-major) and an integer one (written as float64)
        sections = [("meta", '{"dt": 0.25, "note": "\u00e9"}'),
                    ("empty", np.zeros((0, 3))),
                    ("ramp", np.arange(12.0).reshape(3, 4) / 7.0),
                    ("fortran", np.asfortranarray(
                        np.arange(6.0).reshape(2, 3) - 2.5)),
                    ("ints", np.array([3, 5, 8]))]
        blob = write_container(sections)
        assert len(blob) == 394
        assert hashlib.sha256(blob).hexdigest() == (
            "e052ab3a969e86b177a7300a5a69d29238961583fa2d9add25d9beeee16c04a9")

    def test_files_match_pinned_reference(self, tmp_path):
        # sha256 of the files the wave-data and image writers have always
        # produced for these inputs
        w = WaveData(Part.GAMMA1, np.array([3, 5, 8]), 0.25, 4,
                     np.arange(12.0).reshape(3, 4) / 3.0, "cafef00d")
        write_wave_data(w, tmp_path / "w.patb")
        vals = np.arange(6.0).reshape(2, 3) / 9.0
        write_image_field(ImageField((-1.0, 0.5), 0.125, vals, vals > 0.2),
                          tmp_path / "f.patb")
        digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("w.patb", "f.patb")}
        assert digest == {
            "w.patb": "7450721c5625cb526a4181a5535a0f74f3652aa21afcecd7fd76e158daeafa73",
            "f.patb": "68df11591d8000ac04456dfd85df0c2c74de977196a60430274658d0f5467066"}

    def test_long_name_leaves_file_empty(self, tmp_path):
        # headers are checked before anything is written
        path = tmp_path / "c.patb"
        with open(path, "wb") as fh:
            with pytest.raises(ParameterError):
                dump_container([("x", np.ones(3)), ("y" * 17, "text")], fh)
        assert path.read_bytes() == b""

    def test_read_tensors_own_their_data(self):
        blob = write_container([("x", np.arange(4.0)), ("m", "meta")])
        (_, arr), _ = read_container(BytesIO(blob))
        assert arr.base is None and arr.flags.writeable
        arr[0] = 9.0
        assert read_container(BytesIO(blob))[0][1][0] == 0.0

    def test_empty_section_list(self):
        blob = write_container([])
        assert read_container(BytesIO(blob)) == []

    def test_bad_magic_rejected(self):
        blob = bytearray(write_container([("x", np.ones((2, 2)))]))
        blob[:4] = b"BTAP"
        with pytest.raises(ContainerFormatError):
            read_container(BytesIO(bytes(blob)))

    def test_truncation_rejected(self):
        blob = write_container([("x", np.ones((4, 4)))])
        with pytest.raises(ContainerFormatError):
            read_container(BytesIO(blob[:-5]))

    def test_trailing_garbage_rejected(self):
        blob = write_container([("x", np.ones((2, 2)))])
        with pytest.raises(ContainerFormatError):
            read_container(BytesIO(blob + b"\x00"))

    def test_bad_version_rejected(self):
        blob = bytearray(write_container([]))
        blob[4] = 9
        with pytest.raises(ContainerFormatError):
            read_container(BytesIO(bytes(blob)))

    def test_unknown_kind_rejected(self):
        blob = bytearray(write_container([("x", np.ones((1, 1)))]))
        # kind field sits right after the 16-byte name, which follows the
        # 12-byte file header
        blob[12 + 16] = 7
        with pytest.raises(ContainerFormatError):
            read_container(BytesIO(bytes(blob)))

    def test_length_mismatch_rejected(self):
        blob = bytearray(write_container([("x", np.ones((2, 3)))]))
        # dims start after header(12) + name(16) + kind/rank(8)
        blob[12 + 16 + 8] = 5  # claim 5 rows instead of 2
        with pytest.raises(ContainerFormatError):
            read_container(BytesIO(bytes(blob)))

    @pytest.mark.parametrize("where, encoding", [(12, "ascii"), (50, "utf-8")],
                             ids=["name", "text"])
    def test_undecodable_bytes_rejected(self, where, encoding):
        # byte 12 starts the first section name, byte 50 lies in its text
        blob = bytearray(write_container([("meta", '{"key": "value"}')]))
        blob[where] = 0xFF
        with pytest.raises(ContainerFormatError, match=f"not {encoding}"):
            read_container(BytesIO(bytes(blob)))

    def test_dims_beyond_int64_rejected(self):
        # 2**22 * 2**21 * 2**21 = 2**64 elements: a product in int64 wraps to
        # 0 and would match this empty payload
        blob = (b"PATB" + struct.pack("<II", 1, 1) + b"x".ljust(16, b"\0")
                + struct.pack("<5IQ", 0, 3, 2 ** 22, 2 ** 21, 2 ** 21, 0))
        with pytest.raises(ContainerFormatError, match="payload length"):
            read_container(BytesIO(blob))

    @pytest.mark.parametrize("kind, dims", [(0, (2 ** 20, 2 ** 17)), (1, ())],
                             ids=["tensor", "text"])
    def test_length_beyond_file_rejected(self, kind, dims):
        # a header that declares 2**40 payload bytes is rejected against the
        # bytes left in the file, before anything is allocated for it
        blob = (b"PATB" + struct.pack("<II", 1, 1) + b"x".ljust(16, b"\0")
                + struct.pack(f"<II{len(dims)}IQ", kind, len(dims), *dims,
                              2 ** 40) + b"\0" * 64)
        with pytest.raises(ContainerFormatError, match="truncated"):
            read_container(BytesIO(blob))

    def test_read_starts_at_the_file_position(self):
        blob = write_container([("x", np.arange(3.0))])
        fh = BytesIO(b"header" + blob)
        fh.seek(6)
        ((name, arr),) = read_container(fh)
        assert name == "x" and np.array_equal(arr, np.arange(3.0))

    @staticmethod
    def u32_offsets(blob) -> list:
        """Offsets of every u32 field of a valid container: the version, the
        section count, and per section the kind, rank, dims and both halves
        of the u64 byte length."""
        offsets, pos = [4, 8], 12
        for _ in range(struct.unpack_from("<I", blob, 8)[0]):
            rank = struct.unpack_from("<I", blob, pos + 20)[0]
            offsets += [pos + 16 + 4 * k for k in range(2 + rank)]
            pos += 24 + 4 * rank
            offsets += [pos, pos + 4]
            pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
        return offsets

    def test_fuzzed_containers_raise_only_format_errors(self):
        # seeded truncations, bit flips and u32 fields overwritten with huge
        # values: each mutant parses or raises ContainerFormatError
        meta = json.dumps({"part": "gamma1", "dt": 0.25, "n_time": 4,
                           "fingerprint": "cafef00d"})
        blob = write_container([("meta", meta),
                                ("node_idx", np.array([3.0, 5.0, 8.0])),
                                ("samples", np.arange(12.0).reshape(3, 4))])
        offsets = self.u32_offsets(blob)
        assert offsets[-1] + 4 + 96 == len(blob)
        rng = np.random.default_rng(6)
        rejected = 0
        for trial in range(3000):
            mutant = bytearray(blob)
            if trial % 3 == 0:
                mutant = mutant[:rng.integers(0, len(blob))]
            elif trial % 3 == 1:
                for bit in rng.integers(0, 8 * len(blob), rng.integers(1, 4)):
                    mutant[bit // 8] ^= 1 << (bit % 8)
            else:
                huge = int(rng.choice([2 ** 31, 2 ** 32 - 1, 2 ** 30 + 7]))
                struct.pack_into("<I", mutant, int(rng.choice(offsets)), huge)
            try:
                read_container(BytesIO(bytes(mutant)))
            except ContainerFormatError:
                rejected += 1
        assert rejected > 2000

    def test_long_name_rejected(self):
        with pytest.raises(ParameterError):
            write_container([("x" * 17, np.ones((1, 1)))])

    def test_wave_data_round_trip(self, tmp_path):
        w = WaveData(Part.GAMMA1, np.array([3, 5, 8]), 0.25, 4,
                     np.arange(12.0).reshape(3, 4), "cafef00d")
        path = tmp_path / "w.patb"
        write_wave_data(w, path)
        back = read_wave_data(path)
        assert back.part is Part.GAMMA1
        assert np.array_equal(back.node_idx, w.node_idx)
        assert back.dt == w.dt
        assert np.array_equal(back.samples, w.samples)
        assert back.fingerprint == w.fingerprint

    def test_wave_data_read_in_place(self, tmp_path):
        # read_container reads each tensor straight into its array, so
        # reading 8 MB of wave data makes no copy of the file
        n_nodes, n_time = 500, 2000
        w = WaveData(Part.FULL, np.arange(n_nodes), 0.01, n_time,
                     np.random.default_rng(3).standard_normal(
                         (n_nodes, n_time)), "cafef00d")
        path = tmp_path / "w.patb"
        write_wave_data(w, path)
        tracemalloc.start()
        try:
            back = read_wave_data(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * path.stat().st_size
        assert np.array_equal(back.samples, w.samples)

    def write_raw_wave_data(self, path, node_idx, samples, n_time=4):
        meta = json.dumps({"part": "gamma1", "dt": 0.25, "n_time": n_time,
                           "fingerprint": "cafef00d"})
        path.write_bytes(write_container([("meta", meta),
                                          ("node_idx", node_idx),
                                          ("samples", samples)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_wave_data_non_finite_samples_rejected(self, tmp_path, bad):
        samples = np.arange(12.0).reshape(3, 4)
        samples[1, 2] = bad
        path = tmp_path / "w.patb"
        self.write_raw_wave_data(path, np.array([3.0, 5.0, 8.0]), samples)
        with pytest.raises(ContainerFormatError, match="non-finite"):
            read_wave_data(path)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -0.1, 0.0])
    def test_wave_data_bad_time_step_rejected(self, tmp_path, dt):
        w = WaveData(Part.GAMMA1, np.array([3, 5, 8]), dt, 4,
                     np.arange(12.0).reshape(3, 4), "cafef00d")
        path = tmp_path / "w.patb"
        write_wave_data(w, path)
        with pytest.raises(ContainerFormatError, match="time step"):
            read_wave_data(path)

    @pytest.mark.parametrize("n_time", [4.5, 0, -4, "4", True])
    def test_wave_data_bad_n_time_rejected(self, tmp_path, n_time):
        # 4.5 used to be truncated to the samples' 4 columns and accepted
        path = tmp_path / "w.patb"
        self.write_raw_wave_data(path, np.array([3.0, 5.0, 8.0]),
                                 np.arange(12.0).reshape(3, 4), n_time=n_time)
        with pytest.raises(ContainerFormatError, match="n_time"):
            read_wave_data(path)

    @pytest.mark.parametrize("node_idx, reason", [
        ([3.0, 5.5, 8.0], "integers"),
        ([3.0, np.nan, 8.0], "integers"),
        ([3.0, -5.0, 8.0], "negative"),
        ([3.0, 5.0, 3.0], "repeats"),
        ([3.0, 1e30, 8.0], "2\\^32"),
    ], ids=["fractional", "nan", "negative", "duplicate", "beyond-u32"])
    def test_wave_data_bad_node_idx_rejected(self, tmp_path, node_idx, reason):
        path = tmp_path / "w.patb"
        self.write_raw_wave_data(path, np.array(node_idx),
                                 np.arange(12.0).reshape(3, 4))
        with pytest.raises(ContainerFormatError, match=reason):
            read_wave_data(path)

    @pytest.mark.parametrize("meta, message", [
        ('{"part": "foo", "dt": 0.25, "n_time": 4, "fingerprint": "f"}',
         "part 'foo'"),
        (np.ones((1, 1)), "meta"),
        ("[1, 2]", "meta"),
        ("{", "meta"),
        ("[" * 100000, "meta"),
    ], ids=["unknown-part", "tensor-meta", "list-meta", "not-json",
            "deep-nesting"])
    def test_wave_data_bad_meta_rejected(self, tmp_path, meta, message):
        path = tmp_path / "w.patb"
        path.write_bytes(write_container([
            ("meta", meta), ("node_idx", np.array([3.0, 5.0, 8.0])),
            ("samples", np.arange(12.0).reshape(3, 4))]))
        with pytest.raises(ContainerFormatError, match=message):
            read_wave_data(path)

    def test_image_field_round_trip(self, tmp_path):
        f = ImageField((0.5, -1.0), 0.125, np.arange(20.0).reshape(4, 5),
                       np.arange(20).reshape(4, 5) % 3 == 0)
        path = tmp_path / "f.patb"
        write_image_field(f, path)
        back = read_image_field(path)
        assert back.origin == f.origin and back.h == f.h
        assert np.array_equal(back.values, f.values)
        assert np.array_equal(back.domain_mask, f.domain_mask)

    @staticmethod
    def write_raw_image_field(path, values, mask,
                              meta='{"origin": [0.0, 0.0], "h": 0.5}'):
        path.write_bytes(write_container([("meta", meta), ("values", values),
                                          ("mask", mask)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_image_field_non_finite_values_rejected(self, tmp_path, bad):
        values = np.arange(12.0).reshape(3, 4)
        values[2, 1] = bad
        path = tmp_path / "f.patb"
        self.write_raw_image_field(path, values, np.ones((3, 4)))
        with pytest.raises(ContainerFormatError, match="values.*non-finite"):
            read_image_field(path)

    @pytest.mark.parametrize("bad", [np.nan, 0.5, 2.0, -1.0])
    def test_image_field_non_binary_mask_rejected(self, tmp_path, bad):
        mask = np.ones((3, 4))
        mask[0, 3] = bad
        path = tmp_path / "f.patb"
        self.write_raw_image_field(path, np.zeros((3, 4)), mask)
        with pytest.raises(ContainerFormatError, match="mask"):
            read_image_field(path)

    @pytest.mark.parametrize("meta, message", [
        ({"origin": [0.0, 0.0], "h": float("nan")}, "grid step"),
        ({"origin": [0.0, 0.0], "h": 0.0}, "grid step"),
        ({"origin": [0.0, 0.0], "h": "0.5"}, "grid step"),
        ({"origin": [0.0], "h": 0.5}, "origin"),
        ({"origin": [float("inf"), 0.0], "h": 0.5}, "origin"),
        ({"origin": "ab", "h": 0.5}, "origin"),
        ([0.0, 0.5], "meta"),
    ], ids=["nan-h", "zero-h", "text-h", "one-coordinate", "infinite-origin",
            "text-origin", "list-meta"])
    def test_image_field_bad_meta_rejected(self, tmp_path, meta, message):
        path = tmp_path / "f.patb"
        self.write_raw_image_field(path, np.zeros((3, 4)), np.ones((3, 4)),
                                   json.dumps(meta))
        with pytest.raises(ContainerFormatError, match=message):
            read_image_field(path)


class TestPgm:

    def read_pgm(self, path):
        raw = path.read_bytes()
        header, rest = raw.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        w, h = (int(v) for v in dims.split())
        maxval, rest = rest.split(b"\n", 1)
        assert int(maxval) == 65535
        return np.frombuffer(rest, dtype=">u2").reshape(h, w)

    def field(self, values, mask=None):
        mask = np.ones(values.shape, dtype=bool) if mask is None else mask
        return ImageField((0.0, 0.0), 1.0, values, mask)

    def test_constant_extremes(self, tmp_path):
        lo_field = self.field(np.zeros((4, 3)))
        export_pgm(lo_field, 0.0, 1.0, tmp_path / "lo.pgm")
        assert np.all(self.read_pgm(tmp_path / "lo.pgm") == 0)
        hi_field = self.field(np.ones((4, 3)))
        export_pgm(hi_field, 0.0, 1.0, tmp_path / "hi.pgm")
        assert np.all(self.read_pgm(tmp_path / "hi.pgm") == 65535)

    def test_ramp_monotone_and_clamped(self, tmp_path):
        vals = np.linspace(-0.5, 1.5, 32)[:, None] * np.ones((32, 4))
        export_pgm(self.field(vals), 0.0, 1.0, tmp_path / "r.pgm")
        img = self.read_pgm(tmp_path / "r.pgm")
        col = img[0, :]  # top row is the largest x... columns are x
        assert np.all(np.diff(img[:, 0].astype(int)) <= 0)  # y descends row-wise
        assert img.min() == 0 and img.max() == 65535

    def test_masked_cells_mid_gray(self, tmp_path):
        vals = np.zeros((3, 3))
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        export_pgm(self.field(vals, mask), 0.0, 1.0, tmp_path / "m.pgm")
        img = self.read_pgm(tmp_path / "m.pgm")
        assert img[1, 1] == 32768

    def test_bad_range_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            export_pgm(self.field(np.zeros((2, 2))), 1.0, 1.0, tmp_path / "x.pgm")


class TestCsv:

    def test_empty_report(self, tmp_path):
        export_csv([], tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text() == "variant,n,E2,E_n\n"

    def test_single_variant(self, tmp_path):
        export_csv([("zero", 0, 0.5, 0.25)], tmp_path / "e.csv")
        lines = (tmp_path / "e.csv").read_text().strip().split("\n")
        assert lines[0] == "variant,n,E2,E_n"
        assert lines[1] == "zero,0,0.5,0.25"

    def test_row_order(self, tmp_path):
        # rows keep the order given; None leaves a cell empty
        rows = [("zero", 0, 0.5, 1.0), ("8x4", 32, 0.3, 0.4),
                ("4x2", 8, 0.4, 0.6), ("full", None, 0.1, None)]
        export_csv(rows, tmp_path / "e.csv")
        lines = (tmp_path / "e.csv").read_text().strip().split("\n")
        assert lines[1:] == ["zero,0,0.5,1.0", "8x4,32,0.3,0.4",
                             "4x2,8,0.4,0.6", "full,,0.1,"]

    def test_rejects_negative_values(self, tmp_path):
        for e2, e_n in [(-1.0, None), (0.5, -1e-300)]:
            with pytest.raises(ParameterError, match="'4x2'"):
                export_csv([("zero", 0, 0.5, 0.5), ("4x2", 8, e2, e_n)],
                           tmp_path / "e.csv")
        assert not (tmp_path / "e.csv").exists()

    def test_rejects_non_finite(self, tmp_path):
        for e2, e_n in [(np.nan, None), (np.inf, 0.5), (0.5, np.inf),
                        (0.5, -np.inf)]:
            with pytest.raises(ParameterError, match="finite"):
                export_csv([("8x4", 32, e2, e_n)], tmp_path / "e.csv")
        assert not (tmp_path / "e.csv").exists()
