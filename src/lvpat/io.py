"""Bit-exact binary persistence and figure/report export.

Container layout (all integers little-endian):
    magic "PATB" | version u32 = 1 | section count u32
    per section: name (16 bytes, zero-padded ASCII) | kind u32 | rank u32 |
                 dims u32 * rank | byte length u64 | payload
Kind 0 payloads are row-major IEEE-754 float64 tensors, kind 1 payloads are
UTF-8 metadata strings.  Output bytes are a pure function of the input
sections, so identical runs produce identical files.
"""

from __future__ import annotations

import json
import math
import struct
from io import SEEK_END, BytesIO

import numpy as np

from .errors import ContainerFormatError, ParameterError
from .forward import Part, WaveData
from .metrics import ErrorReport
from .phantoms import ImageField

MAGIC = b"PATB"
VERSION = 1
KIND_TENSOR = 0
KIND_TEXT = 1

_U32_MAX = 2 ** 32 - 1


def dump_container(sections, fh) -> None:
    """Write (name, value) pairs to the binary file fh; value is an ndarray
    or a str.  Every header is checked before the first byte is written, and
    tensors go to the file from their own buffers, without a bytes copy."""
    parts = []
    for name, value in sections:
        raw_name = name.encode("ascii")
        if len(raw_name) > 16:
            raise ParameterError(f"section name {name!r} longer than 16 bytes")
        header = raw_name.ljust(16, b"\0")
        if isinstance(value, str):
            payload = value.encode("utf-8")
            header += struct.pack("<IIQ", KIND_TEXT, 0, len(payload))
        else:
            payload = np.ascontiguousarray(value, dtype="<f8")
            if any(d > _U32_MAX for d in payload.shape):
                raise ParameterError("tensor dimension exceeds u32 range")
            header += (struct.pack("<II", KIND_TENSOR, payload.ndim)
                       + struct.pack(f"<{payload.ndim}I", *payload.shape)
                       + struct.pack("<Q", payload.nbytes))
        parts.append((header, payload))
    fh.write(MAGIC + struct.pack("<II", VERSION, len(parts)))
    for header, payload in parts:
        fh.write(header)
        fh.write(payload)


def write_container(sections) -> bytes:
    """The bytes `dump_container` writes for these sections."""
    buf = BytesIO()
    dump_container(sections, buf)
    return buf.getvalue()


class _Reader:
    """Consumes a container from a binary file object.  Every read is
    checked against the bytes left in the file before anything is
    allocated for it, so a corrupt length cannot ask for more memory than
    the file holds."""

    def __init__(self, fh):
        self.fh = fh
        self.pos = fh.tell()
        self.end = fh.seek(0, SEEK_END)
        fh.seek(self.pos)

    def reserve(self, n: int) -> None:
        if n > self.end - self.pos:
            raise ContainerFormatError("container truncated")
        self.pos += n

    def take(self, n: int) -> bytes:
        self.reserve(n)
        out = self.fh.read(n)
        if len(out) != n:
            raise ContainerFormatError("container truncated")
        return out

    def take_tensor(self, dims) -> np.ndarray:
        """A float64 array of shape dims, read straight from the file."""
        nbytes = 8 * math.prod(dims)
        self.reserve(nbytes)
        arr = np.empty(dims, dtype="<f8")
        if nbytes and self.fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise ContainerFormatError("container truncated")
        return arr


def _decode(raw: bytes, encoding: str, what: str) -> str:
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError:
        raise ContainerFormatError(f"{what} is not {encoding} text") from None


def read_container(fh):
    """Parse a container from the binary file object fh, from its current
    position to its end, into a list of (name, value) pairs.  Tensors are
    read straight into their arrays."""
    rd = _Reader(fh)
    if rd.take(4) != MAGIC:
        raise ContainerFormatError("bad magic")
    version, count = struct.unpack("<II", rd.take(8))
    if version != VERSION:
        raise ContainerFormatError(f"unsupported container version {version}")
    sections = []
    for _ in range(count):
        name = _decode(rd.take(16).rstrip(b"\0"), "ascii", "section name")
        kind, rank = struct.unpack("<II", rd.take(8))
        dims = struct.unpack(f"<{rank}I", rd.take(4 * rank)) if rank else ()
        (length,) = struct.unpack("<Q", rd.take(8))
        if kind == KIND_TEXT:
            if rank != 0:
                raise ContainerFormatError("metadata section with nonzero rank")
            sections.append((name, _decode(rd.take(length), "utf-8",
                                           f"section {name!r}")))
        elif kind == KIND_TENSOR:
            if rank == 0:
                raise ContainerFormatError("tensor section with rank 0")
            if length != 8 * math.prod(dims):
                raise ContainerFormatError(
                    f"section {name!r}: payload length {length} != dims {dims}")
            sections.append((name, rd.take_tensor(dims)))
        else:
            raise ContainerFormatError(f"unknown section kind {kind}")
    if rd.pos != rd.end:
        raise ContainerFormatError("trailing bytes after last section")
    return sections


def finite_section(name: str, arr: np.ndarray) -> np.ndarray:
    """arr itself; ContainerFormatError if it holds NaN or infinity.

    NaN propagates through min and max, so the two reductions see every
    non-finite entry without a temporary of arr's size."""
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ContainerFormatError(f"section {name!r} holds non-finite values")
    return arr


def node_index_section(name: str, arr: np.ndarray) -> np.ndarray:
    """Node indices stored as float64, as distinct non-negative integers."""
    if arr.ndim != 1 or not np.all(np.isfinite(arr)) or \
       np.any(arr != np.floor(arr)):
        raise ContainerFormatError(f"section {name!r} is not a list of integers")
    if np.any(arr < 0):
        raise ContainerFormatError(f"section {name!r} holds negative node indices")
    if len(np.unique(arr)) != len(arr):
        raise ContainerFormatError(f"section {name!r} repeats a node index")
    return arr.astype(int)


def time_axis(meta: dict) -> tuple:
    """(dt, n_time) of a container's metadata: dt finite and positive,
    n_time a positive whole number."""
    dt, n_time = meta["dt"], meta["n_time"]
    if isinstance(dt, bool) or not isinstance(dt, (int, float)) or \
       not (dt > 0 and math.isfinite(dt)):
        raise ContainerFormatError(f"time step {dt!r} is not finite and positive")
    if isinstance(n_time, bool) or not isinstance(n_time, (int, float)) or \
       not (n_time >= 1 and float(n_time).is_integer()):
        raise ContainerFormatError(f"n_time {n_time!r} is not a positive "
                                   f"whole number")
    return float(dt), int(n_time)


def write_wave_data(w: WaveData, path) -> None:
    meta = json.dumps({"part": w.part.value, "dt": w.dt, "n_time": w.n_time,
                       "fingerprint": w.fingerprint}, sort_keys=True)
    sections = [("meta", meta), ("node_idx", w.node_idx.astype(float)),
                ("samples", w.samples)]
    with open(path, "wb") as fh:
        dump_container(sections, fh)


def read_wave_data(path) -> WaveData:
    with open(path, "rb") as fh:
        sections = dict(read_container(fh))
    meta = json.loads(sections["meta"])
    dt, n_time = time_axis(meta)
    return WaveData(part=Part(meta["part"]),
                    node_idx=node_index_section("node_idx", sections["node_idx"]),
                    dt=dt, n_time=n_time,
                    samples=finite_section("samples", sections["samples"]),
                    fingerprint=meta["fingerprint"])


def write_image_field(f: ImageField, path) -> None:
    meta = json.dumps({"origin": list(f.origin), "h": f.h}, sort_keys=True)
    sections = [("meta", meta), ("values", f.values),
                ("mask", f.domain_mask.astype(float))]
    with open(path, "wb") as fh:
        dump_container(sections, fh)


def read_image_field(path) -> ImageField:
    with open(path, "rb") as fh:
        sections = dict(read_container(fh))
    meta = json.loads(sections["meta"])
    mask = sections["mask"]
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ContainerFormatError("section 'mask' holds entries other than 0 and 1")
    return ImageField(origin=tuple(meta["origin"]), h=float(meta["h"]),
                      values=finite_section("values", sections["values"]),
                      domain_mask=mask == 1.0)


def export_pgm(field: ImageField, lo: float, hi: float, path) -> None:
    """16-bit binary PGM with [lo, hi] mapped affinely to [0, 65535].

    Values are clamped; masked-out cells render mid-gray.  Rows run top to
    bottom in decreasing y, columns in increasing x.
    """
    if hi <= lo:
        raise ParameterError("need hi > lo for gray scaling")
    scaled = (field.values - lo) / (hi - lo) * 65535.0
    pix = np.clip(np.rint(scaled), 0, 65535).astype(">u2")
    pix = np.where(field.domain_mask, pix, np.uint16(32768))
    img = pix.T[::-1, :].astype(">u2")  # rows top-to-bottom = y descending
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + img.tobytes())


def export_csv(report: ErrorReport, path) -> None:
    """Write "variant,n,E2,E_n" rows: zero extension first, then learned
    variants by ascending n, the full-view reference last."""
    variant_n = report.metadata.get("variant_n", {})
    rows = []
    for variant, e2 in report.e2_per_variant.items():
        n = variant_n.get(variant)
        rows.append((variant, n, e2))
    rows.sort(key=lambda r: (r[1] is None, r[1] if r[1] is not None else 0, r[0]))
    lines = ["variant,n,E2,E_n"]
    for variant, n, e2 in rows:
        e_n = report.e_n_factors.get(n)
        n_txt = "" if n is None else str(n)
        e_n_txt = "" if e_n is None else repr(float(e_n))
        lines.append(f"{variant},{n_txt},{repr(float(e2))},{e_n_txt}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
