"""Command-line front end: simulate, train, extend, reconstruct, evaluate,
and the one-shot limited-view experiment pipeline.

Configs are JSON files; paths inside a config resolve relative to the config
file.  Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._util import (json_object, load_json, number, numbers, required,
                    serial_blas)
from .errors import (ContainerFormatError, DataMismatchError, ParameterError,
                     SingularTrainingSetError)
from .extension import (build_training_set, extend_full, load_model,
                        save_model, train_extension_model, zero_extend)
from .forward import (Part, WaveData, check_wave_data, restrict_wave_data,
                      simulate_wave_data)
from .geometry import BoundaryGeometry, BoundarySplit, read_geometry
from .inversion import reconstruct
from .io import (export_csv, export_pgm, read_image_field, read_wave_data,
                 write_image_field, write_wave_data)
from .metrics import boundary_time_norm, e2_error, subspace_distance
from .phantoms import (GridSpec, ImageField, phantom_from_dict, rasterize,
                       training_partition)

CONFIG_ERROR_EXIT = 2
NUMERIC_ERROR_EXIT = 3


def _path(value, what: str, base: Path) -> Path:
    """A config path, resolved relative to the config file's folder."""
    if not isinstance(value, str):
        raise ParameterError(f"{what} must be a path string, got {value!r}")
    return (base / value).resolve()


# the keys a config and its grid may hold; any other key is an error
_CONFIG_KEYS = ("geometry", "phantom", "box", "n_list", "grid", "out_dir",
                "threads")
_GRID_KEYS = ("origin", "h", "nx", "ny")


@dataclass
class ExperimentConfig:
    geometry: BoundaryGeometry
    split: BoundarySplit
    grid: GridSpec
    phantom_path: Path
    box: tuple
    n_list: list  # of (n_w, n_h), by ascending partition size
    out_dir: Path
    threads: int

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """The config at path, with its boundary, split and grid built.

        Missing keys, values of the wrong type or shape and keys that the
        config, its geometry or its grid do not have raise ParameterError;
        so do values out of range, from the objects they build."""
        path = Path(path)
        with open(path, "r", encoding="utf-8") as fh:
            raw = json_object(load_json(fh, f"config {path}"), "config",
                              keys=_CONFIG_KEYS)
        base = path.parent
        geometry, split = read_geometry(required(raw, "geometry", "config"),
                                        "geometry")
        grid = json_object(required(raw, "grid", "config"), "grid",
                           keys=_GRID_KEYS)
        n_list = required(raw, "n_list", "config")
        if not isinstance(n_list, list):
            raise ParameterError(f"n_list must be a list of [n_w, n_h] "
                                 f"pairs, got {n_list!r}")
        n_list = sorted((numbers(pair, 2, "n_list entry", whole=True,
                                 positive=True)
                         for pair in n_list), key=lambda p: p[0] * p[1])
        for i, (n_w, n_h) in enumerate(n_list):
            if (n_w, n_h) in n_list[:i]:
                raise ParameterError(f"n_list repeats partition {n_w}x{n_h}")
            if n_w != 2 * n_h:
                warnings.warn(f"partition {n_w}x{n_h} does not follow n_w = 2*n_h")
        # the box meets the rule that every training cell meets later,
        # before any output is written
        box = numbers(required(raw, "box", "config"), 4, "box")
        training_partition(box, 1, 1)  # a degenerate box fails here
        x_lo, x_hi, y_lo, y_hi = box
        corners = [(x, y) for x in (x_lo, x_hi) for y in (y_lo, y_hi)]
        if not np.all(geometry.domain.contains(corners)):
            raise ParameterError(f"box {list(box)} is not inside the domain")
        phantom_path = _path(required(raw, "phantom", "config"), "phantom",
                             base)
        if not phantom_path.exists():
            raise ParameterError(f"phantom spec not found: {phantom_path}")
        origin, h, nx, ny = (required(grid, key, "grid") for key in _GRID_KEYS)
        return cls(
            geometry=geometry,
            split=split,
            grid=GridSpec(origin=numbers(origin, 2, "grid.origin"),
                          h=number(h, "grid.h"),
                          nx=number(nx, "grid.nx", whole=True),
                          ny=number(ny, "grid.ny", whole=True),
                          domain=geometry.domain),
            phantom_path=phantom_path,
            box=box,
            n_list=n_list,
            out_dir=_path(raw.get("out_dir", "out"), "out_dir", base),
            threads=number(raw.get("threads", 1), "threads", whole=True,
                           positive=True),
        )

    def build_geometry(self) -> tuple:
        """(geometry, split)."""
        return self.geometry, self.split

    def load_phantom(self, path=None):
        path = path or self.phantom_path
        with open(path, "r", encoding="utf-8") as fh:
            return phantom_from_dict(load_json(fh, f"phantom spec {path}"))


def _gray_range(field: ImageField, pad: float) -> tuple:
    """PGM gray range: the field's range over its domain, widened on each
    side by `pad` times its width; a constant field maps [0, 1]."""
    vals = field.values[field.domain_mask]
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        lo, hi = 0.0, 1.0
    pad *= hi - lo
    return lo - pad, hi + pad


def _write_wave(data: WaveData, path: Path, amp: float | None = None) -> None:
    """Write a wave-data container; given an amplitude, also its samples as
    a PGM beside it with the gray range [-amp, amp]."""
    write_wave_data(data, path)
    if amp is not None:
        image = ImageField(origin=(0.0, 0.0), h=1.0, values=data.samples,
                           domain_mask=np.ones(data.samples.shape, dtype=bool))
        export_pgm(image, -amp, amp, path.with_suffix(".pgm"))


def _train(cfg: ExperimentConfig, n_w, n_h):
    """One model, simulated from scratch; returns (model, wall seconds).

    The timing covers everything a standalone build costs: trace simulation,
    Gram assembly, and factorization.
    """
    t0 = time.perf_counter()
    ts = build_training_set(training_partition(cfg.box, n_w, n_h),
                            cfg.geometry, cfg.split, threads=cfg.threads)
    model = train_extension_model(ts, cfg.geometry, cfg.threads)
    return (replace(model, partition=(n_w, n_h, cfg.box)),
            time.perf_counter() - t0)


def _extend(cfg: ExperimentConfig, model, u1: WaveData):
    """(gamma2 extension, stitched full-boundary data, seconds for both);
    cfg.threads spreads a dense set's projection."""
    t0 = time.perf_counter()
    u2_hat, stitched = extend_full(model, u1, cfg.threads)
    return u2_hat, stitched, time.perf_counter() - t0


def _reconstruct(cfg: ExperimentConfig, data: WaveData, path: Path,
                 gray: tuple | None = None):
    """Back-project, write the image and its PGM beside it (gray range
    `gray`, else the image's own range); returns (image, seconds of the
    back-projection)."""
    t0 = time.perf_counter()
    image = reconstruct(data, cfg.geometry, cfg.grid)
    elapsed = time.perf_counter() - t0
    write_image_field(image, path)
    export_pgm(image, *(gray or _gray_range(image, 0.0)),
               path.with_suffix(".pgm"))
    return image, elapsed


def cmd_simulate(cfg: ExperimentConfig, phantom_path, part: Part) -> int:
    phantom = cfg.load_phantom(phantom_path)
    t0 = time.perf_counter()
    data = simulate_wave_data(phantom, cfg.geometry, cfg.split, part,
                              threads=cfg.threads)
    elapsed = time.perf_counter() - t0
    out = cfg.out_dir / f"data_{part.value}.patb"
    _write_wave(data, out)
    print(f"simulate: {out} ({len(data.node_idx)} nodes, {elapsed:.2f} s)")
    return 0


def cmd_train(cfg: ExperimentConfig) -> int:
    for n_w, n_h in cfg.n_list:
        model, elapsed = _train(cfg, n_w, n_h)
        path = cfg.out_dir / f"model_{n_w}x{n_h}.patb"
        save_model(model, path)
        print(f"train: {path} (n={model.n}, ridge={model.ridge:.3e}, "
              f"{elapsed:.2f} s)")
        del model
    return 0


def cmd_extend(cfg: ExperimentConfig, model_path, data_path) -> int:
    u1 = read_wave_data(data_path)
    model = load_model(model_path, expected_fingerprint=cfg.split.fingerprint(),
                       threads=cfg.threads)
    if model.partition is None:
        raise ParameterError("model holds no square partition shape")
    u2_hat, stitched, elapsed = _extend(cfg, model, u1)
    n_w, n_h, _ = model.partition
    name = f"{n_w}x{n_h}"
    full_path = cfg.out_dir / f"extended_{name}.patb"
    _write_wave(u2_hat, cfg.out_dir / f"gamma2_hat_{name}.patb")
    _write_wave(stitched, full_path)
    print(f"extend: {full_path} ({elapsed:.3f} s)")
    return 0


def cmd_reconstruct(cfg: ExperimentConfig, data_path) -> int:
    data = read_wave_data(data_path)
    check_wave_data(data, Part.FULL, np.arange(cfg.geometry.n_nodes),
                    cfg.geometry, cfg.split.fingerprint())
    path = cfg.out_dir / f"recon_{Path(data_path).stem}.patb"
    _, elapsed = _reconstruct(cfg, data, path)
    print(f"reconstruct: {path} ({elapsed:.2f} s)")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, recon_paths, phantom_path) -> int:
    stems = [Path(path).stem for path in recon_paths]  # the rows' names
    for stem in stems:
        if stems.count(stem) > 1:
            raise ParameterError(f"--data repeats the stem {stem!r}")
    truth = rasterize(cfg.load_phantom(phantom_path), cfg.grid)
    export_csv(sorted((stem, None, e2_error(read_image_field(path), truth),
                       None) for stem, path in zip(stems, recon_paths)),
               cfg.out_dir / "errors.csv")
    print(f"evaluate: {cfg.out_dir / 'errors.csv'}")
    return 0


# one variant, r[:4] its errors.csv row; the full view has only name, e2, seconds
_Row = namedtuple("_Row", "name n e2 e_n image_error gamma2_error seconds")


def _extensions(cfg: ExperimentConfig, u1: WaveData):
    """(name, n, stitched full-boundary data, training phantoms, stage
    seconds) of the zero extension, then of each learned extension by
    ascending partition size.  A model is released before the next is
    trained: the training traces are the largest allocation."""
    yield "zero", 0, zero_extend(u1, cfg.geometry, cfg.split), [], {}
    for n_w, n_h in cfg.n_list:
        model, train_s = _train(cfg, n_w, n_h)
        _, stitched, extend_s = _extend(cfg, model, u1)
        n, phantoms = model.n, model.training.phantoms
        del model
        yield (f"{n_w}x{n_h}", n, stitched, phantoms,
               {"train": train_s, "extend": extend_s})


@serial_blas()
def run_experiment(cfg: ExperimentConfig, threads: int | None = None) -> dict:
    """Full limited-view pipeline; returns a summary dict (also written to disk).

    Produces, under cfg.out_dir: wave-data containers and PGMs for the true
    data and each extension, reconstruction containers and PGMs for the
    full-view, zero-extension, and learned variants, an error CSV, and a
    timing CSV.  `threads`, when given, overrides cfg.threads.  Each stage
    runs the same helper as its subcommand, so the outputs other than
    timings.csv equal those of the simulate/train/extend/reconstruct chain.

    The summary holds "e2" by variant, "e_n" by n, "image_error" (distance
    to the full-view image) and "gamma2_error" (||u2_hat - u2|| / ||u2||, NaN
    for u2 = 0) by extension, and "timings" by learned variant.

    The whole run is inside `_util.serial_blas`: its BLAS calls use one
    thread, so OpenBLAS's idle workers do not spin against the forward's
    `threads`, and every output byte except timings.csv is the same for any
    `threads` and any OpenBLAS thread setting.  The BLAS thread count is
    process-wide, so BLAS calls that other threads of the process make
    during the run are serial too; the previous count comes back when the
    run returns or raises.
    """
    if threads is not None:
        cfg = replace(cfg, threads=threads)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    phantom = cfg.load_phantom()
    truth = rasterize(phantom, cfg.grid)
    gray = _gray_range(truth, 0.2)

    full = simulate_wave_data(phantom, cfg.geometry, cfg.split, Part.FULL,
                              threads=cfg.threads)
    u1 = restrict_wave_data(full, cfg.split, Part.GAMMA1)
    amp = float(np.abs(full.samples).max()) or 1.0
    _write_wave(full, out / "data_full.patb", amp)
    _write_wave(u1, out / "data_gamma1.patb")

    u2 = restrict_wave_data(full, cfg.split, Part.GAMMA2)
    u2_norm = boundary_time_norm(u2, cfg.geometry) or float("nan")
    full_image, full_s = _reconstruct(cfg, full, out / "recon_full.patb", gray)
    rows = [_Row("full", None, e2_error(full_image, truth), None, None, None,
                 {"reconstruct": full_s})]
    for name, n, data, training, seconds in _extensions(cfg, u1):
        image, seconds["reconstruct"] = _reconstruct(
            cfg, data, out / f"recon_{name}.patb", gray)
        _write_wave(data, out / f"extended_{name}.patb", amp)
        u2_err = u2.copy_with(data.samples[cfg.split.gamma2_idx] - u2.samples)
        rows.append(_Row(name, n, e2_error(image, truth),
                         subspace_distance(phantom, training, cfg.grid),
                         e2_error(image, full_image),
                         boundary_time_norm(u2_err, cfg.geometry) / u2_norm,
                         seconds))

    full_row, *extensions = rows
    zero, *learned = extensions
    by_size = sorted(learned, key=lambda r: (r.n, r.name))
    export_csv([r[:4] for r in [zero, *by_size, full_row]], out / "errors.csv")
    with open(out / "timings.csv", "w", encoding="utf-8") as fh:
        fh.write("variant,n,train_s,extend_s,reconstruct_s\n")
        for r in [*learned, full_row, zero]:
            fh.write(",".join([r.name, "" if r.n is None else str(r.n)] + [
                f"{r.seconds[k]:.6f}" if k in r.seconds else ""
                for k in ("train", "extend", "reconstruct")]) + "\n")

    print("experiment: E2 " + ", ".join(f"{r.name}={r.e2:.5f}" for r in rows))
    return {"e2": {r.name: r.e2 for r in rows},
            "e_n": {r.n: r.e_n for r in extensions},
            "image_error": {r.name: r.image_error for r in extensions},
            "gamma2_error": {r.name: r.gamma2_error for r in extensions},
            "timings": {r.name: r.seconds for r in learned}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvpat",
        description="Limited-view photoacoustic data completion and "
                    "back-projection reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, phantom=False, model=False, data=False, multi_data=False):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None)
        if phantom:
            p.add_argument("--phantom", required=True, help="phantom spec JSON")
        if model:
            p.add_argument("--model", required=True, help="model container")
        if data:
            p.add_argument("--data", required=True, help="wave data container")
        if multi_data:
            p.add_argument("--data", required=True, nargs="+",
                           help="image field containers")

    p = sub.add_parser("simulate", help="simulate wave boundary data")
    common(p, phantom=True)
    p.add_argument("--part", choices=[v.value for v in Part], default="full")

    common(sub.add_parser("train", help="build extension models"))
    common(sub.add_parser("extend", help="extend limited-view data"),
           model=True, data=True)
    common(sub.add_parser("reconstruct", help="back-project full-boundary data"),
           data=True)
    common(sub.add_parser("evaluate", help="grid errors of reconstructions"),
           phantom=True, multi_data=True)
    common(sub.add_parser("experiment", help="run the full pipeline"))
    return parser


def _run_command(args, cfg: ExperimentConfig) -> int:
    with serial_blas():  # see run_experiment
        if args.command == "simulate":
            return cmd_simulate(cfg, args.phantom, Part(args.part))
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "extend":
            return cmd_extend(cfg, args.model, args.data)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.data)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.data, args.phantom)
        if args.command == "experiment":
            run_experiment(cfg)
            return 0
    raise ParameterError(f"unknown command {args.command}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    created, code = [], None
    try:
        cfg = ExperimentConfig.from_json(args.config)
        cfg = replace(
            cfg, out_dir=Path(args.out).resolve() if args.out else cfg.out_dir,
            threads=cfg.threads if args.threads is None else
            number(args.threads, "--threads", whole=True, positive=True))
        # the directories this call makes, deepest first
        created = [d for d in (cfg.out_dir, *cfg.out_dir.parents)
                   if not d.exists()]
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        code = _run_command(args, cfg)
    except (ParameterError, DataMismatchError, ContainerFormatError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = CONFIG_ERROR_EXIT
    except (SingularTrainingSetError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = NUMERIC_ERROR_EXIT
    finally:
        # a failed call leaves no empty output directory of its own behind
        if code != 0:
            for d in created:
                try:
                    d.rmdir()
                except OSError:  # not empty
                    break
    return code


if __name__ == "__main__":
    sys.exit(main())
