"""Command-line front end: simulate, train, extend, reconstruct, evaluate,
and the one-shot limited-view experiment pipeline.

Configs are JSON files; paths inside a config resolve relative to the config
file.  Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ContainerFormatError, DataMismatchError, ParameterError,
                     SingularTrainingSetError)
from .extension import (build_training_set, extend, load_model, save_model,
                        stitch, train_extension_model, zero_extend)
from .forward import Part, restrict_wave_data, simulate_wave_data
from .geometry import EllipseDomain, build_boundary, split_boundary
from .inversion import reconstruct
from .io import (export_csv, export_pgm, read_image_field, read_wave_data,
                 write_image_field, write_wave_data)
from .metrics import ErrorReport, e2_error, subspace_distance
from .phantoms import (GridSpec, ImageField, SquareIndicator,
                       phantom_from_dict, rasterize, training_partition)

CONFIG_ERROR_EXIT = 2
NUMERIC_ERROR_EXIT = 3


def _whole(value, name: str) -> int:
    """A config count as an int; a fractional or non-numeric value is
    rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
       not float(value).is_integer():
        raise ParameterError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    domain: EllipseDomain
    spacing: float
    dt: float
    t_max: float
    gamma2_interval: tuple
    phantom_path: Path
    box: tuple
    n_list: list  # of (n_w, n_h)
    grid_origin: tuple
    grid_h: float
    grid_nx: int
    grid_ny: int
    out_dir: Path
    threads: int

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        path = Path(path)
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        base = path.parent
        g = raw["geometry"]
        grid = raw["grid"]
        n_list = [tuple(_whole(v, "n_list entry") for v in pair)
                  for pair in raw["n_list"]]
        for n_w, n_h in n_list:
            if n_w != 2 * n_h:
                warnings.warn(f"partition {n_w}x{n_h} does not follow n_w = 2*n_h")
        phantom_path = (base / raw["phantom"]).resolve()
        if not phantom_path.exists():
            raise ParameterError(f"phantom spec not found: {phantom_path}")
        threads = _whole(raw.get("threads", 1), "threads")
        if threads < 1:
            raise ParameterError(f"threads must be at least 1, got {threads}")
        return cls(
            domain=EllipseDomain(float(g["a1"]), float(g["a2"])),
            spacing=float(g["spacing"]),
            dt=float(g["dt"]),
            t_max=float(g["t_max"]),
            gamma2_interval=(float(g["gamma2_theta_lo"]), float(g["gamma2_theta_hi"])),
            phantom_path=phantom_path,
            box=tuple(float(v) for v in raw["box"]),
            n_list=n_list,
            grid_origin=tuple(float(v) for v in grid["origin"]),
            grid_h=float(grid["h"]),
            grid_nx=_whole(grid["nx"], "grid.nx"),
            grid_ny=_whole(grid["ny"], "grid.ny"),
            out_dir=(base / raw.get("out_dir", "out")).resolve(),
            threads=threads,
        )

    def build_geometry(self) -> tuple:
        geom = build_boundary(self.domain, self.spacing, self.dt, self.t_max)
        split = split_boundary(geom, self.gamma2_interval)
        return geom, split

    def build_grid(self) -> GridSpec:
        return GridSpec(origin=self.grid_origin, h=self.grid_h,
                        nx=self.grid_nx, ny=self.grid_ny, domain=self.domain)

    def load_phantom(self, path=None):
        with open(path or self.phantom_path, "r", encoding="utf-8") as fh:
            return phantom_from_dict(json.load(fh))


def _variant_name(n_w: int, n_h: int) -> str:
    return f"{n_w}x{n_h}"


def _recon_gray_range(truth: ImageField) -> tuple:
    vals = truth.values[truth.domain_mask]
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        lo, hi = 0.0, 1.0
    pad = 0.2 * (hi - lo)
    return lo - pad, hi + pad


def _wave_image(samples: np.ndarray) -> ImageField:
    return ImageField(origin=(0.0, 0.0), h=1.0, values=samples,
                      domain_mask=np.ones(samples.shape, dtype=bool))


def cmd_simulate(cfg: ExperimentConfig, phantom_path, part: Part, out_dir: Path,
                 threads: int) -> int:
    phantom = cfg.load_phantom(phantom_path)
    geom, split = cfg.build_geometry()
    t0 = time.perf_counter()
    data = simulate_wave_data(phantom, geom, split, part, threads=threads)
    elapsed = time.perf_counter() - t0
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"data_{part.value}.patb"
    write_wave_data(data, out)
    print(f"simulate: {out} ({len(data.node_idx)} nodes, {elapsed:.2f} s)")
    return 0


def _partitions_ascending(cfg: ExperimentConfig):
    return sorted(cfg.n_list, key=lambda p: p[0] * p[1])


def _train_one_model(cfg: ExperimentConfig, geom, split, n_w, n_h, threads):
    """One model, simulated from scratch; returns (model, wall seconds).

    The timing covers everything a standalone build costs: trace simulation,
    Gram assembly, and factorization.
    """
    t0 = time.perf_counter()
    ts = build_training_set(training_partition(cfg.box, n_w, n_h),
                            geom, split, threads=threads)
    model = train_extension_model(ts, geom)
    return model, time.perf_counter() - t0


def cmd_train(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    geom, split = cfg.build_geometry()
    out_dir.mkdir(parents=True, exist_ok=True)
    for n_w, n_h in _partitions_ascending(cfg):
        name = _variant_name(n_w, n_h)
        model, elapsed = _train_one_model(cfg, geom, split, n_w, n_h, threads)
        path = out_dir / f"model_{name}.patb"
        save_model(model, path)
        print(f"train: {path} (n={model.n}, ridge={model.ridge:.3e}, "
              f"{elapsed:.2f} s)")
        del model
    return 0


def cmd_extend(cfg: ExperimentConfig, model_path, data_path, out_dir: Path) -> int:
    geom, split = cfg.build_geometry()
    u1 = read_wave_data(data_path)
    model = load_model(model_path, expected_fingerprint=split.fingerprint())
    t0 = time.perf_counter()
    u2_hat = extend(model, u1)
    stitched = stitch(u1, u2_hat, geom, split)
    elapsed = time.perf_counter() - t0
    out_dir.mkdir(parents=True, exist_ok=True)
    name = _variant_name(*_partition_shape(model.training.phantoms))
    g2_path = out_dir / f"gamma2_hat_{name}.patb"
    full_path = out_dir / f"extended_{name}.patb"
    write_wave_data(u2_hat, g2_path)
    write_wave_data(stitched, full_path)
    print(f"extend: {full_path} ({elapsed:.3f} s)")
    return 0


def _partition_shape(phantoms) -> tuple:
    """(n_w, n_h) of a square training partition, read off its cell corners."""
    if not all(isinstance(p, SquareIndicator) for p in phantoms):
        raise ParameterError("model phantoms are not a square partition")
    n_w, n_h = len({p.x_lo for p in phantoms}), len({p.y_lo for p in phantoms})
    if n_w * n_h != len(phantoms):
        raise ParameterError(f"model phantoms do not tile {n_w}x{n_h} cells")
    return n_w, n_h


def cmd_reconstruct(cfg: ExperimentConfig, data_path, out_dir: Path) -> int:
    geom, split = cfg.build_geometry()
    data = read_wave_data(data_path)
    grid = cfg.build_grid()
    t0 = time.perf_counter()
    image = reconstruct(data, geom, grid)
    elapsed = time.perf_counter() - t0
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(data_path).stem
    write_image_field(image, out_dir / f"recon_{stem}.patb")
    vals = image.values[image.domain_mask]
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        lo, hi = 0.0, 1.0
    export_pgm(image, lo, hi, out_dir / f"recon_{stem}.pgm")
    print(f"reconstruct: {out_dir / f'recon_{stem}.patb'} ({elapsed:.2f} s)")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, recon_paths, phantom_path,
                 out_dir: Path) -> int:
    truth = rasterize(cfg.load_phantom(phantom_path), cfg.build_grid())
    e2 = {}
    for path in recon_paths:
        image = read_image_field(path)
        e2[Path(path).stem] = e2_error(image, truth)
    report = ErrorReport(e2_per_variant=e2, e_n_factors={},
                         metadata={"variant_n": {}})
    out_dir.mkdir(parents=True, exist_ok=True)
    export_csv(report, out_dir / "errors.csv")
    print(f"evaluate: {out_dir / 'errors.csv'}")
    return 0


def run_experiment(cfg: ExperimentConfig, threads: int | None = None) -> dict:
    """Full limited-view pipeline; returns a summary dict (also written to disk).

    Produces, under cfg.out_dir: wave-data containers and PGMs for the true
    data and each learned extension, reconstruction containers and PGMs for
    the full-view, zero-extension, and learned variants, an error CSV, and a
    timing CSV.
    """
    threads = cfg.threads if threads is None else threads
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    geom, split = cfg.build_geometry()
    grid = cfg.build_grid()
    phantom = cfg.load_phantom()
    truth = rasterize(phantom, grid)
    gray_lo, gray_hi = _recon_gray_range(truth)

    timings = {}

    t0 = time.perf_counter()
    full = simulate_wave_data(phantom, geom, split, Part.FULL, threads=threads)
    timings["simulate_truth"] = time.perf_counter() - t0
    u1 = restrict_wave_data(full, split, Part.GAMMA1)
    write_wave_data(full, out / "data_full.patb")
    write_wave_data(u1, out / "data_gamma1.patb")
    data_amp = float(np.abs(full.samples).max()) or 1.0
    export_pgm(_wave_image(full.samples), -data_amp, data_amp,
               out / "data_full.pgm")

    e2 = {}
    e_n = {}
    variant_n = {}

    t0 = time.perf_counter()
    recon_full = reconstruct(full, geom, grid)
    recon_time_full = time.perf_counter() - t0
    write_image_field(recon_full, out / "recon_full.patb")
    export_pgm(recon_full, gray_lo, gray_hi, out / "recon_full.pgm")
    e2["full"] = e2_error(recon_full, truth)
    variant_n["full"] = None

    u0 = zero_extend(u1, geom, split)
    write_wave_data(u0, out / "extended_zero.patb")
    export_pgm(_wave_image(u0.samples), -data_amp, data_amp,
               out / "extended_zero.pgm")
    t0 = time.perf_counter()
    recon_zero = reconstruct(u0, geom, grid)
    recon_time_zero = time.perf_counter() - t0
    write_image_field(recon_zero, out / "recon_zero.patb")
    export_pgm(recon_zero, gray_lo, gray_hi, out / "recon_zero.pgm")
    e2["zero"] = e2_error(recon_zero, truth)
    variant_n["zero"] = 0
    e_n[0] = subspace_distance(phantom, [], grid)

    timing_rows = []
    for (n_w, n_h) in _partitions_ascending(cfg):
        name = _variant_name(n_w, n_h)
        model, train_time = _train_one_model(cfg, geom, split, n_w, n_h, threads)
        n = model.n

        t0 = time.perf_counter()
        u2_hat = extend(model, u1)
        stitched = stitch(u1, u2_hat, geom, split)
        extend_time = time.perf_counter() - t0
        write_wave_data(stitched, out / f"extended_{name}.patb")
        export_pgm(_wave_image(stitched.samples), -data_amp, data_amp,
                   out / f"extended_{name}.pgm")

        t0 = time.perf_counter()
        recon = reconstruct(stitched, geom, grid)
        recon_time = time.perf_counter() - t0
        write_image_field(recon, out / f"recon_{name}.patb")
        export_pgm(recon, gray_lo, gray_hi, out / f"recon_{name}.pgm")

        e2[name] = e2_error(recon, truth)
        variant_n[name] = n
        e_n[n] = subspace_distance(phantom, model.training.phantoms, grid)
        timing_rows.append((name, n, train_time, extend_time, recon_time))
        del model  # the training traces are the largest allocation

    report = ErrorReport(e2_per_variant=e2, e_n_factors=e_n,
                         metadata={"variant_n": variant_n,
                                   "grid": [grid.nx, grid.ny, grid.h],
                                   "nodes": geom.n_nodes,
                                   "n_time": geom.n_time})
    export_csv(report, out / "errors.csv")

    with open(out / "timings.csv", "w", encoding="utf-8") as fh:
        fh.write("variant,n,train_s,extend_s,reconstruct_s\n")
        for name, n, tr, ex, rc in timing_rows:
            fh.write(f"{name},{n},{tr:.6f},{ex:.6f},{rc:.6f}\n")
        fh.write(f"full,,,,{recon_time_full:.6f}\n")
        fh.write(f"zero,0,,,{recon_time_zero:.6f}\n")

    summary = {"e2": e2, "e_n": e_n,
               "timings": {name: {"train": tr, "extend": ex, "reconstruct": rc}
                           for name, n, tr, ex, rc in timing_rows},
               "recon_time_full": recon_time_full,
               "simulate_truth_time": timings["simulate_truth"]}
    print("experiment: E2 " + ", ".join(f"{k}={v:.5f}" for k, v in e2.items()))
    return summary


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config)
        threads = args.threads if args.threads is not None else cfg.threads
        out_dir = Path(args.out).resolve() if args.out else cfg.out_dir
        if args.command == "simulate":
            return cmd_simulate(cfg, args.phantom, Part(args.part), out_dir, threads)
        if args.command == "train":
            return cmd_train(cfg, out_dir, threads)
        if args.command == "extend":
            return cmd_extend(cfg, args.model, args.data, out_dir)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.data, out_dir)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.data, args.phantom, out_dir)
        if args.command == "experiment":
            cfg2 = cfg if args.out is None else ExperimentConfig(
                **{**cfg.__dict__, "out_dir": out_dir})
            run_experiment(cfg2, threads=threads)
            return 0
        raise ParameterError(f"unknown command {args.command}")
    except (ParameterError, DataMismatchError, ContainerFormatError,
            FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR_EXIT
    except (SingularTrainingSetError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
