"""Seeded inputs, operations and output checks of the benchmark's workloads.

pipeline     One operation is one `lvpat.cli.run_experiment` on a generated
             config: the reduced config at spacing = dt = 0.04, partitions
             4x2, 8x4 and 16x8, a 151^2 grid and a seeded rotated-ellipse
             test phantom.  The cold wave-map cache is paid by the first
             operation, as every user run pays it.
apply        Set-up trains the 8x4 model, saves and reloads it, and writes the
             gamma1 data of seeded test phantoms to containers.  One operation
             is one request: read -> extend -> stitch -> reconstruct -> write
             the image -> E2.
forward-mix  One operation is one `simulate_wave_data(..., Part.FULL)` on the
             reduced 0.02 geometry, over a seeded mix of rotated ellipses and
             weighted sums of squares and ellipses.  Set-up warms the wave map.

Inputs depend only on the seed; the program only sees the generated
phantoms and configs.  Operation i uses item i of the workload's input pool.
A workload object offers `setup()` (what a process pays once), `run_op(i)`,
`extract(i, out)` (the small data the checks need, taken after the
operation's clock stopped) and `check(i, kept, oracle)`, which returns the
failure messages and the values compared with the recorded reference.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's sources, not an install

import lvpat.cli  # noqa: E402
from lvpat import (extension, forward, geometry, inversion, io,  # noqa: E402
                   metrics, oracle, phantoms)

# the shipped configs/experiment_reduced.json, kept here so that the
# benchmark's inputs do not move when the shipped configs change
REDUCED = {
    "geometry": {"a1": 2.0, "a2": 1.0, "spacing": 0.02, "dt": 0.02,
                 "t_max": 20.0, "gamma2_theta_lo": 0.97,
                 "gamma2_theta_hi": 2.17},
    "box": [-1.25, 0.5, -0.7, 0.1752],
    "n_list": [[4, 2], [8, 4], [16, 8], [32, 16]],
    "grid": {"origin": [-2.2, -2.2], "h": 0.029333333333333333,
             "nx": 151, "ny": 151},
    "threads": 2,
}
THREADS = REDUCED["threads"]
COARSE_STEP = 0.04  # spacing = dt of pipeline and apply
PIPELINE_N_LIST = [[4, 2], [8, 4], [16, 8]]
APPLY_PARTITION = (8, 4)

# Phantom kinds in pool order: "e" ellipse, "s" square; two or more letters
# make a weighted sum.  The kinds and the sizes of the pool's phantoms do not
# depend on the seed, because they set the cost of an operation; the seed
# draws places, rotations and weights.  So every run does work of the same
# size on different inputs.
APPLY_KINDS = ("e", "se", "sse") * 2
FORWARD_MIX_KINDS = ("e", "se", "sse", "ss") * 3
_STREAMS = {"pipeline": 1, "apply": 2, "forward-mix": 3}

# Forward-vs-oracle check on the timed 0.02 outputs.  The oracle differences
# its wave potential over one step, centred on the sample time, which is the
# functional the program computes.  Samples keep 6 steps away from the radii
# where a circular mean loses smoothness (as c1 does); per phantom the two
# candidate nodes with the strongest such sample are compared.  c1's bound of
# 1e-3 (relative L2 over 10 samples per phantom at step 0.01) does not hold
# per phantom at 0.02 with two samples: over 48 seeded phantoms the median
# was 2.6e-4 and the worst 2.0e-3.  The bound here is 1e-2.
ORACLE_REL_TOL = 1e-2
ORACLE_SAMPLES = 2
ORACLE_CANDIDATE_NODES = 6
KINK_MARGIN_STEPS = 6


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def _ellipse(rng, region, a: float, b: float, anchor=None) -> dict:
    """A rotated ellipse with semi-axes a, b whose bounding box lies in
    region = (x_lo, x_hi, y_lo, y_hi); anchor "lo" or "hi" puts the box in
    the lower-left or upper-right corner."""
    x_lo, x_hi, y_lo, y_hi = region
    while True:
        rot = rng.uniform(0.0, np.pi)
        ex = np.hypot(a * np.cos(rot), b * np.sin(rot))
        ey = np.hypot(a * np.sin(rot), b * np.cos(rot))
        if 2 * ex < x_hi - x_lo and 2 * ey < y_hi - y_lo:
            break
    if anchor == "lo":
        center = (x_lo + ex, y_lo + ey)
    elif anchor == "hi":
        center = (x_hi - ex, y_hi - ey)
    else:
        center = (rng.uniform(x_lo + ex, x_hi - ex), rng.uniform(y_lo + ey, y_hi - ey))
    return {"type": "ellipse", "center": [float(center[0]), float(center[1])],
            "semi_a": float(a), "semi_b": float(b), "rotation": float(rot)}


def _square(rng, region, side: float, anchor=None) -> dict:
    x_lo, x_hi, y_lo, y_hi = region
    if anchor == "lo":
        x0, y0 = x_lo, y_lo
    elif anchor == "hi":
        x0, y0 = x_hi - side, y_hi - side
    else:
        x0, y0 = rng.uniform(x_lo, x_hi - side), rng.uniform(y_lo, y_hi - side)
    return {"type": "square", "x_lo": float(x0), "x_hi": float(x0 + side),
            "y_lo": float(y0), "y_hi": float(y0 + side)}


def _inner_box(margin=0.02) -> tuple:
    x_lo, x_hi, y_lo, y_hi = REDUCED["box"]
    return (x_lo + margin, x_hi - margin, y_lo + margin, y_hi - margin)


def _pool(seed: int, workload: str, kinds) -> list:
    """Phantoms of the given kinds.  A sum's first and second terms sit in
    opposite corners of a region of seed-independent size, so the sum's
    support spans the same extent for every seed."""
    rng = _rng(seed, workload)
    sizes = np.random.default_rng([_STREAMS[workload], 0])  # seed-independent
    box = _inner_box()
    pool = []
    for kind in kinds:
        region = box
        if len(kind) > 1:
            w, h = sizes.uniform(0.7, 1.1), sizes.uniform(0.5, 0.7)
            x0 = rng.uniform(box[0], box[1] - w)
            y0 = rng.uniform(box[2], box[3] - h)
            region = (x0, x0 + w, y0, y0 + h)
        anchors = ("lo", "hi", None) if len(kind) > 1 else (None,)
        terms = [_ellipse(rng, region, sizes.uniform(0.25, 0.4),
                          sizes.uniform(0.1, 0.2), anchor) if k == "e"
                 else _square(rng, region, sizes.uniform(0.15, 0.3), anchor)
                 for k, anchor in zip(kind, anchors)]
        if len(terms) == 1:
            pool.append(terms[0])
            continue
        signs = rng.choice([-1.0, 1.0], size=len(terms))
        mags = rng.uniform(0.5, 1.5, size=len(terms))
        pool.append({"type": "sum", "terms": [[float(s * m), t] for s, m, t
                                              in zip(signs, mags, terms)]})
    return pool


def pipeline_inputs(seed: int) -> tuple:
    """(config dict, phantom dict) of the pipeline workload."""
    cfg = copy.deepcopy(REDUCED)
    cfg["geometry"]["spacing"] = cfg["geometry"]["dt"] = COARSE_STEP
    cfg["n_list"] = copy.deepcopy(PIPELINE_N_LIST)
    cfg["phantom"] = "phantom.json"
    cfg["out_dir"] = "out"
    rng = _rng(seed, "pipeline")
    phantom = _ellipse(rng, _inner_box(), rng.uniform(0.45, 0.6),
                       rng.uniform(0.2, 0.3))
    return cfg, phantom


def apply_inputs(seed: int) -> list:
    return _pool(seed, "apply", APPLY_KINDS)


def forward_mix_inputs(seed: int) -> list:
    return _pool(seed, "forward-mix", FORWARD_MIX_KINDS)


def _geometry(step: float):
    g = REDUCED["geometry"]
    domain = geometry.EllipseDomain(g["a1"], g["a2"])
    geom = geometry.build_boundary(domain, step, step, g["t_max"])
    split = geometry.split_boundary(geom, (g["gamma2_theta_lo"], g["gamma2_theta_hi"]))
    return geom, split


def _finite_nonneg(label: str, value: float) -> list:
    return [] if np.isfinite(value) and value >= 0 else [f"{label} = {value!r}"]


class Pipeline:
    name = "pipeline"
    pool = 1

    def __init__(self, seed: int, work: Path, threads: int):
        self.seed, self.work, self.threads = seed, work, threads
        self.runs = 0
        self._geom = None

    def setup(self) -> None:
        cfg, phantom = pipeline_inputs(self.seed)
        (self.work / "phantom.json").write_text(json.dumps(phantom))
        (self.work / "config.json").write_text(json.dumps(cfg))
        self.cfg = lvpat.cli.ExperimentConfig.from_json(self.work / "config.json")

    def run_op(self, i: int) -> Path:
        self.runs += 1
        cfg = dataclasses.replace(self.cfg, out_dir=self.work / f"out{self.runs}")
        lvpat.cli.run_experiment(cfg, threads=self.threads)
        return cfg.out_dir

    def extract(self, i: int, out_dir: Path) -> Path:
        return out_dir

    def check(self, i: int, out_dir: Path, oracle_check: bool) -> tuple:
        names = (["zero"] + [f"{w}x{h}" for w, h in sorted(
            PIPELINE_N_LIST, key=lambda p: p[0] * p[1])] + ["full"])
        lines = (out_dir / "errors.csv").read_text().strip().split("\n")
        fails = []
        if lines[0] != "variant,n,E2,E_n":
            fails.append(f"errors.csv header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != names:
            fails.append(f"errors.csv variants {[r[0] for r in rows]} != {names}")
        values = {}
        e_n = []
        for row in rows:
            e2 = float(row[2])
            fails += _finite_nonneg(f"E2[{row[0]}]", e2)
            values[f"E2.{row[0]}"] = e2
            if row[1]:
                e_n.append((int(row[1]), float(row[3])))
                fails += _finite_nonneg(f"E_n[{row[1]}]", e_n[-1][1])
                values[f"E_n.{row[1]}"] = e_n[-1][1]
        e_n.sort()
        # nested partitions: a finer span contains the coarser one
        for (n_a, a), (n_b, b) in zip(e_n, e_n[1:]):
            if not b <= a + 1e-10:
                fails.append(f"E_n rises from n={n_a} ({a}) to n={n_b} ({b})")
        if self._geom is None:
            self._geom = self.cfg.build_geometry()[0]
        data = io.read_wave_data(out_dir / "data_full.patb")
        values["norm.data_full"] = metrics.boundary_time_norm(data, self._geom)
        return fails, values


class Apply:
    name = "apply"
    pool = len(APPLY_KINDS)

    def __init__(self, seed: int, work: Path, threads: int):
        self.seed, self.work, self.threads = seed, work, threads

    def setup(self) -> None:
        self.geom, self.split = _geometry(COARSE_STEP)
        g = REDUCED["grid"]
        self.grid = phantoms.GridSpec(origin=tuple(g["origin"]), h=g["h"],
                                      nx=g["nx"], ny=g["ny"],
                                      domain=self.geom.domain)
        cells = phantoms.training_partition(REDUCED["box"], *APPLY_PARTITION)
        ts = extension.build_training_set(cells, self.geom, self.split,
                                          threads=self.threads)
        model_path = self.work / "model.patb"
        extension.save_model(extension.train_extension_model(ts, self.geom),
                             model_path)
        del ts
        self.model = extension.load_model(
            model_path, expected_fingerprint=self.split.fingerprint())
        self.data_paths, self.truth = [], []
        for i, spec in enumerate(apply_inputs(self.seed)):
            p = phantoms.phantom_from_dict(spec)
            u1 = forward.simulate_wave_data(p, self.geom, self.split,
                                            forward.Part.GAMMA1,
                                            threads=self.threads)
            self.data_paths.append(self.work / f"data_gamma1_{i}.patb")
            io.write_wave_data(u1, self.data_paths[-1])
            self.truth.append(phantoms.rasterize(p, self.grid))

    def run_op(self, i: int) -> tuple:
        u1 = io.read_wave_data(self.data_paths[i])
        u2 = extension.extend(self.model, u1)
        full = extension.stitch(u1, u2, self.geom, self.split)
        image = inversion.reconstruct(full, self.geom, self.grid,
                                      threads=self.threads)
        io.write_image_field(image, self.work / f"recon_{i}.patb")
        return u1, u2, image, metrics.e2_error(image, self.truth[i])

    def extract(self, i: int, out: tuple) -> dict:
        u1, u2, image, e2 = out
        return {"image_finite": bool(np.all(np.isfinite(
                    image.values[image.domain_mask]))),
                "E2": e2,
                "norm.u1": metrics.boundary_time_norm(u1, self.geom),
                "norm.u2_hat": metrics.boundary_time_norm(u2, self.geom)}

    def check(self, i: int, kept: dict, oracle_check: bool) -> tuple:
        fails = [] if kept["image_finite"] else ["non-finite image inside the mask"]
        if not np.isfinite(kept["E2"]):
            fails.append(f"E2 = {kept['E2']!r}")
        return fails, {k: v for k, v in kept.items() if k != "image_finite"}


class ForwardMix:
    name = "forward-mix"
    pool = len(FORWARD_MIX_KINDS)

    def __init__(self, seed: int, work: Path, threads: int):
        self.seed, self.work, self.threads = seed, work, threads
        self._oracle = {}

    def setup(self) -> None:
        self.geom, self.split = _geometry(REDUCED["geometry"]["spacing"])
        self.phantoms = [phantoms.phantom_from_dict(s)
                         for s in forward_mix_inputs(self.seed)]
        rng = np.random.default_rng([self.seed, _STREAMS["forward-mix"], 0])
        self.nodes = [rng.choice(self.geom.n_nodes, ORACLE_CANDIDATE_NODES,
                                 replace=False) for _ in self.phantoms]
        # builds and caches the wave map of this time grid
        forward.wave_trace(phantoms.SquareIndicator(-0.1, 0.1, -0.1, 0.1),
                           self.geom.positions[0], self.geom)

    def run_op(self, i: int):
        return forward.simulate_wave_data(self.phantoms[i], self.geom,
                                          self.split, forward.Part.FULL,
                                          threads=self.threads)

    def extract(self, i: int, w) -> dict:
        return {"rows": w.samples[self.nodes[i]].copy(),
                "finite": bool(np.all(np.isfinite(w.samples))),
                "norm.full": metrics.boundary_time_norm(w, self.geom)}

    def _oracle_samples(self, i: int, rows: np.ndarray) -> list:
        """(row, step, oracle value) of the ORACLE_SAMPLES strongest samples."""
        if i in self._oracle:
            return self._oracle[i]
        p, times, dt = self.phantoms[i], self.geom.times, self.geom.dt
        picks = []
        for r, node in enumerate(self.nodes[i]):
            u = rows[r]
            crit = oracle._term_critical_radii(p, self.geom.positions[node])
            near = np.min(np.abs(np.array(crit)[:, None] - times[None, :]), axis=0)
            ok = np.flatnonzero(near > KINK_MARGIN_STEPS * dt)
            if len(ok) and np.abs(u).max() > 0:
                k = int(ok[np.argmax(np.abs(u[ok]))])
                picks.append((abs(u[k]) / np.abs(u).max(), r, k))
        picks = sorted(picks, reverse=True)[:ORACLE_SAMPLES]
        self._oracle[i] = [
            (r, k, oracle.oracle_wave_field(
                p, self.geom.positions[self.nodes[i][r]], times[k], dt / 2))
            for _, r, k in picks]
        return self._oracle[i]

    def check(self, i: int, kept: dict, oracle_check: bool) -> tuple:
        fails = [] if kept["finite"] else ["non-finite wave data"]
        if oracle_check:
            samples = self._oracle_samples(i, kept["rows"])
            if not samples:
                fails.append("no oracle sample away from the wavefront kinks")
            else:
                diff = [kept["rows"][r, k] - ref for r, k, ref in samples]
                refs = [ref for _, _, ref in samples]
                rel = float(np.sqrt(np.sum(np.square(diff)) / np.sum(np.square(refs))))
                if not rel <= ORACLE_REL_TOL:
                    fails.append(f"relative L2 vs oracle {rel:.2e} > {ORACLE_REL_TOL}")
        return fails, {"norm.full": kept["norm.full"]}


WORKLOADS = {w.name: w for w in (Pipeline, Apply, ForwardMix)}
