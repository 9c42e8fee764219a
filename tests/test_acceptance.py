"""Acceptance suite: one test per numbered criterion, each printing a line
with the measured quantities.  Run with `pytest tests/test_acceptance.py -v -s`.

Heavy artifacts (production-resolution geometry, the reduced-resolution
experiment) are shared session fixtures, so the suite cost is dominated by a
handful of simulations and reconstructions rather than per-test setup.
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from lvpat.cli import ExperimentConfig, run_experiment
from lvpat.extension import build_training_set, extend, stitch, \
    train_extension_model
from lvpat.forward import Part, restrict_wave_data, simulate_wave_data, \
    wave_trace
from lvpat.geometry import build_boundary, split_boundary
from lvpat.inversion import reconstruct
from lvpat.metrics import boundary_time_norm, e2_error, grid_norm, \
    subspace_distance
from lvpat.oracle import _term_critical_radii, oracle_wave_field
from lvpat.phantoms import (GridSpec, WeightedSum, distance_to_support,
                            rasterize, sup_norm, training_partition)

from conftest import BOX, GAMMA2_INTERVAL, TEST_PHANTOM, bounding_circle, \
    random_disjoint_mix, random_mix, random_square

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# pinned from a converged run of the span-distance solver on the production
# grid; guards against silent changes in the projection machinery
PINNED_SPAN_DISTANCES = {
    0: 0.77525508,
    8: 0.47049950,
    32: 0.35970112,
    128: 0.24052841,
    512: 0.16586236,
}

# the reduced experiment's E2 chain, span-distance factors, image distances
# to the full-view image and relative gamma2 errors, pinned so that a change
# to the numerics that keeps the chain's order still shows.
# Every Gram solve there has cond(G) <= 4.6, so rounding differences in the
# traces reach the errors almost unamplified and 1e-12 relative holds them.
PINNED_REDUCED = {
    "e2": {
        "zero": 0.277359573021191,
        "4x2": 0.21407968851924727,
        "8x4": 0.1756834134356734,
        "16x8": 0.13533436059469395,
        "32x16": 0.11827599642563663,
        "full": 0.10845160365384093,
    },
    "e_n": {
        8: 0.4625764405871135,
        32: 0.35497284875890023,
        128: 0.23314669784504644,
        512: 0.14593149077563758,
    },
    "image_error": {
        "zero": 0.2442847772186586,
        "4x2": 0.17095173735662367,
        "8x4": 0.12003054450504116,
        "16x8": 0.058380788350644156,
        "32x16": 0.024116999182097056,
    },
    "gamma2_error": {
        "zero": 1.0,
        "4x2": 0.6673447800486201,
        "8x4": 0.49307799262771146,
        "16x8": 0.29365701670222505,
        "32x16": 0.18479630466040334,
    },
}
PINNED_REDUCED_REL = 1e-12


@pytest.fixture(scope="session")
def phantom_suite():
    """Five test phantoms: three random squares, one ellipse, one mixture."""
    rng = np.random.default_rng(1234)
    squares = [random_square(rng) for _ in range(3)]
    mix = random_disjoint_mix(rng, n_terms=3)
    return squares + [TEST_PHANTOM, mix]


@pytest.fixture(scope="session")
def prod_grid(domain):
    return GridSpec(origin=(-2.2, -2.2), h=11 / 750, nx=301, ny=301,
                    domain=domain)


@pytest.fixture(scope="session")
def reduced_experiment(tmp_path_factory):
    """The reduced-resolution end-to-end experiment (criteria 6 and 7)."""
    work = tmp_path_factory.mktemp("reduced")
    shutil.copy(CONFIG_DIR / "phantom_reference.json",
                work / "phantom_reference.json")
    raw = json.loads((CONFIG_DIR / "experiment_reduced.json").read_text())
    raw["out_dir"] = "out"
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = ExperimentConfig.from_json(cfg_path)
    t0 = time.perf_counter()
    summary = run_experiment(cfg, threads=2)
    summary["wall_time"] = time.perf_counter() - t0
    summary["out_dir"] = cfg.out_dir
    return summary


def active_window_samples(p, x, geom, rng, count):
    """Random sample times where some component of the phantom is actively
    crossing the integration circles, excluding the immediate neighborhoods
    of wavefront kink times.

    Windows are per term: a sum of far-apart indicators cancels to near-zero
    signal between the individual transits, and relative comparisons there
    measure nothing.  Near the radii where a circular mean loses smoothness,
    the simulated half-step average and the oracle's near-pointwise
    derivative measure different functionals of the same solution, so
    samples keep at least 6 dt away from those radii.
    """
    terms = p.terms if isinstance(p, WeightedSum) else ((1.0, p),)
    windows = []
    for _, term in terms:
        center, rho = bounding_circle(term)
        d = float(np.hypot(x[0] - center[0], x[1] - center[1]))
        windows.append((d + 2 * geom.dt, min(d + 4 * rho + 1.0,
                                             geom.t_max - geom.dt)))
    crit = np.array(sorted(_term_critical_radii(p, x)))
    out = []
    while len(out) < count:
        lo, hi = windows[int(rng.integers(len(windows)))]
        k = int(rng.integers(int(lo / geom.dt), int(hi / geom.dt)))
        if np.min(np.abs(crit - geom.times[k])) > 6 * geom.dt:
            out.append(k)
    return out


def test_c1_forward_oracle_agreement(prod_geom, phantom_suite):
    t_start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for p in phantom_suite:
        diffs, refs = [], []
        node_ids = rng.integers(0, prod_geom.n_nodes, 5)
        for ni in node_ids:
            x = prod_geom.positions[ni]
            u = wave_trace(p, x, prod_geom)
            for k in active_window_samples(p, x, prod_geom, rng, 2):
                ref = oracle_wave_field(p, x, prod_geom.times[k],
                                        prod_geom.dt / 16)
                diffs.append(u[k] - ref)
                refs.append(ref)
        rel = np.sqrt(np.sum(np.square(diffs)) / np.sum(np.square(refs)))
        worst = max(worst, rel)
        assert rel <= 1e-3, f"relative L2 vs oracle {rel:.2e} for {p!r}"
    elapsed = time.perf_counter() - t_start
    print(f"\n[criterion 1] forward vs oracle: worst relL2 {worst:.2e} "
          f"(<= 1e-3), runtime {elapsed:.0f}s (<= 600s) -> PASS")
    assert elapsed <= 600


def test_c2_causality(prod_geom, phantom_suite):
    rng = np.random.default_rng(88)
    worst = 0.0
    for p in phantom_suite:
        bound = 1e-3 * sup_norm(p)
        for ni in rng.integers(0, prod_geom.n_nodes, 50):
            x = prod_geom.positions[ni]
            u = wave_trace(p, x, prod_geom)
            quiet = prod_geom.times < distance_to_support(p, x) - prod_geom.dt
            peak = float(np.max(np.abs(u[quiet]), initial=0.0))
            worst = max(worst, peak / max(bound, 1e-300) * 1e-3)
            assert peak <= bound
    print(f"\n[criterion 2] causality: worst pre-arrival peak {worst:.2e} "
          f"(<= 1e-3 * sup|f|) -> PASS")


def test_c3_full_view_refinement(domain, prod_grid):
    t_start = time.perf_counter()
    truth = rasterize(TEST_PHANTOM, prod_grid)
    errors = []
    finest_time = 0.0
    for step in (0.04, 0.02, 0.01):
        t0 = time.perf_counter()
        geom = build_boundary(domain, step, step, 20.0)
        split = split_boundary(geom, GAMMA2_INTERVAL)
        full = simulate_wave_data(TEST_PHANTOM, geom, split, Part.FULL,
                                  threads=2)
        recon = reconstruct(full, geom, prod_grid, threads=2)
        errors.append(e2_error(recon, truth))
        finest_time = time.perf_counter() - t0
    # The reconstruction smears the indicator edge over a band about dt wide,
    # so the L2 error follows sqrt(dt): each 2x step scales it by 2^-1/2.
    # The 2 % tolerance covers the 301^2 grid's point-sampling bias, which
    # grows as the band narrows toward h: against h = 0.0025 the grid reads
    # E2 high by +0.06 %, +0.33 % and +1.45 % at 0.04, 0.02 and 0.01, and
    # the two factors land -0.01 % and +1.29 % off the law.  A gain error of
    # 2 % (reconstruction x 0.98) already puts the finest factor at +2.12 %.
    law, tol = 2 ** -0.5, 0.02
    factors = [errors[1] / errors[0], errors[2] / errors[1]]
    devs = [f / law - 1 for f in factors]
    report = (f"full-view E2 over (0.04, 0.02, 0.01): {errors[0]:.5f} > "
              f"{errors[1]:.5f} > {errors[2]:.5f}; 2x factors "
              f"{factors[0]:.4f}, {factors[1]:.4f} vs 2^-1/2 = {law:.4f} "
              f"(off {devs[0]:+.2%}, {devs[1]:+.2%}; tol {tol:.0%})")
    assert errors[1] < errors[0] and errors[2] < errors[1], \
        f"E2 not monotone: {errors}"
    assert finest_time <= 1800
    assert all(abs(d) <= tol for d in devs), \
        f"refinement departs from the sqrt(dt) law: {report}"
    print(f"\n[criterion 3] {report}; finest level {finest_time:.0f}s "
          f"(<= 1800s); total {time.perf_counter() - t_start:.0f}s -> PASS")


@pytest.fixture(scope="session")
def c4_setup(domain):
    geom = build_boundary(domain, 0.04, 0.04, 20.0)
    split = split_boundary(geom, GAMMA2_INTERVAL)
    ts = build_training_set(training_partition(BOX, 8, 4), geom, split,
                            threads=2)
    model = train_extension_model(ts, geom)
    grid = GridSpec(origin=(-2.2, -2.2), h=4.4 / 150, nx=151, ny=151,
                    domain=domain)
    return geom, split, model, grid


def test_c4_span_member_exactness(c4_setup):
    geom, split, model, grid = c4_setup
    rng = np.random.default_rng(99)
    coefs = rng.uniform(-1, 1, model.n)
    f = WeightedSum(tuple(zip(coefs, model.training.phantoms)))
    full = simulate_wave_data(f, geom, split, Part.FULL, threads=2)
    u1 = restrict_wave_data(full, split, Part.GAMMA1)
    u2 = restrict_wave_data(full, split, Part.GAMMA2)

    u2_hat = extend(model, u1)
    diff = u2.copy_with(u2_hat.samples - u2.samples)
    rel = boundary_time_norm(diff, geom) / boundary_time_norm(u2, geom)
    assert rel <= 1e-6

    truth = rasterize(f, grid)
    e2_learned = e2_error(reconstruct(stitch(u1, u2_hat, geom, split), geom,
                                      grid, threads=2), truth)
    e2_full = e2_error(reconstruct(full, geom, grid, threads=2), truth)
    print(f"\n[criterion 4] span-member: extension rel err {rel:.2e} "
          f"(<= 1e-6); E2 learned {e2_learned:.6f} <= E2 full "
          f"{e2_full:.6f} + 1e-6 -> PASS")
    assert e2_learned <= e2_full + 1e-6


def test_c5_span_distance_monotonicity(prod_grid):
    shapes = [(4, 2), (8, 4), (16, 8), (32, 16)]
    partitions = {0: []}
    for s in shapes:
        partitions[s[0] * s[1]] = training_partition(BOX, *s)
    ns = sorted(partitions)

    ref_vals = [subspace_distance(TEST_PHANTOM, partitions[n], prod_grid)
                for n in ns]
    for n, got in zip(ns, ref_vals):
        assert got == pytest.approx(PINNED_SPAN_DISTANCES[n], rel=1e-6)
    strict = all(b < a for a, b in zip(ref_vals, ref_vals[1:]))
    assert strict, f"reference phantom distances not strictly decreasing: {ref_vals}"

    rng = np.random.default_rng(555)
    for _ in range(10):
        f = random_mix(rng)
        vals = [subspace_distance(f, partitions[n], prod_grid) for n in ns]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10
    print(f"\n[criterion 5] span distances over n={ns}: "
          + " > ".join(f"{v:.5f}" for v in ref_vals)
          + "; nonincreasing for 10 random phantoms -> PASS")


def test_c6_reduced_experiment_trend(reduced_experiment):
    e2 = reduced_experiment["e2"]
    e_n = reduced_experiment["e_n"]
    chain = ["zero", "4x2", "8x4", "16x8", "32x16"]
    values = [e2[name] for name in chain]
    print(f"\n[criterion 6] reduced experiment E2: "
          + " > ".join(f"{name}={val:.5f}" for name, val in zip(chain, values))
          + f"; full={e2['full']:.5f}; wall {reduced_experiment['wall_time']:.0f}s"
          f" (<= 3600s)")
    for a, b in zip(values, values[1:]):
        assert b < a, f"E2 chain not strictly decreasing: {list(zip(chain, values))}"
    assert e2["32x16"] <= 1.5 * e2["full"]
    assert reduced_experiment["wall_time"] <= 3600
    # the span-distance factors order the variants the same way the grid
    # errors do
    learned_n = [8, 32, 128, 512]
    factors = [e_n[n] for n in learned_n]
    assert all(b < a for a, b in zip(factors, factors[1:]))
    # so do the extension's own errors: the image's distance to the full-view
    # image and the relative error of the gamma2 data
    for key in ("image_error", "gamma2_error"):
        errs = [reduced_experiment[key][name] for name in chain]
        print(f"[criterion 6] {key}: "
              + " > ".join(f"{name}={val:.5f}" for name, val in zip(chain, errs)))
        assert all(b < a for a, b in zip(errs, errs[1:])), \
            f"{key} not strictly decreasing: {list(zip(chain, errs))}"
    # error CSV: header plus six data rows (zero, four learned, full view)
    lines = (reduced_experiment["out_dir"] / "errors.csv").read_text() \
        .strip().split("\n")
    assert len(lines) == 7
    assert lines[0] == "variant,n,E2,E_n"
    assert lines[1].startswith("zero,0,") and lines[-1].startswith("full,,")
    for key, pins in PINNED_REDUCED.items():
        for name, want in pins.items():
            assert reduced_experiment[key][name] == pytest.approx(
                want, rel=PINNED_REDUCED_REL, abs=0.0), f"{key}[{name!r}]"


def test_c7_timing_structure(reduced_experiment):
    timings = reduced_experiment["timings"]
    for name, t in timings.items():
        assert t["extend"] <= 0.1 * t["train"], (
            f"{name}: extend {t['extend']:.3f}s > 10% of train {t['train']:.3f}s")
    big = timings["32x16"]
    assert big["extend"] <= 10.0 * big["reconstruct"]
    pretty = ", ".join(
        f"{k}: train {1e3 * v['train']:.1f} ms extend {1e3 * v['extend']:.1f} ms "
        f"({100 * v['extend'] / v['train']:.1f} %) recon "
        f"{1e3 * v['reconstruct']:.1f} ms" for k, v in timings.items())
    print(f"\n[criterion 7] timings: {pretty} -> PASS")


def test_c8_thread_count_determinism(tmp_path):
    shutil.copy(CONFIG_DIR / "phantom_reference.json",
                tmp_path / "phantom_reference.json")
    raw = json.loads((CONFIG_DIR / "experiment_smoke.json").read_text())
    # 8x4 lies above the smoke geometry's crossover (32 cells against
    # C / 10 = 13.5), so its model holds mean tables, not traces
    raw["n_list"] = [*raw["n_list"], [8, 4]]
    outputs = {}
    for threads in (1, 8):
        raw["out_dir"] = f"out_t{threads}"
        cfg_path = tmp_path / f"config_t{threads}.json"
        cfg_path.write_text(json.dumps(raw))
        cfg = ExperimentConfig.from_json(cfg_path)
        run_experiment(cfg, threads=threads)
        outputs[threads] = sorted(cfg.out_dir.glob("*.patb"))
    names1 = [p.name for p in outputs[1]]
    names8 = [p.name for p in outputs[8]]
    assert names1 == names8 and names1
    for a, b in zip(outputs[1], outputs[8]):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs"
    print(f"\n[criterion 8] determinism: {len(names1)} containers byte-identical "
          f"across --threads 1 and 8 -> PASS")


def test_c9_stability_witness(domain):
    geom = build_boundary(domain, 0.04, 0.04, 20.0)
    split = split_boundary(geom, GAMMA2_INTERVAL)
    grid = GridSpec(origin=(-2.2, -2.2), h=4.4 / 150, nx=151, ny=151,
                    domain=domain)
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(20):
        f = random_mix(rng)
        norm_f = grid_norm(rasterize(f, grid))
        u1 = simulate_wave_data(f, geom, split, Part.GAMMA1, threads=2)
        ratios.append(norm_f / boundary_time_norm(u1, geom))
    spread = max(ratios) / min(ratios)
    print(f"\n[criterion 9] stability witness: ratio spread "
          f"{spread:.2f} (<= 50), range [{min(ratios):.3f}, {max(ratios):.3f}]"
          f" -> PASS")
    assert spread <= 50
