"""Self-checks of the benchmark: seeded inputs, failure accounting, tracing
and metric names.  Run with `python3 -m pytest -q perfbench`."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

import lvpat.metrics  # noqa: E402
import lvpat.phantoms  # noqa: E402

GENERATORS = {"pipeline": workloads.pipeline_inputs,
              "apply": workloads.apply_inputs,
              "forward-mix": workloads.forward_mix_inputs}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(name):
    assert json.dumps(GENERATORS[name](7)) == json.dumps(GENERATORS[name](7))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_different_seeds_give_different_inputs(name):
    assert json.dumps(GENERATORS[name](7)) != json.dumps(GENERATORS[name](8))


def _terms(spec):
    return [t for _, q in spec["terms"] for t in _terms(q)] \
        if spec["type"] == "sum" else [spec]


@pytest.mark.parametrize("seed", range(20))
def test_phantoms_lie_in_the_training_box(seed):
    x_lo, x_hi, y_lo, y_hi = workloads.REDUCED["box"]
    specs = [workloads.pipeline_inputs(seed)[1], *workloads.apply_inputs(seed),
             *workloads.forward_mix_inputs(seed)]
    for spec in specs:
        for term in _terms(spec):
            b = lvpat.phantoms.phantom_from_dict(term).bounding_box()
            assert x_lo < b[0] < b[1] < x_hi and y_lo < b[2] < b[3] < y_hi


def test_failed_check_raises_fail_frac():
    wl = workloads.Apply(0, HERE, 1)
    good = {"image_finite": True, "E2": 0.1, "norm.u1": 1.0, "norm.u2_hat": 1.0}
    ops = [(0, 0.3, good, None),
           (1, 0.3, dict(good, image_finite=False), None),
           (2, 0.3, dict(good, E2=float("nan")), None),
           (3, 0.3, None, "Traceback: ParameterError")]
    rows = worker.check_ops(wl, ops, oracle_check=False)
    assert [bool(r["failures"]) for r in rows] == [False, True, True, True]


def test_reference_mismatch_fails_the_operation():
    ref = json.loads(run.REFERENCE.read_text())["workloads"]["apply"]["0"]
    ops = [{"item": 0, "failures": [], "values": dict(ref)},
           {"item": 0, "failures": [], "values": dict(ref, E2=ref["E2"] * (1 + 1e-6))},
           {"item": 99, "failures": [], "values": dict(ref)}]
    run.compare_reference("apply", ops)
    assert [bool(op["failures"]) for op in ops] == [False, True, True]


def test_tail_latency_rank():
    assert run.tail_latency(range(1, 32)) == (21, 21, 31)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 3, 3)


def test_tracer_records_nested_spans_and_restores():
    original = lvpat.metrics.rasterize
    domain = lvpat.phantoms.EllipseDomain(2.0, 1.0)
    grid = lvpat.phantoms.GridSpec(origin=(-1.0, -1.0), h=0.1, nx=21, ny=21,
                                   domain=domain)
    square = lvpat.phantoms.SquareIndicator(-0.5, 0.0, -0.5, 0.0)
    other = lvpat.phantoms.SquareIndicator(0.0, 0.5, 0.0, 0.5)
    tracer = Tracer("test")
    tracer.install()
    try:
        lvpat.metrics.subspace_distance(square, [other], grid)
    finally:
        tracer.uninstall()
    assert lvpat.metrics.rasterize is original
    names = {sid: name for sid, name, *_ in tracer.spans}
    parents = [(name, names.get(parent)) for _, name, _, _, parent, *_ in tracer.spans]
    assert parents.count(("phantoms.rasterize", "metrics.subspace_distance")) == 2
    m = layer_metrics(tracer.spans)
    assert 0.0 < m["phantoms.rasterize_s"] <= m["metrics.subspace_distance_s"]
    assert m["inversion.calls"] == 0 and m["cli.run_experiment_s"] == 0


def test_metric_names_match_the_benchmark_file():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == run.PER_LAYER
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert m["unit"] == run.unit_of(m["name"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
