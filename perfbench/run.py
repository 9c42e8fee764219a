"""The lvpat benchmark: one command for end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload {pipeline,apply,forward-mix} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it uses the lvpat sources under src/
of that checkout and needs no install.  Workloads, inputs and output checks
are described in workloads.py.  Every process runs lvpat with threads=2,
the shipped configs' value and the core count of the reference machine.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s         median over three set-ups, each in a fresh process:
                  imports plus input generation, and for apply and
                  forward-mix the cache fill and model build
  wall_s          wall time of the timed phase, which runs operations while
                  the next is expected to end within S seconds (at least one)
  ops_per_s       operations that passed their checks, per second of wall_s
  latency_p50_s   median operation latency
  latency_tail_s  the highest percentile with at least ten samples beyond
                  it; with fewer than 21 samples, where that percentile would
                  not exceed the median, the maximum.  Rank and sample count
                  are printed.
  peak_rss_mb     ru_maxrss of the process that ran the timed phase
--trace 1 reports the per-layer metrics of spans.layer_metrics.  Three
processes run the same fixed work (set-up plus one pass over the input
pool): untraced, traced, and traced with threads=1 and one BLAS thread.
  <layer>.thread_speedup  busy time at threads=1 over busy time at threads=2
  trace.overhead_frac     (traced - untraced) / untraced pass wall time

A failed operation is one that raised or failed an output check.  The
failed fraction is printed with the metrics and carried by the `attempted`
and `failed` fields of the result.  With the default seed the outputs are
also compared with reference.json, recorded by `--record-reference`.

Before the result the command prints a table of the metrics with units and
one `env` line (git SHA, source digest, seed, nproc, Python, numpy, scipy,
BLAS configuration and thread count); the same record goes to
.bench_out/.  The last line of stdout is the JSON result.  Without lvpat
sources the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("pipeline", "apply", "forward-mix")
DEFAULT_SEED = 0
REFERENCE_REL_TOL = 1e-8
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run must end within 180 s
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "latency_p50_s": "s", "latency_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = [*layer_metrics([]), "forward.thread_speedup",
             "inversion.thread_speedup", "trace.overhead_frac"]


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    if name.endswith(("_speedup", "_frac")):
        return "ratio"
    return "count"


def run_worker(args, role: str, deadline: float, threads=None, trace=False,
               env=None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role,
           "--seconds", str(args.seconds)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if trace:
        cmd.append("--trace")
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError(f"no time left for the {role} worker")
    # on timeout, subprocess.run kills the worker and waits for it
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=remaining,
                          env=None if env is None else {**os.environ, **env})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_latency(latencies) -> tuple:
    """(value, 1-based rank, sample count) of the tail latency."""
    lat = sorted(latencies)
    n = len(lat)
    rank = n - 10 if n >= 21 else n
    return lat[rank - 1], rank, n


def compare_reference(workload: str, ops: list) -> None:
    """Add a failure to every operation whose values leave the reference."""
    table = json.loads(REFERENCE.read_text())["workloads"].get(workload, {})
    for op in ops:
        if op["failures"]:
            continue
        expected = table.get(str(op["item"]))
        if expected is None:
            op["failures"].append(f"no reference values for item {op['item']}")
            continue
        for key, want in expected.items():
            got = op["values"].get(key)
            if got is None or not abs(got - want) <= REFERENCE_REL_TOL * abs(want):
                op["failures"].append(f"{key} = {got!r}, reference {want!r}")


def end_to_end(args, deadline: float) -> tuple:
    setups = [run_worker(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    timed = run_worker(args, "timed", deadline)
    setups.append(timed["setup_s"])
    if args.seed == DEFAULT_SEED:
        compare_reference(args.workload, timed["ops"])
    latencies = [op["latency_s"] for op in timed["ops"]]
    tail, rank, n = tail_latency(latencies)
    passed = sum(1 for op in timed["ops"] if not op["failures"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": timed["wall_s"],
        "ops_per_s": passed / timed["wall_s"],
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    notes = {"setup_samples_s": setups,
             "latency_tail": f"rank {rank} of {n} samples (p{100 * rank / n:.0f})"}
    return metrics, notes, [timed]


def per_layer(args, deadline: float) -> tuple:
    plain = run_worker(args, "pass", deadline)
    traced = run_worker(args, "pass", deadline, trace=True)
    single = run_worker(args, "pass", deadline, threads=1, trace=True,
                        env=SINGLE_THREAD_ENV)
    runs = [plain, traced, single]
    if args.seed == DEFAULT_SEED:
        for run in runs:
            compare_reference(args.workload, run["ops"])

    def speedup(name):
        one, two = single["layers"][name], traced["layers"][name]
        return one / two if one > 0 and two > 0 else 0.0

    metrics = dict(traced["layers"])
    metrics["forward.thread_speedup"] = speedup("forward.simulate_s")
    metrics["inversion.thread_speedup"] = speedup("inversion.reconstruct_s")
    metrics["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    notes = {"pass_wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"],
                             "traced_threads1": single["wall_s"]}}
    return metrics, notes, runs


def record_reference() -> int:
    """Write the outputs of one pass per workload at the default seed."""
    table = {}
    deadline = time.monotonic() + 3 * DEADLINE_S
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=0)
        run = run_worker(args, "pass", deadline)
        bad = [op["failures"] for op in run["ops"] if op["failures"]]
        if bad:
            print(f"error: {workload}: {bad}", file=sys.stderr)
            return 1
        table[workload] = {str(op["item"]): op["values"] for op in run["ops"]}
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": table},
                                    indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the current sources")
    args = ap.parse_args()
    if not (ROOT / "src" / "lvpat" / "__init__.py").is_file():
        print(f"error: no lvpat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        ap.error("need --workload, a seed >= 0 and seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, runs = measure(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for run in runs for op in run["ops"]]
    failed = [op for op in ops if op["failures"]]
    names = PER_LAYER if args.trace else list(END_TO_END)
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in names}}

    print(f"lvpat benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for k in names:
        print(f"  {k:34s} {metrics[k]:>16.6g} {unit_of(k)}")
    print(f"  {'fail_frac':34s} {len(failed) / len(ops):>16.6g} ratio "
          f"({len(failed)} of {len(ops)} operations)")
    for k, v in notes.items():
        print(f"  {k}: {v}")
    for op in failed[:5]:
        print(f"  failed item {op['item']}: {op['failures'][0].strip()}")
    env = runs[0]["env"]  # the run at the shipped thread count
    print("env " + json.dumps(env, sort_keys=True))
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({**result, "env": env, "notes": notes,
                                "failures": [op["failures"] for op in failed]},
                               indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
