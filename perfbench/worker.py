"""One phase of one benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --role ROLE
                                [--seconds S] [--threads T] [--trace]

Roles:
  setup  set up and stop; reports setup_s only.
  timed  set up, run operations over the input pool for about S seconds
         (see run_ops), then check every output.
  pass   set up, then run each item of the input pool once.

setup_s runs from this process's first statement, so it includes importing
numpy, scipy and lvpat.  With --trace the whole run (set-up included) is
traced and the per-layer metrics are reported; the forward-vs-oracle check
runs only in untraced runs.  The last line of stdout is one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (puts the checkout's src/ on sys.path)
from spans import Tracer, layer_metrics, peak_rss_mb  # noqa: E402

ROOT = workloads.ROOT
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"


def _git_sha():
    """HEAD of the checkout, or None when the checkout is not its own repo."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lvpat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "config": info.get("openblas configuration"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                out["threads"] = fn()
                return out
    return out


def environment(seed: int, threads: int) -> dict:
    return {"git_sha": _git_sha(), "src_digest": _src_digest(), "seed": seed,
            "threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas()}


def run_ops(wl, pool_pass: bool, seconds: float) -> tuple:
    """Run operations; returns ([(item, latency, kept, error)], wall seconds).

    A pass runs each pool item once.  Otherwise operations run while the
    next one, at the mean operation time so far, is expected to end within
    `seconds`; at least one runs.  An exception fails its operation and the
    loop goes on.
    """
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops) % wl.pool
        t0 = time.perf_counter()
        try:
            out, err = wl.run_op(i), None
        except Exception:  # counted as a failed operation
            out, err = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        ops.append((i, latency, None if err else wl.extract(i, out), err))
        elapsed = time.perf_counter() - start
        done = len(ops) >= wl.pool if pool_pass else \
            elapsed * (len(ops) + 1) / len(ops) > seconds
        if done:
            return ops, time.perf_counter() - start


def check_ops(wl, ops, oracle_check: bool) -> list:
    """Per operation: {item, latency_s, failures, values}."""
    rows = []
    for i, latency, kept, err in ops:
        if err is not None:
            fails, values = [err], {}
        else:
            try:
                fails, values = wl.check(i, kept, oracle_check)
            except Exception:  # a check that cannot run fails its operation
                fails, values = [traceback.format_exc(limit=3)], {}
        rows.append({"item": i, "latency_s": latency, "failures": fails,
                     "values": values})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", required=True, choices=("setup", "timed", "pass"))
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--threads", type=int, default=workloads.THREADS)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tag = f"{args.workload}-s{args.seed}-{args.role}-t{args.threads}" \
          f"{'-traced' if args.trace else ''}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer(tag) if args.trace else None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, args.threads)
        if tracer:
            tracer.install()
        wl.setup()
        result = {"role": args.role, "setup_s": time.perf_counter() - T_START}
        if args.role != "setup":
            ops, wall = run_ops(wl, args.role == "pass", args.seconds)
            result["wall_s"] = wall
            result["peak_rss_mb"] = peak_rss_mb()
            if tracer:
                tracer.uninstall()
                result["layers"] = layer_metrics(tracer.spans)
                OUT_ROOT.mkdir(exist_ok=True)
                tracer.write(OUT_ROOT / f"spans-{tag}.jsonl")
            result["ops"] = check_ops(wl, ops, oracle_check=tracer is None)
        result["env"] = environment(args.seed, args.threads)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
