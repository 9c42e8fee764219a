"""Spans around the calls into lvpat's modules, recorded from outside the program.

`Tracer.install` replaces selected public lvpat functions, at every module
name they are bound to, with wrappers that record one span per call: name,
start, end, parent span, thread, run id, the process's ru_maxrss at the
span's end, and counts computed from the call's array sizes.  `uninstall`
puts the original functions back.  Spans stay in memory until the run ends;
`layer_metrics` folds them into the per-layer numbers the benchmark reports.

Parents come from a per-thread stack of open spans.  A span opened on a
worker thread with an empty stack takes the innermost span open on the
thread that installed the tracer, because lvpat starts every thread pool
from that thread (through `_util.parallel_map`).
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("geometry", "phantoms", "arcmeans", "forward", "extension",
          "inversion", "metrics", "io", "cli")


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _file_bytes(pos, key, label):
    def count(args, kwargs, result):
        return {label: os.path.getsize(_arg(args, kwargs, pos, key))}
    return count


def _gram_bytes(args, kwargs, result):
    # n * |gamma1| * T * 8 bytes: every training trace is read once
    ts = _arg(args, kwargs, 0, "ts")
    return {"gram_bytes": ts.n * ts.u1[0].samples.size * 8}


def _node_pixel_pairs(args, kwargs, result):
    u = _arg(args, kwargs, 0, "u")
    return {"node_pixel_pairs": u.samples.shape[0] * int(result.domain_mask.sum())}


# (module, function, counts computed from (args, kwargs, result) or None).
# Every count is derived from array or file sizes, so it repeats exactly for
# the same inputs.
TARGETS = (
    ("geometry", "build_boundary", None),
    ("phantoms", "rasterize", None),
    ("arcmeans", "exact_mean_table", lambda args, kwargs, r: {"radii": len(r)}),
    ("forward", "simulate_wave_data",
     lambda args, kwargs, r: {"traces": r.samples.shape[0]}),
    ("forward", "wave_trace", lambda args, kwargs, r: {"traces": 1}),
    ("extension", "build_training_set",
     lambda args, kwargs, r: {"outside_detection": len(r.outside_detection)}),
    ("extension", "gram_matrix", _gram_bytes),
    ("extension", "factorize",
     lambda args, kwargs, r: {"ridge_nonzero": int(r[1] > 0.0)}),
    ("extension", "extend", None),
    ("extension", "load_model", None),
    ("inversion", "reconstruct", _node_pixel_pairs),
    ("inversion", "ubp_filter", None),
    ("metrics", "e2_error", None),
    ("metrics", "subspace_distance", None),
    ("io", "write_wave_data", _file_bytes(1, "path", "write_bytes")),
    ("io", "write_image_field", _file_bytes(1, "path", "write_bytes")),
    ("io", "export_pgm", _file_bytes(3, "path", "write_bytes")),
    ("io", "export_csv", _file_bytes(1, "path", "write_bytes")),
    ("io", "read_wave_data", _file_bytes(0, "path", "read_bytes")),
    ("io", "read_image_field", _file_bytes(0, "path", "read_bytes")),
    ("cli", "run_experiment", None),
)

_IO_WRITES = ("io.write_wave_data", "io.write_image_field", "io.export_pgm",
              "io.export_csv")
_IO_READS = ("io.read_wave_data", "io.read_image_field")


def peak_rss_mb() -> float:
    """ru_maxrss of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans around lvpat's public functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent, thread, rss_mb, counts)
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = None
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)  # recursion inside one layer call
            outer = stack or self._root_stack
            try:
                parent = outer[-1][0] if outer else None
            except IndexError:  # the root thread closed its span meanwhile
                parent = None
            span_id = next(self._ids)
            stack.append((span_id, name))
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result) if ok and counter else {}
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), peak_rss_mb(), counts))
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at each lvpat module name bound to it."""
        self._root_stack = self._stack()
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "lvpat" or k.startswith("lvpat.")) and m is not None]
        for mod_name, fn_name, counter in TARGETS:
            fn = getattr(sys.modules[f"lvpat.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", fn, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread, rss, counts in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "thread": thread, "rss_mb": rss, "counts": counts}) + "\n")


def _merge(intervals) -> list:
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _measure(merged) -> float:
    return sum(b - a for a, b in merged)


def _overlap(m1, m2) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(m1) and j < len(m2):
        lo = max(m1[i][0], m2[j][0])
        hi = min(m1[i][1], m2[j][1])
        if hi > lo:
            total += hi - lo
        if m1[i][1] < m2[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics from spans; a layer that did not run reports 0.

    A `_s` metric is the wall time during which at least one span of that
    name was open (spans on parallel threads count once).  A layer's self
    time is its spans' wall time not covered by their child spans.
    """
    by_name = defaultdict(list)
    counts = defaultdict(int)
    for sid, name, start, end, parent, thread, rss, cnt in spans:
        by_name[name].append((sid, start, end, parent, rss))
        for key, val in cnt.items():
            counts[f"{name.split('.')[0]}.{key}"] += val

    def busy(*names):
        return _measure(_merge((s, e) for n in names for _, s, e, _, _ in by_name[n]))

    def self_time(layer):
        ids = set()
        own = []
        for n, rows in by_name.items():
            if n.split(".")[0] == layer:
                ids.update(r[0] for r in rows)
                own.extend((r[1], r[2]) for r in rows)
        own = _merge(own)
        kids = _merge((s, e) for rows in by_name.values()
                      for _, s, e, parent, _ in rows if parent in ids)
        return _measure(own) - _overlap(own, kids)

    def calls(name):
        return len(by_name[name])

    m = {
        "arcmeans.exact_mean_table_s": busy("arcmeans.exact_mean_table"),
        "arcmeans.calls": calls("arcmeans.exact_mean_table"),
        "arcmeans.radii": counts["arcmeans.radii"],
        "forward.simulate_s": busy("forward.simulate_wave_data"),
        "forward.self_s": self_time("forward"),
        "forward.traces": counts["forward.traces"],
        "extension.build_training_set_s": busy("extension.build_training_set"),
        "extension.gram_s": busy("extension.gram_matrix"),
        "extension.factorize_s": busy("extension.factorize"),
        "extension.gram_bytes_computed": counts["extension.gram_bytes"],
        "extension.ridge_nonzero": counts["extension.ridge_nonzero"],
        "extension.outside_detection": counts["extension.outside_detection"],
        "extension.extend_s": busy("extension.extend"),
        "extension.extend_calls": calls("extension.extend"),
        "extension.load_model_s": busy("extension.load_model"),
        "inversion.reconstruct_s": busy("inversion.reconstruct"),
        "inversion.ubp_filter_s": busy("inversion.ubp_filter"),
        "inversion.calls": calls("inversion.reconstruct"),
        "inversion.node_pixel_pairs": counts["inversion.node_pixel_pairs"],
        "metrics.e2_error_s": busy("metrics.e2_error"),
        "metrics.subspace_distance_s": busy("metrics.subspace_distance"),
        "phantoms.rasterize_s": busy("phantoms.rasterize"),
        "io.write_s": busy(*_IO_WRITES),
        "io.write_bytes": counts["io.write_bytes"],
        "io.read_s": busy(*_IO_READS),
        "io.read_bytes": counts["io.read_bytes"],
        "geometry.build_boundary_s": busy("geometry.build_boundary"),
        "cli.run_experiment_s": busy("cli.run_experiment"),
        "cli.self_s": self_time("cli"),
    }
    for layer in LAYERS:
        m[f"{layer}.peak_rss_mb"] = max(
            (r[4] for n, rows in by_name.items() if n.split(".")[0] == layer
             for r in rows), default=0.0)
    return m
