"""Per-layer spans for one in-process run of the gaussmax CLI.

Usage: ``python3 perfbench/tracer.py <gaussmax CLI arguments>`` with
``src`` on ``PYTHONPATH``.  The script times ``import gaussmax.cli``, wraps
the public (and hot private) functions of each gaussmax module from here,
runs ``gaussmax.cli.main`` in this process with stdout captured, and prints
one JSON object: the CLI's exit code and output, and every metric of
``LAYER_METRICS`` that a traced run measures.

Nothing in ``src/gaussmax`` knows about these spans.  A wrapped name that a
later version of the program no longer has is skipped, and its metrics read
0.  Spans are kept in memory (name, start, end, parent) and are reduced to
calls, total time and self time (total minus the time of direct child spans)
when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import sys
import time
from array import array
from collections import Counter

# Every per-layer metric: (name, unit, better, the end-to-end metric and
# workload it should move).  BENCHMARK.json lists the first three fields.
LAYER_METRICS = (
    ("cli.import_s", "s", "lower", "setup_s on all workloads"),
    ("cli.main_s", "s", "lower", "in-process total; base of trace.overhead_ratio"),
    ("model.require_valid.calls", "count", "lower", "wall_ref on tail_polytope"),
    ("model.require_valid.s", "s", "lower", "wall_ref on tail_polytope"),
    ("hermite.eval_all.calls", "count", "lower", "wall_ref on bound_sweep and tail_polytope"),
    ("hermite.eval_all.s", "s", "lower", "wall_ref on bound_sweep and tail_polytope"),
    ("randmat.norm_hermites.calls", "count", "lower", "wall_ref on bound_sweep and tail_polytope"),
    ("randmat.norm_hermites.s", "s", "lower", "wall_ref on bound_sweep and tail_polytope"),
    ("bounds.pbar_density.calls", "count", "lower", "wall_ref on bound_sweep"),
    ("bounds.pbar_density.s", "s", "lower", "wall_ref on bound_sweep"),
    ("bounds.quad.cross_check.calls", "count", "lower", "wall_ref on bound_sweep"),
    ("bounds.quad.cross_check.neval", "count", "lower", "wall_ref on bound_sweep"),
    ("bounds.quad.cross_check.s", "s", "lower", "wall_ref on bound_sweep"),
    ("bounds.tail_bound.calls", "count", "lower", "wall_ref on tail_polytope"),
    ("bounds.tail_bound.s", "s", "lower", "wall_ref on tail_polytope"),
    ("bounds.R_correction.calls", "count", "lower", "wall_ref on tail_polytope"),
    ("bounds.R_correction.s", "s", "lower", "wall_ref on tail_polytope"),
    ("bounds.quad.tail.calls", "count", "lower", "wall_ref on tail_polytope"),
    ("bounds.quad.tail.neval", "count", "lower", "wall_ref on tail_polytope"),
    ("bounds.quad.tail.s", "s", "lower", "wall_ref on tail_polytope"),
    ("bounds.T_series.calls", "count", "lower", "wall_ref on bound_sweep and tail_polytope"),
    ("bounds.T_series.points", "count", "lower", "wall_ref on bound_sweep and tail_polytope"),
    ("bounds.T_series.s", "s", "lower", "wall_ref on bound_sweep and tail_polytope"),
    ("bounds.T_series.self_s", "s", "lower", "wall_ref on bound_sweep and tail_polytope"),
    ("geometry.polytope_g_coeffs.calls", "count", "lower", "wall_ref on tail_polytope"),
    ("geometry.polytope_g_coeffs.s", "s", "lower", "wall_ref on tail_polytope"),
    ("geometry.polytope_g_coeffs.self_s", "s", "lower", "wall_ref on tail_polytope"),
    ("geometry.directions", "count", "lower", "wall_ref on tail_polytope"),
    ("streams.normals.calls", "count", "lower", "wall_ref and cpu_ref on validate_mc and tail_polytope"),
    ("streams.normals.s", "s", "lower", "wall_ref and cpu_ref on validate_mc and tail_polytope"),
    ("streams.words.field", "count", "lower", "wall_ref and cpu_ref on validate_mc"),
    ("streams.words.directions", "count", "lower", "wall_ref and cpu_ref on tail_polytope"),
    ("simulate.covariance_cholesky.calls", "count", "lower", "wall_ref on validate_mc"),
    ("simulate.covariance_cholesky.s", "s", "lower", "wall_ref on validate_mc"),
    ("simulate.covariance_cholesky.self_s", "s", "lower", "wall_ref on validate_mc"),
    ("simulate.cholesky.attempts", "count", "lower", "wall_ref on validate_mc"),
    ("simulate.cholesky.useful_ratio", "ratio", "higher", "wall_ref on validate_mc"),
    ("simulate.jitter_max", "1", "lower", "recorded with the Cholesky metrics"),
    ("simulate.sample_maxima.calls", "count", "lower", "wall_ref and cpu_ref on validate_mc"),
    ("simulate.sample_maxima.s", "s", "lower", "wall_ref and cpu_ref on validate_mc"),
    ("simulate.sample_maxima.self_s", "s", "lower", "wall_ref and cpu_ref on validate_mc"),
    ("simulate.matmul.flops_computed", "flop", "lower", "wall_ref, cpu_ref and peak_rss_mb on validate_mc"),
    ("simulate.matmul.useful_rows_ratio", "ratio", "higher", "recorded with simulate.matmul.flops_computed"),
    # Measured by perfbench/run.py around the traced runs, not by this script.
    ("trace.untraced_main_s", "s", "lower", "untraced workload wall time - setup_s, same run"),
    ("trace.overhead_ratio", "ratio", "lower", "cli.main_s / trace.untraced_main_s"),
    ("cli.main_s_1thread", "s", "lower", "what 2 BLAS threads buy on validate_mc and tail_polytope"),
    ("streams.normals.s_1thread", "s", "lower", "what 2 BLAS threads buy on validate_mc and tail_polytope"),
    ("geometry.polytope_g_coeffs.s_1thread", "s", "lower", "what 2 BLAS threads buy on tail_polytope"),
    ("bounds.tail_bound.s_1thread", "s", "lower", "what 2 BLAS threads buy on tail_polytope"),
    ("simulate.covariance_cholesky.s_1thread", "s", "lower", "what 2 BLAS threads buy on validate_mc"),
    ("simulate.sample_maxima.s_1thread", "s", "lower", "what 2 BLAS threads buy on validate_mc"),
)

# Layers whose time the single-threaded BLAS run reports.
ONE_THREAD_LAYERS = ("cli.main_s", "streams.normals.s",
                     "geometry.polytope_g_coeffs.s", "bounds.tail_bound.s",
                     "simulate.covariance_cholesky.s",
                     "simulate.sample_maxima.s")

# sample_maxima pushes replicates through zero-padded blocks of this many
# rows, so one block costs 2 * _BLOCK_ROWS * n^2 flops on an n-point grid.
_BLOCK_ROWS = 256


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``self._names[name_id]``."""
        i = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` with a span per call; hooks see (args, kwargs[, result])."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = self.call(name_id, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def high(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds.

        No wrapped function calls itself, so no span nests in one of the
        same name and the totals count each interval once.
        """
        n = len(self._start)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self._names}
        for i in range(n):
            name = self._names[self._name[i]]
            dur = self._end[i] - self._start[i]
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out


def _replace(modules, original, replacement):
    """Point every module global bound to ``original`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def install(tracer: Tracer):
    """Wrap the layer functions of every loaded gaussmax module."""
    import numpy as np
    import scipy.linalg

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "gaussmax" or n.startswith("gaussmax.")]
    counts = tracer.counts

    def layer(module, attr, name, before=None, after=None):
        fn = getattr(sys.modules.get("gaussmax." + module), attr, None)
        if callable(fn):
            _replace(modules, fn, tracer.wrap(fn, name, before, after))

    def t_points(args, kwargs):
        counts["bounds.T_series.points"] += int(np.size(_arg(args, kwargs, 1, "v")))

    streams = sys.modules.get("gaussmax.streams")

    def words(args, kwargs):
        domain = _arg(args, kwargs, 1, "domain")
        n_reps = int(_arg(args, kwargs, 3, "n_reps"))
        per_rep = int(_arg(args, kwargs, 4, "per_rep"))
        # One Philox counter block is 4 words; each replicate starts on one.
        drawn = n_reps * 4 * ((per_rep + 3) // 4)
        if domain == getattr(streams, "DOMAIN_FIELD", None):
            counts["streams.words.field"] += drawn
        elif domain == getattr(streams, "DOMAIN_DIRECTIONS", None):
            counts["streams.words.directions"] += drawn
            counts["geometry.directions"] += n_reps

    def jitter(args, kwargs, factor):
        tracer.high("simulate.jitter_max", float(getattr(factor, "jitter", 0.0)))

    def matmul(args, kwargs):
        n = int(_arg(args, kwargs, 1, "grid").count)
        reps = int(_arg(args, kwargs, 2, "reps"))
        blocks = -(-reps // _BLOCK_ROWS)
        counts["simulate.matmul.flops_computed"] += blocks * 2 * _BLOCK_ROWS * n * n
        counts["simulate.matmul.rows_useful"] += reps
        counts["simulate.matmul.rows_computed"] += blocks * _BLOCK_ROWS

    layer("model", "require_valid", "model.require_valid")
    layer("hermite", "_eval_all", "hermite.eval_all")
    layer("randmat", "_norm_hermites", "randmat.norm_hermites")
    layer("bounds", "T_series", "bounds.T_series", before=t_points)
    layer("bounds", "R_correction", "bounds.R_correction")
    layer("bounds", "pbar_density", "bounds.pbar_density")
    layer("bounds", "tail_bound", "bounds.tail_bound")
    layer("geometry", "polytope_g_coeffs", "geometry.polytope_g_coeffs")
    layer("streams", "uniforms", "streams.uniforms", before=words)
    layer("streams", "normals", "streams.normals")
    layer("simulate", "covariance_cholesky", "simulate.covariance_cholesky",
          after=jitter)
    layer("simulate", "sample_maxima", "simulate.sample_maxima",
          before=matmul)

    bounds = sys.modules.get("gaussmax.bounds")
    quad = getattr(bounds, "quad", None)
    if callable(quad):
        ids = {kind: tracer.name_id("bounds.quad." + kind)
               for kind in ("cross_check", "tail")}

        @functools.wraps(quad)
        def traced_quad(func, a, b, *args, **kwargs):
            # Infinite limits: the cross-check of a fixed rule; a finite
            # interval [u, cutoff]: the complementary tail integral.
            kind = "cross_check" if math.isinf(a) and math.isinf(b) else "tail"
            key = "bounds.quad." + kind + ".neval"

            def counted(x, *fargs):
                counts[key] += 1
                return func(x, *fargs)
            return tracer.call(ids[kind], quad, counted, a, b, *args, **kwargs)
        bounds.quad = traced_quad

    cholesky = scipy.linalg.cholesky

    @functools.wraps(cholesky)
    def counted_cholesky(*args, **kwargs):
        counts["simulate.cholesky.attempts"] += 1
        result = cholesky(*args, **kwargs)
        counts["simulate.cholesky.factorizations"] += 1
        return result
    _replace(modules + [scipy.linalg], cholesky, counted_cholesky)


def layer_metrics(tracer: Tracer, import_s: float, main_s: float) -> dict:
    """The values of LAYER_METRICS that one traced run measures.

    The ``trace.*`` and ``*_1thread`` metrics compare runs and are added by
    perfbench/run.py.
    """
    spans = tracer.summary()
    counts = tracer.counts
    out = {"cli.import_s": import_s, "cli.main_s": main_s}
    for name, _, _, _ in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if name in out or name.startswith("trace.") or name.endswith("_1thread"):
            continue
        if field in ("calls", "s", "self_s"):
            out[name] = spans.get(span, {}).get(field, 0)
        else:
            out[name] = counts.get(name, 0)
    attempts = counts["simulate.cholesky.attempts"]
    out["simulate.cholesky.useful_ratio"] = (
        counts["simulate.cholesky.factorizations"] / attempts if attempts else 0.0)
    rows = counts["simulate.matmul.rows_computed"]
    out["simulate.matmul.useful_rows_ratio"] = (
        counts["simulate.matmul.rows_useful"] / rows if rows else 0.0)
    out["simulate.jitter_max"] = tracer.maxima.get("simulate.jitter_max", 0.0)
    return out


def main(argv) -> int:
    t0 = time.perf_counter()
    import gaussmax.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - t0
    json.dump({"exit": code, "output": buf.getvalue(),
               "blas_threads": blas_threads(),
               "metrics": layer_metrics(tracer, import_s, main_s)},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


def blas_threads():
    """Threads of each OpenBLAS loaded in this process (Linux; else {})."""
    import ctypes
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
