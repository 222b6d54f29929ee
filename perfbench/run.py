"""End-to-end and per-layer benchmark of the gaussmax CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

NAME is one of bound_sweep, tail_polytope, validate_mc (see workloads.py
for why each was chosen); ``all`` runs each in turn.

``--trace 0`` measures the end-to-end metrics.  For up to S seconds it runs
rounds of three children: the workload's command, a fixed REFERENCE
start-up that does not import gaussmax, and a start-up-only command
(``goe`` with n=1, one abscissa); then it adds start-up runs until it has at
least MIN_SETUP.  The CLI runs as ``python -m gaussmax.cli`` with ``src`` on
PYTHONPATH; wall time, user+sys CPU and peak RSS come from ``os.wait4``.
``wall_ref`` and ``cpu_ref`` are the workload's wall and CPU time in units
of the reference runs before and after it, ``setup_s`` is the start-up
command's wall time in seconds, and ``peak_rss_mb`` the workload's peak RSS.
It reports medians with their sample counts, and the raw ``wall_s``,
``cpu_s`` and ``reference_s`` next to them.

``--trace 1`` makes one traced run (perfbench/tracer.py: the CLI run in
one process with spans around the calls into each module) between two
untraced start-up and workload runs, which give the tracing overhead, and,
for the workloads that use BLAS threads, one more traced run with the
child's BLAS limited to one thread.  It reports the per-layer metrics.

Outputs are checked outside the timed spans (workloads.py).  Every run's
output must be byte-identical to the first, and a traced output identical to
the untraced one.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; attempted counts the rows requested
plus the checks made, failed the rows that failed plus the checks that
failed, so ``failed / attempted`` is the error rate.  The lines before it
give what decides whether two results are comparable (``env``: nproc, BLAS,
library versions, git sha, seeds), each metric with its unit and samples,
and ``error_rate``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import tracer
import workloads
from workloads import ROOT, Tally

# (name, unit, better, bound): the bound is the share of the parent's
# median by which a metric may worsen before a change counts as a regression.
# wall_ref and cpu_ref are the workload child's wall and CPU time divided by
# the wall time of REFERENCE runs made just before and after it.
E2E_METRICS = (
    ("wall_ref", "ref", "lower", 0.25),
    ("cpu_ref", "ref", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# A fixed start-up that does not involve gaussmax: the interpreter importing
# the libraries the CLI uses.  On a shared 2-core VM the speed of every child
# swung by up to 1.7x within minutes; it moves this reference and the
# workloads together, so the ratio stays steadier, and a change to gaussmax
# still shows in full.
REFERENCE = ("-c", "import numpy, scipy.integrate, scipy.linalg, "
                   "scipy.optimize, scipy.spatial, scipy.special")
MIN_SETUP = 6
CHILD_TIMEOUT_S = 60.0
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit: int
    stdout: str


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(extra or {})
    return env


def run_child(argv, env) -> Sample:
    """Run argv from the repository root; time it and wait until it ends."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0:
        tail = b"".join(err).decode("utf-8", "replace").strip()[-2000:]
        print(f"perfbench: {' '.join(argv[1:4])} exited with "
              f"{proc.returncode}: {tail}", file=sys.stderr)
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, exit=proc.returncode,
                  stdout=out.decode("utf-8", "replace"))


def run_cli(argv, env=None) -> Sample:
    return run_child([sys.executable, "-m", "gaussmax.cli", *argv],
                     env or child_env())


def run_traced(argv, env=None) -> dict:
    """The record perfbench/tracer.py prints for one traced CLI run."""
    sample = run_child([sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                        *argv], env or child_env())
    try:
        record = json.loads(sample.stdout.splitlines()[-1])
    except (ValueError, IndexError):
        record = {"exit": sample.exit or 1, "output": "", "metrics": {}}
    if sample.exit != 0:
        record["exit"] = sample.exit
    return record


def git_sha():
    """HEAD of the checkout, read from .git without running git; else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def env_info(name: str, seed: int, inp) -> dict:
    """What decides whether two results are comparable."""
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS for the probe)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name, "seed": seed, "cli_seed": inp.cli_seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": tracer.blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ONE_THREAD_ENV},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "git_sha": git_sha(), "source_sha256": source_sha256(),
    }


def check_same(tally: Tally, samples, first: str, what: str):
    for s in samples:
        tally.expect(s.stdout == first, f"{what}: output differs between runs")


def run_reference() -> Sample:
    return run_child([sys.executable, *REFERENCE], child_env())


def measure(w, inp, setup, seconds: int, tally: Tally) -> tuple[dict, dict]:
    """End-to-end samples, and the raw times they derive from.

    A run is a reference run followed by rounds of workload, reference and
    start-up runs; each workload run is divided by the mean of the two
    reference runs around it.
    """
    refs = [run_reference()]
    setups, runs = [], []
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        runs.append(run_cli(inp.argv))
        refs.append(run_reference())
        setups.append(run_cli(setup.argv))
        now = time.perf_counter()
        # Stop before a round that would likely end past the window.
        if now - t0 + (now - t1) > seconds:
            break
    while len(setups) < MIN_SETUP:
        setups.append(run_cli(setup.argv))

    for r in refs:
        tally.expect(r.exit == 0, f"reference start-up exited with {r.exit}")
    for s in setups:
        workloads.check_setup(setup, s.exit, s.stdout, tally)
    check_same(tally, setups[1:], setups[0].stdout, "setup")
    payloads = [workloads.check_output(inp, r.exit, r.stdout, tally, w.name)
                for r in runs]
    if payloads[0] is not None:
        w.check(inp, payloads[0], tally)
        w.check_deep(inp, payloads[0], tally)
    check_same(tally, runs[1:], runs[0].stdout, w.name)

    local = [(a.wall_s + b.wall_s) / 2.0 for a, b in zip(refs, refs[1:])]
    samples = {"wall_ref": [r.wall_s / t for r, t in zip(runs, local)],
               "cpu_ref": [r.cpu_s / t for r, t in zip(runs, local)],
               "setup_s": [s.wall_s for s in setups],
               "peak_rss_mb": [r.peak_rss_mb for r in runs]}
    raw = {"wall_s": [r.wall_s for r in runs], "cpu_s": [r.cpu_s for r in runs],
           "reference_s": [r.wall_s for r in refs]}
    return samples, raw


def measure_layers(w, inp, setup, tally: Tally) -> dict:
    """Per-layer metrics from traced runs, with the tracing overhead.

    The untraced reference is the mean of a start-up and a workload run on
    each side of the traced run, so that a drift in host speed cancels.
    """
    setups = [run_cli(setup.argv)]
    bases = [run_cli(inp.argv)]
    record = run_traced(inp.argv)
    bases.append(run_cli(inp.argv))
    setups.append(run_cli(setup.argv))

    for s in setups:
        workloads.check_setup(setup, s.exit, s.stdout, tally)
    base = bases[0]
    payload = workloads.check_output(inp, base.exit, base.stdout, tally, w.name)
    if payload is not None:
        w.check(inp, payload, tally)
        w.check_deep(inp, payload, tally)
    check_same(tally, bases[1:], base.stdout, w.name)
    workloads.check_output(inp, record["exit"], record.get("output", ""),
                           tally, f"{w.name} traced")
    tally.expect(record.get("output") == base.stdout,
                 f"{w.name}: traced output differs from the untraced output")
    metrics = {name: record["metrics"].get(name, 0)
               for name, _, _, _ in tracer.LAYER_METRICS}
    untraced_main = (statistics.fmean(b.wall_s for b in bases)
                     - statistics.fmean(s.wall_s for s in setups))
    metrics["trace.untraced_main_s"] = untraced_main
    metrics["trace.overhead_ratio"] = (
        metrics["cli.main_s"] / untraced_main if untraced_main > 0 else 0.0)
    for name in tracer.ONE_THREAD_LAYERS:
        metrics[name + "_1thread"] = 0.0
    if w.one_thread:
        one = run_traced(inp.argv, child_env(ONE_THREAD_ENV))
        # BLAS sums in another order on one thread, so the last bits of
        # Monte Carlo outputs may differ: check the rows, not byte identity.
        one_payload = workloads.check_output(
            inp, one["exit"], one.get("output", ""), tally,
            f"{w.name} 1-thread traced")
        if one_payload is not None:
            w.check(inp, one_payload, tally)
        for name in tracer.ONE_THREAD_LAYERS:
            metrics[name + "_1thread"] = one["metrics"].get(name, 0.0)
        print(f"{w.name} 1-thread traced run: BLAS threads "
              f"{one.get('blas_threads')}")
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    w = workloads.WORKLOADS[name]
    inp = w.inputs(seed)
    setup = workloads.setup_inputs(seed)
    tally = Tally()
    print("env " + json.dumps(env_info(name, seed, inp), sort_keys=True))
    if trace:
        values = measure_layers(w, inp, setup, tally)
        units = {n: u for n, u, _, _ in tracer.LAYER_METRICS}
        for metric, value in values.items():
            print(f"{name} {metric} = {value!r} {units[metric]}")
    else:
        samples, raw = measure(w, inp, setup, seconds, tally)
        values = {m: statistics.median(v) for m, v in samples.items()}
        units = {n: u for n, u, _, _ in E2E_METRICS}
        units.update(wall_s="s", cpu_s="s", reference_s="s")
        for metric, v in [*samples.items(), *raw.items()]:
            listed = ", ".join(f"{x:.4g}" for x in v)
            print(f"{name} {metric} = {statistics.median(v)!r} {units[metric]} "
                  f"(median of {len(v)}: {listed})")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{name} error_rate = {error_rate!r} ({tally.failed} failed of "
          f"{tally.attempted} rows and checks)")
    for problem in tally.problems:
        print(f"{name} FAILED: {problem}")
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    missing = [p for p in ("src/gaussmax/cli.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the checkout lacks {', '.join(missing)}; run from "
              "the root of a full gaussmax checkout", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
