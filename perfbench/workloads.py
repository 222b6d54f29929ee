"""The benchmark's workloads: CLI inputs made from a seed, and output checks.

Each workload turns the workload seed into explicit CLI inputs (an explicit
``u`` list and ``--seed``); the program sees only those.  Levels are drawn
one per equal-width stratum of the range, so every seed costs about the same
while the abscissae still differ from seed to seed.

Why each workload, and which layers it uses (U) and bypasses (B):

- ``bound_sweep``: ``bound``, rational model (c=1, beta=1, gamma < 1) on the
  unit cube as a rectangle (exact g), 101 abscissae in [-2, 8].  About 98% of
  its compute is the 303 adaptive cross-check ``quad`` calls of
  ``pbar_density`` and the scalar ``T_series`` calls inside them.
  U: cli, model, hermite, randmat, bounds (pbar_density, R_correction,
  T_series, cross-check quad).  B: tail_bound, geometry sampler, streams,
  simulate.
- ``tail_polytope``: ``tail``, same model on the unit 3-simplex as 4
  halfspaces, 10^6 directions per face, 101 levels in [-2, 8].  Many cheap
  scalar R_correction calls with the cross-check off under an outer tail
  ``quad``, and the only workload that runs the direction sampler of
  ``geometry`` (and so ``streams`` without ``simulate``).
  U: cli, model, hermite, randmat, bounds (tail_bound, R_correction,
  T_series, both quads), geometry, streams.  B: pbar_density, simulate.
- ``validate_mc``: ``validate`` at the acceptance configuration
  (squared-exponential c=0.5, unit square, 25^2 grid, refinements (1, 2),
  10^4 reps, u in {1, 2, 2.5, 3}).  Normals, Cholesky with jitter retries
  and the BLAS block matmul; gamma = 1, so ``bounds`` costs almost nothing.
  U: cli, model, streams, simulate, bounds (tail_bound, tail quad only).
  B: pbar_density, cross-check quad, geometry sampler.

No workload reaches ``asympt``, ``sphere_pbar``, ``mc_absdet`` or ``goe``
beyond start-up (they are not on the bound, tail and validate paths), and
Tier-1 test wall time (over 100 s) is too long to repeat on every run.
"""
from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RATIONAL = {"family": "rational", "c": 1.0, "beta": 1.0}
SQ_EXP = {"family": "squared_exponential", "c": 0.5}
UNIT_CUBE = {"kind": "rectangle", "sides": [1.0, 1.0, 1.0]}
UNIT_SQUARE = {"kind": "rectangle", "sides": [1.0, 1.0]}
UNIT_SIMPLEX = {"kind": "halfspaces",
                "halfspaces": [[[-1.0, 0.0, 0.0], 0.0], [[0.0, -1.0, 0.0], 0.0],
                               [[0.0, 0.0, -1.0], 0.0], [[1.0, 1.0, 1.0], 1.0]]}
SPOT_CHECKS = 3


class Tally:
    """Rows and output checks attempted and failed, for ``error_rate``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def rows(self, expected: int, good: int, what: str):
        self.attempted += expected
        if good < expected:
            self.failed += expected - good
            self.problems.append(f"{what}: {expected - good} of {expected} rows failed")


@dataclass(frozen=True)
class Inputs:
    """One workload instance: CLI arguments and what the checks need."""

    argv: tuple
    levels: tuple
    cli_seed: int
    spots: tuple = ()
    level_column: int = 0


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> tuple:
    width = (hi - lo) / n
    return tuple(lo + (i + rng.random()) * width for i in range(n))


def _set(key: str, value) -> list:
    return ["--set", f"{key}={json.dumps(value, separators=(',', ':'))}"]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def setup_inputs(seed: int) -> Inputs:
    """The start-up-only command: ``goe`` with n=1 at one abscissa."""
    nu = _rng("setup", seed).uniform(-1.0, 1.0)
    return Inputs(argv=("goe", "--format", "json", *_set("n", 1), *_set("u", [nu])),
                  levels=(nu,), cli_seed=0, level_column=1)


def _payload(text: str):
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def good_rows(inp: Inputs, payload) -> list:
    """Rows of the output whose level column holds the requested level."""
    if payload is None:
        return []
    rows = payload.get("rows") or []
    col = inp.level_column
    return [r for r, level in zip(rows, inp.levels)
            if len(r) > col and r[col] == level]


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def _oracles():
    for sub in ("src", "tests"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import oracles
    from gaussmax import bounds, geometry, model
    return oracles, bounds, geometry, model


def _spots(rng: random.Random, levels: tuple) -> tuple:
    return tuple(sorted(rng.sample(range(len(levels)), SPOT_CHECKS)))


class Workload:
    name = ""
    why = ""
    one_thread = False  # also trace a run with the child's BLAS on 1 thread

    def inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def check(self, inp: Inputs, payload: dict, tally: Tally):
        """Cheap checks of every row of one output."""

    def check_deep(self, inp: Inputs, payload: dict, tally: Tally):
        """Checks against independent oracles, once per benchmark run."""


class BoundSweep(Workload):
    name = "bound_sweep"
    why = ("bound, gamma<1 model on the cube: the adaptive cross-check quad "
           "and scalar T_series dominate; bypasses tail_bound, geometry "
           "sampler, streams and simulate")

    def __init__(self, points: int = 101):
        self.points = points

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        xs = _stratified(rng, -2.0, 8.0, self.points)
        cli_seed = rng.getrandbits(32)
        argv = ("bound", "--format", "json", "--seed", str(cli_seed),
                *_set("model", RATIONAL), *_set("geometry", UNIT_CUBE),
                *_set("u", list(xs)))
        return Inputs(argv=argv, levels=xs, cli_seed=cli_seed,
                      spots=_spots(rng, xs))

    def check(self, inp, payload, tally):
        cols = payload.get("columns", [])
        d0 = len(UNIT_CUBE["sides"])
        want = (["x", "pbar", "pE"] + [f"principal_{j}" for j in range(d0 + 1)]
                + [f"complementary_{j}" for j in range(d0 + 1)])
        tally.expect(cols == want, "bound: columns")
        for row in good_rows(inp, payload):
            x, pbar, pe = row[:3]
            principal, comp = row[3:4 + d0], row[4 + d0:]
            scale = math.fsum(abs(v) for v in row[3:]) or 1.0
            tally.expect(pbar >= pe, f"bound: pbar < pE at x={x!r}")
            tally.expect(abs(pe - math.fsum(principal)) <= 1e-12 * scale,
                         f"bound: pE is not the sum of the principal terms at x={x!r}")
            tally.expect(abs(pbar - pe - math.fsum(comp)) <= 1e-12 * scale,
                         f"bound: pbar - pE is not the sum of the complementary terms at x={x!r}")

    def check_deep(self, inp, payload, tally):
        oracles, _, geometry, model = _oracles()
        m = model.make_rational(RATIONAL["c"], RATIONAL["beta"])
        geom = geometry.rectangle_faces(UNIT_CUBE["sides"])
        rows = good_rows(inp, payload)
        for i in inp.spots:
            x = inp.levels[i]
            got = rows[i][1] if i < len(rows) else math.nan
            want = oracles.pbar_goe_path(m, geom, x)
            tally.expect(_close(got, want, 1e-6),
                         f"bound: pbar({x!r}) = {got!r}, GOE route gives {want!r}")


class TailPolytope(Workload):
    name = "tail_polytope"
    why = ("tail on the 3-simplex as halfspaces: many scalar R_correction "
           "calls under the outer tail quad, plus the geometry direction "
           "sampler; bypasses pbar_density and simulate")
    one_thread = True

    def __init__(self, points: int = 101, reps: int = 1_000_000):
        self.points = points
        self.reps = reps

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        us = _stratified(rng, -2.0, 8.0, self.points)
        cli_seed = rng.getrandbits(32)
        argv = ("tail", "--format", "json", "--seed", str(cli_seed),
                "--reps", str(self.reps), *_set("model", RATIONAL),
                *_set("geometry", UNIT_SIMPLEX), *_set("u", list(us)))
        return Inputs(argv=argv, levels=us, cli_seed=cli_seed,
                      spots=_spots(rng, us))

    def check(self, inp, payload, tally):
        tally.expect(payload.get("columns") == ["u", "pbar_tail", "pE_tail"],
                     "tail: columns")
        rows = good_rows(inp, payload)
        for u, pbar, pe in rows:
            tally.expect(pbar >= pe, f"tail: pbar_tail < pE_tail at u={u!r}")
        for (u0, pbar0, pe0), (u1, pbar1, pe1) in zip(rows, rows[1:]):
            tally.expect(pbar1 <= pbar0,
                         f"tail: pbar_tail increases from u={u0!r} to u={u1!r}")
            # The pE density is negative left of the bulk (below about
            # -0.67 on this simplex), where pE_tail rightly increases.
            if u0 >= 0.0:
                tally.expect(pe1 <= pe0,
                             f"tail: pE_tail increases from u={u0!r} to u={u1!r}")

    def check_deep(self, inp, payload, tally):
        oracles, bounds, geometry, model = _oracles()
        m = model.make_rational(RATIONAL["c"], RATIONAL["beta"])
        geom = geometry.polytope_g_coeffs(UNIT_SIMPLEX["halfspaces"],
                                          reps=self.reps, seed=inp.cli_seed)
        g0, se0 = geom.g[0], geom.g_stderr[0]
        tally.expect(abs(g0 - 1.0) <= 4.0 * se0,
                     f"tail: g_0 = {g0!r} is not within 4 stderr ({se0!r}) of 1")
        active = [j for j in range(1, geom.d0 + 1) if geom.g[j] > 0.0]

        def pbar(x):
            # pbar_density without its per-point cross-check.
            phi = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
            return bounds.pE_density(m, geom, x) + math.fsum(
                max(0.0, phi * bounds.R_correction(m, j, x, cross_check=False)
                    * geom.g[j]) for j in active)

        rows = good_rows(inp, payload)
        for i in inp.spots:
            u = inp.levels[i]
            got_pbar, got_pe = rows[i][1:] if i < len(rows) else (math.nan,) * 2
            want_pbar = oracles.tail_from_density_quad(pbar, u)
            want_pe = oracles.tail_from_density_quad(
                lambda x: bounds.pE_density(m, geom, x), u)
            # Both quadratures stop at an absolute error of 1e-13, which
            # dominates the relative tolerance deep in the tail.
            tally.expect(_close(got_pbar, want_pbar, 1e-7, 1e-12),
                         f"tail: pbar_tail({u!r}) = {got_pbar!r}, density quadrature gives {want_pbar!r}")
            tally.expect(_close(got_pe, want_pe, 1e-9, 1e-12),
                         f"tail: pE_tail({u!r}) = {got_pe!r}, density quadrature gives {want_pe!r}")


class ValidateMC(Workload):
    name = "validate_mc"
    why = ("validate at the acceptance configuration: normals, Cholesky with "
           "jitter retries and the BLAS block matmul; gamma=1 so bounds is "
           "almost bypassed, as are geometry and pbar_density")
    one_thread = True
    u_values = (1.0, 2.0, 2.5, 3.0)

    def __init__(self, resolution: int = 25, reps: int = 10_000):
        self.resolution = resolution
        self.reps = reps

    def inputs(self, seed):
        cli_seed = _rng(self.name, seed).getrandbits(32)
        argv = ("validate", "--format", "json", "--seed", str(cli_seed),
                "--reps", str(self.reps), *_set("model", SQ_EXP),
                *_set("geometry", UNIT_SQUARE),
                *_set("resolution", [self.resolution] * 2),
                *_set("refinements", [1, 2]), *_set("u", list(self.u_values)))
        return Inputs(argv=argv, levels=self.u_values, cli_seed=cli_seed)

    def check(self, inp, payload, tally):
        for u, _, _, pbar, pe, verdict in good_rows(inp, payload):
            tally.expect(verdict == "bound_respected",
                         f"validate: verdict {verdict!r} at u={u!r}")
            tally.expect(pbar >= pe, f"validate: pbar_tail < pE_tail at u={u!r}")
        report = payload.get("report") or {}
        by_ref = report.get("empirical_by_refinement") or []
        tally.expect(report.get("refinement_factors") == [1, 2] and len(by_ref) == 2,
                     "validate: refinement sequence")
        if len(by_ref) == 2:
            for u, c, f in zip(inp.levels, *by_ref):
                gap = abs(c["mean"] - f["mean"])
                se = math.hypot(c["stderr"], f["stderr"])
                tally.expect(gap <= 4.0 * se,
                             f"validate: coarse and fine grids differ by {gap!r} "
                             f"(> 4 stderr {se!r}) at u={u!r}")


WORKLOADS = {w.name: w for w in (BoundSweep(), TailPolytope(), ValidateMC())}


def check_output(inp: Inputs, exit_code: int, text: str,
                 tally: Tally, what: str):
    """Row accounting for one CLI output; returns its payload or None.

    A non-zero exit counts every row as failed.
    """
    payload = _payload(text) if exit_code == 0 else None
    tally.rows(len(inp.levels), len(good_rows(inp, payload)),
               f"{what} (exit {exit_code})")
    return payload


def check_setup(inp: Inputs, exit_code: int, text: str, tally: Tally):
    payload = check_output(inp, exit_code, text, tally, "setup")
    rows = good_rows(inp, payload)
    if rows:
        density = rows[0][2]
        tally.expect(math.isfinite(density) and density > 0.0,
                     f"setup: GOE density {density!r}")
