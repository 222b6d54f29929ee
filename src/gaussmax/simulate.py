"""Monte Carlo sampling of the field on rectangle grids, and bound validation.

The field is sampled exactly on finite grids through a Cholesky factor of the
covariance matrix (grids capped at 10^4 points — beyond that, coarsen rather
than approximate silently).  Where the grid covariance is a Kronecker product
of per-axis covariances (the squared exponential, on a grid with at least two
axes of two or more points) the factor is kept as one small factor per axis
and applied one axis at a time; otherwise it is one dense n x n factor.
Replicates draw from fixed per-replicate substreams, so results are
bit-identical for a given (seed, reps, grid) regardless of batching.

Grid maxima underestimate the continuous maximum; the validation harness
therefore reports a grid-refinement sequence to show stabilization instead
of applying any bias correction.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import streams
from .bounds import tail_bound
from .geometry import rectangle_faces
from .hermite import _check_int, _finite
from .model import IsotropicModel
from .randmat import McEstimate

MAX_GRID_POINTS = 10_000
JITTER_FLAG_LEVEL = 1e-9
# Largest |rho(a + b) - rho(a) rho(b)| over the grid's offset table for which
# the covariance is taken to be the Kronecker product of its axes.
_SEPARABLE_TOL = 1e-12
_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# BLAS matmul results depend bitwise on the row count, so replicates are
# always pushed through identically shaped (256, n) blocks: chunk boundaries
# sit at fixed multiples of 256 and the last block is zero-padded.  That
# makes each replicate's maximum a pure function of (seed, grid, replicate
# index), independent of reps and of how calls are split.
_BATCH_ROWS = 256


@dataclass(frozen=True)
class FieldGrid:
    """Regular grid over the rectangle prod_i [0, L_i].

    Built from ``sides`` and ``resolution`` (points per axis: one positive
    integer for every axis or one per axis, at most MAX_GRID_POINTS points
    in all; a non-integral entry raises).  The read-only ``points`` follow
    from them: shape (count, d) with count = prod(resolution),
    ordered lexicographically by axis indices.  Every axis with resolution
    >= 2 includes both endpoints 0 and L_i, so all rectangle vertices are
    grid points; resolution 1 degenerates to the single coordinate 0.
    """

    sides: tuple
    resolution: tuple
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sides = rectangle_faces(self.sides).sides
        res = self.resolution
        res = [res] if np.ndim(res) == 0 else list(res)
        if len(res) == 1:
            res *= len(sides)
        if len(res) != len(sides):
            raise ValueError("resolution must be one integer or one per axis")
        res = tuple(_check_int(r, 1, math.inf, "every resolution entry")
                    for r in res)
        count = math.prod(res)
        if count > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {count} points, beyond the sampling cap "
                f"{MAX_GRID_POINTS}; coarsen the resolution")
        mesh = np.meshgrid(*map(_axis_points, sides, res), indexing="ij")
        points = np.stack([mm.ravel() for mm in mesh], axis=1)
        points.setflags(write=False)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "points", points)

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _axis_points(side: float, r: int) -> np.ndarray:
    """The r coordinates of one grid axis: 0 to side inclusive, or just 0."""
    return np.linspace(0.0, side, r) if r > 1 else np.zeros(1)


def make_grid(sides, resolution) -> FieldGrid:
    """The FieldGrid of ``sides`` at ``resolution`` points per axis."""
    return FieldGrid(sides, resolution)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular ``factors`` whose Kronecker product is the factor.

    One factor: the dense n x n L with L L^T = covariance + jitter * I.
    One factor per grid axis, (L_1, ..., L_d): L_i L_i^T = C_i + jitter * I
    for the axis covariance C_i, and the sampled covariance is
    (C_1 + jitter I) ⊗ ... ⊗ (C_d + jitter I).
    """

    factors: tuple
    jitter: float

    @property
    def flagged(self) -> bool:
        """True when the jitter is large enough to distort tail estimates."""
        return self.jitter > JITTER_FLAG_LEVEL


def _axis_covariances(m: IsotropicModel, grid: FieldGrid) -> list | None:
    """Per-axis covariances C_i if the grid covariance is C_1 ⊗ ... ⊗ C_d.

    Every grid covariance entry is rho(a_1 + ... + a_d) for a table entry of
    squared axis offsets a_i = (k_i h_i)^2, and the Kronecker product's is
    rho(a_1) ... rho(a_d).  The n entries of that table are compared, and
    the answer is yes when they all agree to _SEPARABLE_TOL (absolute, on
    correlations) and at least two axes have two or more points; else None.
    """
    if sum(r > 1 for r in grid.resolution) < 2:
        return None
    axes = list(map(_axis_points, grid.sides, grid.resolution))
    sq = np.ix_(*[t * t for t in axes])     # every axis starts at 0
    total = functools.reduce(np.add, sq)
    product = functools.reduce(np.multiply, [m.rho(a) for a in sq])
    if not np.all(np.abs(m.rho(total) - product) <= _SEPARABLE_TOL):
        return None
    return [np.asarray(m.rho((t[:, None] - t[None, :]) ** 2), dtype=float)
            for t in axes]


def covariance_cholesky(m: IsotropicModel, grid: FieldGrid) -> CholeskyFactor:
    """Cholesky factor of the grid covariance matrix, per axis where it can.

    If the grid has at least two axes of two or more points and rho(a + b)
    = rho(a) rho(b) holds to 1e-12 (absolute) on the grid's table of squared
    axis offsets, the covariance is C_1 ⊗ ... ⊗ C_d and the factor is one
    ``np.linalg.cholesky`` factor per axis.  Otherwise (every 1-D grid, every
    non-separable model) it is one dense factor of the n x n matrix.

    Smooth covariances make nearly-singular matrices on fine grids; the
    factorization retries with diagonal jitter escalating from 1e-12 by
    decades, one jitter for all axes: the smallest at which every axis
    factorizes.  So a per-axis factor samples (C_1 + eps I) ⊗ ... ⊗
    (C_d + eps I), not C + eps I; in two dimensions the two differ by
    eps (C_1 ⊗ I + I ⊗ C_2) + eps^2 I, whose norm is at most
    eps (|C_1| + |C_2|) + eps^2.  Failure at 1e-6 raises (degenerate model
    on this grid).
    """
    covs = _axis_covariances(m, grid)
    cholesky = np.linalg.cholesky
    if covs is None:
        import scipy.linalg

        p = grid.points
        sq = np.sum(p * p, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (p @ p.T)
        np.maximum(d2, 0.0, out=d2)
        covs = [np.asarray(m.rho(d2), dtype=float)]
        cholesky = functools.partial(scipy.linalg.cholesky, lower=True,
                                     check_finite=False)
    for jitter in _JITTER_LADDER:
        try:
            factors = tuple(
                cholesky(c if jitter == 0.0 else c + jitter * np.eye(len(c)))
                for c in covs)
        except np.linalg.LinAlgError:   # scipy.linalg raises the same class
            continue
        return CholeskyFactor(factors=factors, jitter=jitter)
    raise ValueError(
        "covariance matrix is not positive definite even with jitter 1e-6; "
        "the model is degenerate on this grid")


def sample_maxima(m: IsotropicModel, grid: FieldGrid, reps: int, seed: int,
                  factor: CholeskyFactor | None = None) -> np.ndarray:
    """Maxima of ``reps`` independent field draws on the grid.

    Replicate r uses its own counter window of the seeded stream, so the
    result is bit-identical for fixed (seed, reps, grid) no matter how the
    computation is batched.  ``factor`` may pass a precomputed Cholesky
    factor (for example to reuse it across u-levels); it must be this grid's:
    one factor per axis of sizes ``grid.resolution``, or one of size
    ``grid.count``.

    Each block of normals, shaped (rows, *sizes), is multiplied by L_i^T
    along axis i for every factor L_i; with one dense factor that is the
    single product z @ L^T.
    """
    reps = _check_int(reps, 1, math.inf, "reps")
    if factor is None:
        factor = covariance_cholesky(m, grid)
    sizes = tuple(len(f) for f in factor.factors)
    if (sizes not in (grid.resolution, (grid.count,))
            or any(f.shape != (k, k) for f, k in zip(factor.factors, sizes))):
        raise ValueError(
            f"factor of shapes {[f.shape for f in factor.factors]} does not "
            f"fit a grid of resolution {grid.resolution}")
    n = grid.count
    out = np.empty(reps)
    done = 0
    while done < reps:
        nb = min(_BATCH_ROWS, reps - done)
        z = streams.normals(seed, streams.DOMAIN_FIELD, done, nb, n)
        if nb < _BATCH_ROWS:
            zp = np.zeros((_BATCH_ROWS, n))
            zp[:nb] = z
            z = zp
        vals = z.reshape(_BATCH_ROWS, *sizes)
        for axis, f in enumerate(factor.factors, start=1):
            vals = np.moveaxis(np.moveaxis(vals, axis, -1) @ f.T, -1, axis)
        out[done:done + nb] = vals.reshape(_BATCH_ROWS, n)[:nb].max(axis=1)
        done += nb
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Empirical maxima tails against the analytic tail bounds.

    The headline ``empirical`` estimates come from the finest grid of the
    refinement sequence; ``empirical_by_refinement`` keeps the whole
    sequence (one tuple of McEstimate per factor) to show stabilization.
    ``verdicts[i]`` is "bound_respected" iff
    empirical mean - 3 stderr <= pbar_tail, else "inconclusive".
    """

    u_values: tuple
    empirical: tuple
    pbar_tails: tuple
    pE_tails: tuple
    verdicts: tuple
    refinement_factors: tuple
    empirical_by_refinement: tuple
    jitters: tuple
    notes: tuple

    def to_json_dict(self) -> dict:
        return {
            "u_values": list(self.u_values),
            "empirical": [asdict(e) for e in self.empirical],
            "pbar_tails": list(self.pbar_tails),
            "pE_tails": list(self.pE_tails),
            "verdicts": list(self.verdicts),
            "refinement_factors": list(self.refinement_factors),
            "empirical_by_refinement": [
                [asdict(e) for e in row]
                for row in self.empirical_by_refinement],
            "jitters": list(self.jitters),
            "notes": list(self.notes),
        }


def _empirical_tail(maxima: np.ndarray, u_values, reps: int,
                    seed: int) -> tuple:
    out = []
    for u in u_values:
        p = float(np.mean(maxima > u))
        se = math.sqrt(p * (1.0 - p) / reps)
        out.append(McEstimate(mean=p, stderr=se, reps=reps, seed=seed))
    return tuple(out)


def _refinement_factors(refinements) -> tuple:
    """The factors as ints >= 1, nonempty and strictly increasing, so that
    the last grid is the finest."""
    out = tuple(_check_int(k, 1, math.inf, "every refinement factor")
                for k in refinements)
    if not out or any(a >= b for a, b in zip(out, out[1:])):
        raise ValueError("refinement factors must be a nonempty, strictly "
                         "increasing sequence, so the last grid is the finest")
    return out


def validate_bound(m: IsotropicModel, grid: FieldGrid, u_values, reps: int,
                   seed: int, refinements=(1, 2, 4)) -> ValidationReport:
    """Check empirical P{max > u} against the analytic tail bounds.

    Runs the sampler on the base grid and on refinements of it (resolution
    multiplied by each factor; the factors are integers and strictly
    increasing, so the last grid is the finest), estimates the exceedance
    probability at each u, and compares the finest grid's estimates against
    pbar_tail / pE_tail of the grid's rectangle.

    Grid maxima underestimate the continuous maximum, so "bound_respected"
    is conservative evidence for the bound; the refinement sequence is
    reported to show the discretization has stabilized.
    """
    reps = _check_int(reps, 2, math.inf, "reps")
    u_values = tuple(_finite(u, "every u value") for u in u_values)
    if not u_values:
        raise ValueError("need at least one u level")
    refinements = _refinement_factors(refinements)
    geom = rectangle_faces(grid.sides)
    tails = [tail_bound(m, geom, u) for u in u_values]
    pbar_tails = tuple(t.pbar_tail for t in tails)
    pE_tails = tuple(t.pE_tail for t in tails)

    emp_by_ref = []
    jitters = []
    notes = ["grid maxima underestimate the continuous maximum; verdicts "
             "compare the finest grid and the refinement sequence shows "
             "stabilization"]
    for k in refinements:
        g = grid if k == 1 else make_grid(
            grid.sides, tuple(r * k for r in grid.resolution))
        factor = covariance_cholesky(m, g)
        maxima = sample_maxima(m, g, reps, seed, factor=factor)
        emp_by_ref.append(_empirical_tail(maxima, u_values, reps, seed))
        jitters.append(factor.jitter)
        if factor.flagged:
            notes.append(f"refinement x{k}: Cholesky needed jitter "
                         f"{factor.jitter:g} (above the reporting threshold); "
                         "tail estimates may be distorted at fine tolerances")

    final = emp_by_ref[-1]
    verdicts = tuple(
        "bound_respected" if e.mean - 3.0 * e.stderr <= pb else "inconclusive"
        for e, pb in zip(final, pbar_tails))
    return ValidationReport(u_values=u_values, empirical=final,
                            pbar_tails=pbar_tails, pE_tails=pE_tails,
                            verdicts=verdicts,
                            refinement_factors=refinements,
                            empirical_by_refinement=tuple(emp_by_ref),
                            jitters=tuple(jitters), notes=tuple(notes))
