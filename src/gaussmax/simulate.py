"""Monte Carlo sampling of the field on rectangle grids, and bound validation.

The field is sampled exactly on finite grids through a factor F of the grid
covariance, C = F F^T to 1e-12 per entry (grids capped at 10^4 points —
beyond that, coarsen rather than approximate silently).  Every factor comes
from one certified low-rank pivoted Cholesky.  Where C is a Kronecker
product of per-axis covariances (every 1-D grid, and the squared
exponential on any grid) there is one factor per axis, of shape
(n_i, r_i), applied one axis at a time; otherwise (``rational`` on 2+ axes
of 2+ points) there is one factor of shape (n, r).  A replicate draws
r_1 ... r_d normals, not one per grid point: smooth fields have r_i of 8 or
9 on 25 to 100 points per axis.  Replicates draw from fixed per-replicate
substreams, so results are bit-identical for a given (seed, reps, grid)
regardless of batching.  One pass over blocks of 256 replicates samples
every grid of a validation: each block draws its normals once for all grids
with the same r_1 ... r_d, and per-axis fields are formed and reduced to
their maxima a cache-sized slice of the block at a time.  The blocks are
spread over min(usable cores, blocks) threads, and the thread count never
changes a bit.  The package runs its own parallelism, so BLAS is best left
on one thread, as the CLI sets it unless one of OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS is set (see :mod:`.cli`).  Only with a
multi-threaded BLAS do the bits of factors whose rank reaches a few
hundred depend on the BLAS thread count (see :func:`sample_maxima`).

Grid maxima underestimate the continuous maximum; the validation harness
therefore reports a grid-refinement sequence to show stabilization instead
of applying any bias correction.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .bounds import _tail_rows
from .geometry import rectangle_faces
from .hermite import _check_int, _finite, _refinement_factors
from .model import IsotropicModel
from .randmat import McEstimate

MAX_GRID_POINTS = 10_000
# Largest |rho(a + b) - rho(a) rho(b)| over the grid's offset table for which
# the covariance is taken to be the Kronecker product of its axes; also the
# certified bound on every entry of C - F F^T for every factor F of a
# covariance C, per axis or dense (the pivoting stops at half of it).
_SEPARABLE_TOL = 1e-12
# BLAS matmul results depend bitwise on the row count, so replicates are
# always pushed through same-shape blocks of 256 rows: chunk boundaries
# sit at fixed multiples of 256 and the last block is zero-padded.  That
# makes each replicate's maximum a pure function of (seed, grid, replicate
# index), independent of reps and of how calls are split.  A factor also
# grows, and is certified, by blocks of 256 columns and rows.
_BATCH_ROWS = 256
# Field values per slice of a block on which the last per-axis product and
# the maximum run (13 rows at 50 x 50), so a slice stays in cache.
_SLICE_VALUES = 2 ** 15


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


def _grid_covariances(m: IsotropicModel, grid: FieldGrid) -> list:
    """The covariances to factor: [C_1, ..., C_d] if the grid covariance is
    C_1 ⊗ ... ⊗ C_d, else [C] for the dense n x n covariance C.

    Every grid covariance entry is rho(a_1 + ... + a_d) for a table entry of
    squared axis offsets a_i = (k_i h_i)^2, and the Kronecker product's is
    rho(a_1) ... rho(a_d).  The n entries of that table are compared, and
    the covariance is taken to be the product when they all agree to
    _SEPARABLE_TOL (absolute, on correlations).  Every 1-D grid passes.
    """
    axes = list(map(_axis_points, grid.sides, grid.resolution))
    sq = np.ix_(*[t * t for t in axes])     # every axis starts at 0
    total = functools.reduce(np.add, sq)
    product = functools.reduce(np.multiply, [m.rho(a) for a in sq])
    if np.all(np.abs(m.rho(total) - product) <= _SEPARABLE_TOL):
        return [m.rho((t[:, None] - t[None, :]) ** 2) for t in axes]
    cov = np.empty((grid.count, grid.count))
    for i in range(0, grid.count, _BATCH_ROWS):     # a block of rows at a time
        d2 = functools.reduce(np.add, [(x[i:i + _BATCH_ROWS, None] - x) ** 2
                                       for x in grid.points.T])
        cov[i:i + _BATCH_ROWS] = m.rho(d2)
    return [cov]


def _pivoted_cholesky(c: np.ndarray) -> np.ndarray:
    """Low-rank factor F, shape (n, r), with every entry of c - F F^T at most
    _SEPARABLE_TOL in absolute value; ValueError if no such F is found.  c
    is symmetric, and only its lower triangle is used.

    Greedy pivoted Cholesky (Harbrecht, Peters & Schneider 2012, Appl.
    Numer. Math. 62, 428-440), blocked as LAPACK's ?pstrf: each step pivots
    on the largest remaining diagonal entry, until that entry is at most
    half of _SEPARABLE_TOL (a margin for rounding in the check).  Within a
    block of _BATCH_ROWS pivots a column is corrected by the block's
    earlier columns only; after the block, matrix products update the
    residual of the rows not yet pivoted.  Every entry of c - F F^T is
    checked once as it is formed: each block's pivot columns against the
    rows not pivoted before it, then the rows never pivoted against each
    other, where an indefinite c fails.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    rows = np.arange(n)     # rows of c not yet pivoted, ascending
    a = c                   # their residual; only its lower triangle is kept
    buf = None              # the residual's storage once a block is done
    rest = np.diag(c).copy()
    panels = []             # (rows, pivots among them, their columns of F)
    while True:
        m = len(rows)
        g = np.empty((m, min(_BATCH_ROWS, m)))
        raw = np.empty((g.shape[1], m))     # the pivots' residual columns
        piv = []
        while len(piv) < g.shape[1]:
            p = int(np.argmax(rest))
            if not rest[p] > _SEPARABLE_TOL / 2:
                break
            j = len(piv)
            raw[j] = np.concatenate((a[p, :p], a[p:, p]))
            g[:, j] = col = (raw[j] - g[:, :j] @ g[p, :j]) / math.sqrt(rest[p])
            rest -= col ** 2
            piv.append(p)
        k = len(piv)
        _certify(raw[:k].T - g[:, :k] @ g[piv, :k].T)
        panels.append((rows, piv, g[:, :k]))
        keep = np.ones(m, dtype=bool)
        keep[piv] = False
        idx = np.flatnonzero(keep)
        if k < g.shape[1] or not len(idx):
            break
        # Residual of the kept rows less this block's g g^T, written a block
        # of rows at a time over the old residual's storage: kept row i is
        # old row idx[i] >= i, so no row is overwritten before it is read.
        m = len(idx)
        if buf is None:
            buf = np.empty(m * m)
        new, g = buf[:m * m].reshape(m, m), g[keep]
        for i in range(0, m, _BATCH_ROWS):
            stop = min(i + _BATCH_ROWS, m)
            new[i:stop, :stop] = (a[np.ix_(idx[i:stop], idx[:stop])]
                                  - g[i:stop] @ g[:stop].T)
        a, rows, rest = new, rows[keep], rest[keep]
        del new
    g = g[idx, :k]          # the rows never pivoted, against each other
    for i in range(0, len(idx), _BATCH_ROWS):
        stop = min(i + _BATCH_ROWS, len(idx))
        _certify(np.tril(a[np.ix_(idx[i:stop], idx[:stop])]
                         - g[i:stop] @ g[:stop].T, i))
    del a, buf
    f = np.zeros((n, sum(len(piv) for _, piv, _ in panels)))
    k = 0
    for rows, piv, g in panels:
        f[rows, k:k + len(piv)] = g
        k += len(piv)
    return f


def _certify(residual: np.ndarray) -> None:
    """ValueError unless every entry of this part of c - F F^T is within
    _SEPARABLE_TOL."""
    if not np.all(np.abs(residual) <= _SEPARABLE_TOL):
        raise ValueError(
            f"covariance is not positive definite to {_SEPARABLE_TOL:g} "
            "per entry; the model is degenerate on this grid")


def covariance_cholesky(m: IsotropicModel, grid: FieldGrid) -> tuple:
    """Certified low-rank factors of the grid covariance matrix.

    If rho(a + b) = rho(a) rho(b) holds to 1e-12 (absolute) on the grid's
    table of squared axis offsets (every 1-D grid; the squared exponential
    on any grid), the covariance is C_1 ⊗ ... ⊗ C_d and the result is one
    pivoted-Cholesky factor F_i of shape (n_i, r_i) per axis, so that
    (F_1 F_1^T) ⊗ ... ⊗ (F_d F_d^T) is the sampled covariance.  Otherwise
    (a non-separable model such as ``rational`` on 2+ axes of 2+ points)
    it is the 1-tuple of one pivoted-Cholesky factor of shape (n, r) of the
    dense n x n covariance.  Either way every entry of the factored
    covariance minus F_i F_i^T is certified to 1e-12, and a smooth
    covariance has small numerical rank r_i, the factor's column count, so
    a replicate draws r_1 ... r_d normals.  A covariance that fails its
    certificate (a model that is not positive definite on this grid) raises
    ValueError.
    """
    return tuple(map(_pivoted_cholesky, _grid_covariances(m, grid)))


def sample_maxima(m: IsotropicModel, grid: FieldGrid, reps: int,
                  seed: int) -> np.ndarray:
    """Maxima of ``reps`` (at most ``streams.MAX_REPS`` = 10^7) independent
    draws of the field of ``m`` on the grid, sampled through
    ``covariance_cholesky(m, grid)``.

    Replicate r uses its own counter window of the seeded stream, so the
    result is bit-identical for fixed (seed, reps, grid) no matter how the
    computation is batched.  The blocks of 256 replicates run on
    min(usable cores, blocks) threads, and that count never moves a bit.

    The CLI runs BLAS on one thread: it sets OPENBLAS_NUM_THREADS,
    OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless one of them is already
    set (set one yourself to choose another count) or NumPy is already
    loaded.  A library caller who keeps a multi-threaded BLAS gets bits
    that depend on
    the BLAS thread count once a factor's rank reaches a few hundred: at 1
    and 2 OpenBLAS threads the results agree up to rank 200 but differ at
    ranks 400 and 600.  Such a caller also pays for the block threads on
    dense factors, where both pools compete for the cores: on a 2-core
    host with 2 OpenBLAS threads, ``rational(0.8, 1)`` on the unit square
    at 25 x 25 and 50 x 50 (ranks 151 and 152, 10^4 replicates) took
    235-281 ms with a serial sampler and 304-325 ms with block threads,
    against 216-226 ms with block threads and one BLAS thread (medians of
    10 in two runs).  Set the three variables to 1 before NumPy loads to
    avoid both.  The last bits of tail normals follow NumPy's ``log`` dispatch (see
    ``streams._ndtri``).
    """
    reps = _check_int(reps, 1, streams.MAX_REPS, "reps")
    return _sample_grids([covariance_cholesky(m, grid)], reps, seed)[0]


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_grids(factor_sets: list, reps: int, seed: int) -> list:
    """Maxima of ``reps`` field draws through each tuple of factors in
    ``factor_sets``, one block of _BATCH_ROWS replicates at a time.

    A replicate draws prod(r_i) normals from its own stream window, which
    depends on that product alone, so each block draws them once for every
    tuple with that product and those tuples share the draw.

    The blocks are spread over k = min(usable cores, blocks) threads: the
    calling thread and k - 1 more, thread i taking blocks i, i + k, ...
    NumPy releases the GIL in the stream, the transform and the matrix
    products.  Each block writes only its own slice of the results and has
    the same shapes on every thread, so k never moves a bit.  The first
    error raised in any block stops the other threads at their next block
    and is raised here.
    """
    ranks = [tuple(f.shape[1] for f in fs) for fs in factor_sets]
    out = [np.empty(reps) for _ in factor_sets]
    starts = range(0, reps, _BATCH_ROWS)
    k = min(_usable_cores(), len(starts))
    errors = []

    def run(first: int) -> None:
        try:
            for done in starts[first::k]:
                if errors:
                    return
                nb = min(_BATCH_ROWS, reps - done)
                # the last block is zero-padded to _BATCH_ROWS rows
                draws = {p: np.zeros((_BATCH_ROWS, p))
                         for p in map(math.prod, ranks)}
                for p, z in draws.items():
                    z[:nb] = streams.normals(seed, streams.DOMAIN_FIELD, done,
                                             nb, p)
                for fs, r, o in zip(factor_sets, ranks, out):
                    o[done:done + nb] = _block_field_maxima(
                        fs, draws[math.prod(r)].reshape(_BATCH_ROWS, *r), nb)
        except BaseException as e:      # raised below, on the calling thread
            errors.append(e)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(1, k)]
    for w in workers:
        w.start()
    run(0)
    for w in workers:
        w.join()
    if errors:
        raise errors[0]
    return out


def _block_field_maxima(factors: tuple, z: np.ndarray, nb: int) -> np.ndarray:
    """Maxima of the first ``nb`` fields of one block of normals z, shaped
    (_BATCH_ROWS, r_1, ..., r_d), each multiplied by F_i^T along axis i for
    every factor F_i.

    One factor (a 1-D grid, or the dense covariance) is one product z @ F^T
    on the whole block.  Otherwise the products of every axis but the last
    run on the whole block, and the last product and the maximum run on
    slices of _SLICE_VALUES field values, which stay in cache.  The bits do
    not move: each replicate of a slice is its own matrix product, and the
    maximum does not depend on the order of the values.
    """
    if len(factors) == 1:
        return (z @ factors[0].T)[:nb].max(axis=1)
    for axis, f in enumerate(factors[:-1], start=1):
        z = np.moveaxis(np.moveaxis(z, axis, -1) @ f.T, -1, axis)
    n = math.prod(len(f) for f in factors)
    step = max(1, _SLICE_VALUES // n)
    out = np.empty(nb)
    for i in range(0, nb, step):
        j = min(i + step, nb)
        out[i:j] = (z[i:j] @ factors[-1].T).reshape(j - i, n).max(axis=1)
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
    notes: tuple


def _empirical_tail(maxima: np.ndarray, u_values, reps: int,
                    seed: int) -> tuple:
    out = []
    for u in u_values:
        p = float(np.mean(maxima > u))
        se = math.sqrt(p * (1.0 - p) / reps)
        out.append(McEstimate(mean=p, stderr=se, reps=reps, seed=seed))
    return tuple(out)


def _refined_grids(grid: FieldGrid, refinements) -> dict:
    """{k: the grid with its resolution times k} for each checked factor k;
    ValueError if one is beyond MAX_GRID_POINTS."""
    return {k: FieldGrid(grid.sides, tuple(r * k for r in grid.resolution))
            for k in _refinement_factors(refinements)}


def validate_bound(m: IsotropicModel, grid: FieldGrid, u_values, reps: int,
                   seed: int, refinements=(1, 2, 4)) -> ValidationReport:
    """Check empirical P{max > u} against the analytic tail bounds.

    Runs the sampler on the base grid and on refinements of it (resolution
    multiplied by each factor; the factors are integers and strictly
    increasing, so the last grid is the finest), estimates the exceedance
    probability at each u, and compares the finest grid's estimates against
    pbar_tail / pE_tail of the grid's rectangle.  ``reps`` is in
    [2, ``streams.MAX_REPS``].  Every refined grid is built first, so one
    beyond the 10^4-point cap raises ValueError before any covariance is
    factored.

    Grid maxima underestimate the continuous maximum, so "bound_respected"
    is conservative evidence for the bound; the refinement sequence is
    reported to show the discretization has stabilized.  For every
    refinement a note names the ranks of its factors and the certified bound
    on each factored covariance's entries.
    """
    return _validate_on_grids(m, _refined_grids(grid, refinements),
                              u_values, reps, seed)


def _validate_on_grids(m: IsotropicModel, grids: dict, u_values, reps: int,
                       seed: int) -> ValidationReport:
    """:func:`validate_bound` on the grids of :func:`_refined_grids`."""
    reps = _check_int(reps, 2, streams.MAX_REPS, "reps")
    u_values = tuple(_finite(u, "every u value") for u in u_values)
    if not u_values:
        raise ValueError("need at least one u level")
    refinements = tuple(grids)
    geom = rectangle_faces(grids[refinements[0]].sides)
    tails = _tail_rows(m, geom, u_values)
    for error in (t for t in tails if isinstance(t, Exception)):
        raise error     # the first failing level fails the report
    pbar_tails = tuple(t.pbar_tail for t in tails)
    pE_tails = tuple(t.pE_tail for t in tails)

    emp_by_ref = []
    notes = ["grid maxima underestimate the continuous maximum; verdicts "
             "compare the finest grid and the refinement sequence shows "
             "stabilization"]
    factor_sets = [covariance_cholesky(m, g) for g in grids.values()]
    for k, factors, maxima in zip(refinements, factor_sets,
                                  _sample_grids(factor_sets, reps, seed)):
        emp_by_ref.append(_empirical_tail(maxima, u_values, reps, seed))
        ranks = tuple(f.shape[1] for f in factors)
        notes.append(f"refinement x{k}: factors of rank {ranks}, "
                     f"covariance entries within {_SEPARABLE_TOL:g}")

    final = emp_by_ref[-1]
    verdicts = tuple(
        "bound_respected" if e.mean - 3.0 * e.stderr <= pb else "inconclusive"
        for e, pb in zip(final, pbar_tails))
    return ValidationReport(u_values=u_values, empirical=final,
                            pbar_tails=pbar_tails, pE_tails=pE_tails,
                            verdicts=verdicts,
                            refinement_factors=refinements,
                            empirical_by_refinement=tuple(emp_by_ref),
                            notes=tuple(notes))
