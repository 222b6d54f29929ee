"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test is one acceptance criterion for the package: exact identities,
agreement between independent evaluation paths, and seeded statistical
checks, every one with an explicit tolerance and (where stated) a runtime
budget.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import oracles
from gaussmax import asympt, bounds, geometry, randmat, simulate
from gaussmax.model import make_rational, make_squared_exponential

SQ = make_squared_exponential(0.5)
RAT = make_rational(1.0, 1.0)
SQUARE = geometry.rectangle_faces([1.0, 1.0])
CUBE = geometry.rectangle_faces([1.0, 1.0, 1.0])

SQUARE_HS = [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0],
             [[1.0, 0.0], 1.0], [[0.0, 1.0], 1.0]]


def test_01_low_order_tail_series_match_closed_forms():
    """T_1..T_3 from the series route equal their closed forms to 1e-12."""
    t0 = time.monotonic()
    v = np.arange(-8.0, 8.0 + 1e-9, 0.01)
    closed = {1: oracles.T1_closed, 2: oracles.T2_closed, 3: oracles.T3_closed}
    for j in (1, 2, 3):
        got = np.asarray(bounds.T_series(j, v), dtype=float)
        want = closed[j](v)
        assert np.max(np.abs(got - want)) < 1e-12
    assert time.monotonic() - t0 < 1.0


def test_02_expected_absdet_closed_form_and_monte_carlo():
    """E|det(G_n - nu I)|: n=1 closed form to 1e-10; n=2,3 vs 10^6-rep MC."""
    t0 = time.monotonic()
    for nu in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
        got = float(randmat.expected_absdet_shifted_goe(1, nu))
        assert abs(got - oracles.absdet_n1_closed(nu)) < 1e-10
    for n in (2, 3):
        for nu in (-1.0, 0.0, 2.0):
            exact = float(randmat.expected_absdet_shifted_goe(n, nu))
            est = randmat.mc_absdet(n, nu, reps=1_000_000, seed=606)
            assert abs(est.mean - exact) <= 3.0 * est.stderr
    assert time.monotonic() - t0 < 120.0


def test_03_goe_density_normalization_and_histogram():
    """q_1 = phi to 1e-12; integral of q_n = n to 1e-6; q_3 vs eigenvalues."""
    t0 = time.monotonic()
    v = np.arange(-6.0, 6.0 + 1e-9, 0.01)
    q1 = np.asarray(randmat.goe_eigen_density(1, v), dtype=float)
    assert np.max(np.abs(q1 - stats.norm.pdf(v))) < 1e-12

    for n in range(1, 7):
        total, err = quad(lambda x: float(randmat.goe_eigen_density(n, x)),
                          -np.inf, np.inf, limit=300)
        assert abs(total - n) < 1e-6

    # 33,334 independent 3x3 draws give 100,002 eigenvalues; per-bin counts
    # are compared per matrix so the within-matrix dependence is respected
    rng = np.random.default_rng(777)
    nmat = 33_334
    mats = np.empty((nmat, 3, 3))
    for i in range(nmat):
        mats[i] = oracles.sample_goe_indep(3, rng)
    ev = np.linalg.eigvalsh(mats)
    assert ev.size >= 100_000
    edges = np.arange(-3.0, 3.01, 0.5)
    for k in range(len(edges) - 1):
        lo, hi = float(edges[k]), float(edges[k + 1])
        counts = ((ev >= lo) & (ev < hi)).sum(axis=1)
        se = counts.std(ddof=1) / math.sqrt(nmat)
        target, _ = quad(lambda x: float(randmat.goe_eigen_density(3, x)),
                         lo, hi)
        assert abs(counts.mean() - target) <= 3.0 * se
    assert time.monotonic() - t0 < 120.0


def test_04_density_bound_two_evaluation_paths_agree():
    """Hermite-series bound equals the random-matrix-integral route to 1e-6."""
    t0 = time.monotonic()
    for m in (SQ, RAT):
        for geom in (SQUARE, CUBE):
            for x in (0.0, 1.0, 2.0, 3.0, 4.0):
                series = bounds.pbar_density(m, geom, x).pbar
                matrix_route = oracles.pbar_goe_path(m, geom, x)
                assert series == pytest.approx(matrix_route, rel=1e-6)
    assert time.monotonic() - t0 < 60.0


def test_05_correction_nonnegative_and_bound_dominates():
    """R_j >= -1e-12 for j <= 5, and pbar >= pE, across x in [-5, 10]."""
    xs = np.arange(-5.0, 10.0 + 1e-9, 0.25)
    for m in (SQ, RAT):
        for j in range(1, 6):
            for x in xs:
                assert bounds.R_correction(m, j, float(x)) >= -1e-12
        for geom in (SQUARE, CUBE):
            for x in xs:
                b = bounds.pbar_density(m, geom, float(x))
                assert b.pbar >= b.pE


def test_06_geometry_coefficients_exact_and_monte_carlo():
    """Rectangle g_j are elementary symmetric polynomials exactly (d <= 5);
    the direction-sampling estimator reproduces the unit square's (1, 2, 1)."""
    sides_pool = (1.3, 0.7, 2.0, 1.1, 0.9)
    for d in range(1, 6):
        sides = sides_pool[:d]
        geom = geometry.rectangle_faces(sides)
        for j in range(d + 1):
            assert float(geom.g[j]) == oracles.elementary_symmetric(sides, j)

    est = geometry.polytope_g_coeffs(SQUARE_HS, reps=1_000_000, seed=99)
    for j, target in enumerate((1.0, 2.0, 1.0)):
        se = float(est.g_stderr[j])
        if se == 0.0:
            assert float(est.g[j]) == target
        else:
            assert abs(float(est.g[j]) - target) <= 3.0 * se


def test_07_complementary_decay_rate_consistency():
    """The correction's Gaussian decay rate matches the exponent report
    (identity to 1e-12) and is recovered by fitting log R_j over x in [8,14],
    with the fitted polynomial order 2j - 4 within +-0.5 for j = 3, 4."""
    for m in (SQ, RAT, make_squared_exponential(2.0), make_rational(0.8, 1.0)):
        eta = bounds.complementary_decay_rate(m)
        assert asympt.exponent_convex(m).rate - 1.0 == pytest.approx(eta, abs=1e-12)

    # smooth limit case: the x in [8, 14] window sits in the asymptotic
    # regime for the squared-exponential family
    eta = bounds.complementary_decay_rate(SQ)
    xs = np.arange(8.0, 14.0 + 1e-9, 0.25)
    basis = np.stack([np.ones_like(xs), np.log(xs), -xs * xs / 2.0], axis=1)
    for j in (3, 4):
        logr = np.log([bounds.R_correction(SQ, j, float(x)) for x in xs])
        coef, *_ = np.linalg.lstsq(basis, logr, rcond=None)
        fitted_rate, fitted_order = coef[2], coef[1]
        assert abs(fitted_rate - eta) <= 0.05 * eta
        assert abs(fitted_order - (2 * j - 4)) <= 0.5


def test_08_variance_functional_short_range_value():
    """sigma^2 for the squared-exponential at identity speed equals 2."""
    val = asympt.sigma2_isotropic(SQ, 3.0)
    assert abs(val - 2.0) < 1e-6


def test_09_monte_carlo_tail_validation():
    """Unit square, 10^4 replicates on a 50x50 grid: the empirical tail
    stays below the analytic tail bound (3 stderr) at u in {1, 2, 2.5, 3},
    and halving the grid moves the estimates by less than 2 stderr."""
    t0 = time.monotonic()
    grid = simulate.FieldGrid((1.0, 1.0), 25)
    report = simulate.validate_bound(SQ, grid, (1.0, 2.0, 2.5, 3.0),
                                     reps=10_000, seed=505,
                                     refinements=(1, 2))
    assert report.verdicts == ("bound_respected",) * 4
    coarse, fine = report.empirical_by_refinement
    for i in range(len(report.u_values)):
        assert fine[i].mean - 3.0 * fine[i].stderr <= report.pbar_tails[i]
        gap = abs(coarse[i].mean - fine[i].mean)
        combined_se = math.hypot(coarse[i].stderr, fine[i].stderr)
        assert gap < 2.0 * combined_se
    assert time.monotonic() - t0 < 600.0


def test_10_tail_derivative_matches_density():
    """d/du of the tail bound is -pbar(u) to relative 1e-6 on u in [0, 4]."""
    h = 1e-4
    for m in (SQ, RAT):
        for u in np.arange(0.0, 4.0 + 1e-9, 0.5):
            up = bounds.tail_bound(m, SQUARE, float(u) + h).pbar_tail
            dn = bounds.tail_bound(m, SQUARE, float(u) - h).pbar_tail
            derivative = (up - dn) / (2.0 * h)
            density = bounds.pbar_density(m, SQUARE, float(u)).pbar
            assert -derivative == pytest.approx(density, rel=1e-6, abs=1e-12)
