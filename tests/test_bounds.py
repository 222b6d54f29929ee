"""Density bounds pbar/pE, correction terms, tail integrals, sphere bound."""
import functools
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy.stats import norm

import oracles
from gaussmax import bounds, geometry, hermite, model
from gaussmax.geometry import FaceDecomposition, GeometryKind

SQ = model.make_squared_exponential(0.5)
RAT = model.make_rational(0.8, 1.0)
LOW_GAMMA = model.make_rational(1.0, 0.2)   # gamma = sqrt(1/6) = 0.41
NEAR_ONE = model.make_rational(1.0, 1e4)    # gamma = 0.99995
SQUARE = geometry.rectangle_faces([1.0, 1.0])
CUBE = geometry.rectangle_faces([1.0, 1.0, 1.0])
POINT = FaceDecomposition(d=1, g=(1.0,), kappa=0.0,
                          kind=GeometryKind.RECTANGLE)
RAT_005 = model.make_rational(0.05, 0.5)    # gamma = sqrt(1/3) = 0.58
# Models with |rho'| < 1/2, whose sphere shift (2|rho'|)^{-1/2} is 3.2 and 4.5
WIDE_SHIFT = [model.make_rational(0.1, 0.5), RAT_005]


@functools.cache
def _R_references(section=None):
    """tests/data/R_references.json, written by make_R_references.py: the
    models as (c, beta, gamma), and E T_j(a - bY) by (model, j, x).  The
    models of the "wide" section carry their b^2 too."""
    path = os.path.join(os.path.dirname(__file__), "data", "R_references.json")
    with open(path) as f:
        data = json.load(f)
    if section:
        data = data[section]
    return data["models"], {(name, j, x): float(v)
                            for name, j, x, v in data["values"]}


# ------------------------------------------------------------- T integrals

@pytest.mark.parametrize("closed,j", [(oracles.T1_closed, 1),
                                      (oracles.T2_closed, 2),
                                      (oracles.T3_closed, 3)])
def test_T_series_closed_forms(closed, j):
    vs = np.linspace(-8.0, 8.0, 161)
    got = bounds.T_series(j, vs)
    np.testing.assert_allclose(got, closed(vs), rtol=0, atol=1e-12)


def test_T_series_decays_right_nonnegative():
    vs = np.linspace(-10.0, 10.0, 81)
    for j in range(1, 8):
        t = bounds.T_series(j, vs)
        assert np.all(t >= -1e-13)
        assert t[-1] < 1e-12


@pytest.mark.parametrize("j", range(4, 13))
def test_T_series_matches_definition(j):
    vs = np.linspace(-4.0, 4.0, 17)
    got = bounds.T_series(j, vs)
    want = np.array([oracles.T_by_definition(j, float(v)) for v in vs])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_T_series_scalar_and_bounds():
    v = bounds.T_series(2, 0.0)
    assert isinstance(v, float) and v == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(ValueError):
        bounds.T_series(0, 0.0)
    with pytest.raises(ValueError):
        bounds.T_series(bounds.MAX_ORDER + 1, 0.0)


@pytest.mark.parametrize("v", [np.linspace(-30.0, 30.0, 241),
                               np.array([[-30.0, -7.5], [0.25, 30.0]]),
                               np.float64(-12.5)])
def test_T_rows_equal_T_series_bit_for_bit(v):
    # Row j of the shared kernel depends on (j, v) alone, whichever other
    # orders it computes alongside.
    rows = bounds._T_rows(tuple(range(1, 13)), v)
    some = bounds._T_rows((2, 5, 11), v)
    for j in range(1, 13):
        want = np.asarray(bounds.T_series(j, v))
        assert np.isfinite(want).all()
        assert rows[j - 1].tobytes() == want.tobytes()
    for row, j in zip(some, (2, 5, 11)):
        assert row.tobytes() == rows[j - 1].tobytes()


def _T_rows_by_cumsum(orders, v):
    """bounds._T_rows with the partial sums of ut_k^2 from np.cumsum."""
    top = max(orders)
    u = hermite._norm_hermites(top, v)
    ut = u * np.exp(-v * v / 4.0)
    squares = np.cumsum(ut[:top] ** 2, axis=0)
    upper = hermite._Phi(-v)
    rows = np.empty((len(orders),) + v.shape)
    for i, j in enumerate(orders):
        scale = math.sqrt(math.pi * j / 2.0)
        rows[i] = (math.sqrt(math.pi) * squares[j - 1]
                   - scale * ut[j] * hermite._tail_sum(j - 1, ut))
        rows[i] -= scale * hermite._tail_coefficients(j - 1)[1] * u[j] * upper
    return rows


@pytest.mark.parametrize("v", [
    np.random.default_rng(5).normal(0.0, 8.0, (7, 300)),
    np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 37.5, -37.5,
              40.0, -40.0, 1e3, -1e3, 1e4, -1e4])],
    ids=["random", "extreme"])
def test_T_rows_running_sum_equals_cumsum_bit_for_bit(v):
    # The running sum adds the squares in np.cumsum's order, so every row,
    # NaN and inf included where the far tails overflow, is the same bits.
    for orders in [tuple(range(1, bounds.MAX_ORDER + 1)), (60,), (1, 2),
                   (3, 17, 44)]:
        with np.errstate(all="ignore"):
            got = bounds._T_rows(orders, v)
            want = _T_rows_by_cumsum(orders, v)
        assert got.tobytes() == want.tobytes()


def test_legendre_rule_matches_numpy_leggauss():
    from numpy.polynomial.legendre import leggauss
    t, w = bounds._legendre_rule()
    want_t, want_w = leggauss(16)
    for got, want in ((t, want_t), (w, want_w)):
        gap = np.abs(got - want)
        assert gap.max() <= 1e-15 and (gap / np.abs(want)).max() <= 1e-14
    assert (np.diff(t) > 0.0).all() and (w > 0.0).all()


# --------------------------------------------------------- correction terms

def test_R_correction_against_critical_point_route():
    # R_j(x) = (critical-point j-face factor) - principal Hermite part.
    for m in (SQ, RAT):
        coef = abs(m.rho1_0) / math.pi
        for j, x in [(1, 0.0), (1, 2.0), (2, 0.0), (2, 1.5), (3, 1.0)]:
            want = (oracles.face_term_goe_path(m, j, x)
                    - coef ** (j / 2.0) * oracles.hermite_monic_sum(j, x))
            got = bounds.R_correction(m, j, x)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_R2_at_zero_explicit_value():
    # gamma = 1 collapses R_2(0) to sqrt(2 pi) T_2(0) * (2 rho''/(pi |rho'|))
    # * Gamma(3/2) / pi; with rho' = -1/2, rho'' = 1/4 this is sqrt(2)/pi.
    got = bounds.R_correction(SQ, 2, 0.0)
    want = math.sqrt(2.0) / math.pi
    assert got == pytest.approx(want, rel=1e-12)
    # and the independent route agrees
    indep = (oracles.face_term_goe_path(SQ, 2, 0.0)
             - (0.5 / math.pi) * oracles.hermite_monic_sum(2, 0.0))
    assert got == pytest.approx(indep, rel=1e-9)


def test_R_correction_matches_high_precision_references():
    # E T_j(a - bY) from mpmath at two precisions.  T_j's two parts cancel
    # to about 1/v^2 of their size, and the closed form keeps that loss of
    # T_j itself: for j = 1 (phi - v Psi) beyond x = 10, and for j >= 20
    # beyond x = 25 on NEAR_ONE, where the y-average is T_j near v = x/sqrt 2.
    models, refs = _R_references()
    for name, spec in models.items():
        m = model.make_rational(spec["c"], spec["beta"])
        assert m.gamma == spec["gamma"]
        for j in sorted({j for n, j, _ in refs if n == name}):
            xs = [x for n, i, x in refs if (n, i) == (name, j)]
            want = (math.sqrt(2.0 * math.pi) * bounds._pref(m, j)
                    * np.array([refs[name, j, x] for x in xs]))
            rtol = np.select([np.array(xs) <= (10.0 if j == 1 else 25.0),
                              j == 1], [1e-12, 2e-10], 3e-12)
            got = bounds._R_values(m, (j,), xs)[0]
            assert np.all(np.abs(got - want) <= rtol * want), (name, j)


@pytest.mark.parametrize("m", [LOW_GAMMA, RAT, NEAR_ONE, RAT_005],
                         ids=["LOW_GAMMA", "RAT", "NEAR_ONE", "RAT_0.05"])
def test_R_correction_matches_the_gauss_hermite_average(m):
    # The slow path: the y-average by 64 and by 128 Gauss-Hermite nodes,
    # over the oracle's own T_j.  Both sides carry T_1's own loss, about
    # 6e-12 at x = 20.
    xs = [float(x) for x in np.linspace(-20.0, 20.0, 81)]
    for j in range(1, 21):
        got = bounds._R_values(m, (j,), xs)[0]
        for nodes in (64, 128):
            want = (math.sqrt(2.0 * math.pi) * bounds._pref(m, j)
                    * oracles.T_average_gauss_hermite(j, m.gamma, xs, nodes))
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)


def test_smoothed_T_rows_matches_the_wide_references():
    # E T_j(a - bY) from mpmath at b^2 = 2 and 3.67: the widths of the
    # sphere's shift average on the WIDE_SHIFT models, for its orders d - 1.
    # Past x = 6 the Appell sum of the Psi part cancels at odd j: its terms
    # reach 1e4 times the value at b^2 = 3.67, j = 11, x = 15 (5.6e-12).
    models, refs = _R_references("wide")
    for m, (name, spec) in zip(WIDE_SHIFT, models.items()):
        gamma, s = bounds._gamma_s(m)
        sigma = math.hypot(gamma * (2.0 * abs(m.rho1_0)) ** -0.5, s)
        assert (m.gamma, sigma * sigma / 2.0) == (spec["gamma"], spec["b2"])
        for j in sorted({j for n, j, _ in refs if n == name}):
            xs = np.array([x for n, i, x in refs if (n, i) == (name, j)])
            want = np.array([refs[name, j, x] for x in xs])
            got = bounds._smoothed_T_rows((j,), gamma * xs / math.sqrt(2.0),
                                          spec["b2"])[0]
            rtol = np.where(xs <= 6.0, 1e-12, 1e-11)
            assert np.all(np.abs(got - want) <= rtol * np.abs(want)), (name, j)


@pytest.mark.parametrize("b2", [0.5, 1.0, 2.0, 3.67])
def test_smoothed_T_rows_matches_the_gauss_hermite_average_at_any_width(b2):
    # The sphere's shift average widens b^2 past 1/2, where the Appell
    # variance 1 - 2b^2 is not positive, and past 1, where Mehler's 1 - b^2
    # is not.  The gap, 3.7e-12 at most (b^2 = 3.67, j = 11), is the rule's:
    # at that width 64 nodes are 1e-5 off 128.  The wide mpmath references
    # pin the closed form tighter.
    xs = np.linspace(-6.0, 15.0, 43)
    a = RAT_005.gamma * xs / math.sqrt(2.0)
    for j in range(1, 12):
        got = bounds._smoothed_T_rows((j,), a, b2)[0]
        want = oracles.T_average_gauss_hermite(j, RAT_005.gamma, xs, 128,
                                               math.sqrt(b2))
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)


def test_R_correction_cross_check_changes_no_bit():
    for m, j, x in itertools.product((SQ, RAT, LOW_GAMMA), (1, 2, 5),
                                     (-3.0, 0.5, 12.0, 70.0)):
        assert (_hex([bounds.R_correction(m, j, x, cross_check=False)])
                == _hex([bounds.R_correction(m, j, x, cross_check=True)]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [model.make_rational(1.0, 1.0), RAT_005],
                         ids=["rational_1_1", "rational_0.05_0.5"])
def test_pbar_rows_hold_at_every_level_of_a_wide_scan(m):
    # The 64/128-node y-average of R_j refused 218 and 329 of these 1,601
    # levels on the unit cube, from |x| = 57.25 on, where phi(x) is 0.
    levels = [float(x) for x in np.linspace(-200.0, 200.0, 1601)]
    rows = bounds._pbar_rows(m, CUBE, levels)
    assert [r for r in rows if isinstance(r, Exception)] == []
    assert all(r.pbar >= r.pE for r in rows)


def test_R_correction_nonnegative_on_grid():
    xs = np.linspace(-5.0, 10.0, 61)
    for m in (SQ, RAT):
        for j in range(1, 6):
            for x in xs:
                assert bounds.R_correction(m, j, float(x)) >= -1e-12


@pytest.mark.parametrize("m", [SQ, RAT], ids=["sq_exp", "rational"])
@pytest.mark.parametrize("geom", [CUBE, geometry.rectangle_faces(
    [1.0, 0.5, 2.0, 1.5, 0.7])], ids=["cube", "box5"])
def test_pbar_density_equals_its_one_order_view(m, geom):
    # pbar_density takes every order from one kernel pass per rule; each
    # term is the R_correction of its order, bit for bit.
    for x in (-4.0, -0.5, 0.0, 0.7, 3.0, 8.0, 20.0):
        got = bounds.pbar_density(m, geom, x).complementary_by_j
        phi = float(bounds._phi(x))
        for j in range(1, geom.d0 + 1):
            want = max(0.0, phi * bounds.R_correction(m, j, x) * geom.g[j])
            assert got[j] == want, (x, j)


SIMPLEX3 = geometry.polytope_g_coeffs(
    [[[-1.0, 0.0, 0.0], 0.0], [[0.0, -1.0, 0.0], 0.0],
     [[0.0, 0.0, -1.0], 0.0], [[1.0, 1.0, 1.0], 1.0]], reps=1000, seed=1)
# Both sides of 0, past one block, and levels whose tail panels get a
# different number of local edges around the smoothed step (ragged nodes).
SWEEP = [float(v) for v in np.linspace(-20.0, 30.0, 41)] + [
    -0.5, 0.0, 0.7, 3.0, 7.5, 8.0, 12.0, 25.0]


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("m", [SQ, RAT, NEAR_ONE],
                         ids=["gamma1", "rational", "near_one"])
@pytest.mark.parametrize("geom", [
    CUBE, geometry.rectangle_faces([1.0, 0.5, 2.0, 1.5, 0.7]), SIMPLEX3],
    ids=["cube", "box5", "simplex3"])
def test_rows_kernels_equal_each_abscissa_alone(m, geom):
    # One kernel pass per block of abscissae gives, bit for bit, what each
    # abscissa gives alone through its one-row view.
    assert len(SWEEP) > hermite._BLOCK
    gamma, s = bounds._gamma_s(m)
    panels = {len(bounds._tail_edges(u, gamma, s, geom.d0)) for u in SWEEP}
    assert s == 0.0 or len(panels) > 1       # ragged node counts covered

    for x, b in zip(SWEEP, bounds._pbar_rows(m, geom, SWEEP)):
        alone = bounds.pbar_density(m, geom, x)
        assert (_hex([b.x, b.pbar, b.pE, *b.principal_by_j,
                      *b.complementary_by_j])
                == _hex([alone.x, alone.pbar, alone.pE,
                         *alone.principal_by_j, *alone.complementary_by_j]))
        assert _hex([bounds.pE_density(m, geom, x)]) == _hex([b.pE])
    for u, t in zip(SWEEP, bounds._tail_rows(m, geom, SWEEP)):
        alone = bounds.tail_bound(m, geom, u)
        assert (_hex([t.pbar_tail, t.pE_tail, t.complementary])
                == _hex([alone.pbar_tail, alone.pE_tail, alone.complementary]))
    orders = range(1, geom.d0 + 1)
    R = bounds._R_values(m, orders, SWEEP)
    for k, j in enumerate(orders):
        assert _hex(R[k]) == _hex([bounds.R_correction(m, j, x)
                                   for x in SWEEP])


def test_rows_kernel_keeps_each_rows_error():
    # A failing abscissa fails alone, with the error it raises alone; the
    # rows around it, in the same block, still come out.  On a model whose
    # order-j powers overflow, each row keeps its own error too.
    sweeps = [[1.0, 1e155, 2.0],
              [1.0, 1e155, 2.0, float("nan"), 3.0],    # two in one block
              SWEEP[:hermite._BLOCK + 3] + [1e155]
              + SWEEP[hermite._BLOCK + 3:]]
    kernels = ((bounds._pbar_rows, bounds.pbar_density),
               (bounds._tail_rows, bounds.tail_bound))
    overflowing = model.make_squared_exponential(1e154)
    cases = [(SQ, SQUARE), (overflowing, SQUARE), (overflowing, CUBE)]
    with np.errstate(all="ignore"):
        for (m, geom), xs in itertools.product(cases, sweeps):
            for rows, alone in kernels:
                got = rows(m, geom, xs)
                assert len(got) == len(xs)
                assert any(isinstance(r, ValueError) for r in got)
                for x, row in zip(xs, got):
                    try:
                        assert row == alone(m, geom, x)
                    except hermite._ROW_ERRORS as e:
                        assert type(row) is type(e) and str(row) == str(e)


def test_model_error_is_every_rows_error():
    m = model.make_squared_exponential(1e154)   # its order-j powers overflow
    for rows in (bounds._pbar_rows, bounds._tail_rows):
        got = rows(m, SQUARE, SWEEP)
        assert len(got) == len(SWEEP)
        assert all(isinstance(e, ValueError) and "overflows" in str(e)
                   for e in got)


def test_R_correction_gate_is_relative_in_the_tail():
    # R_1(20) is about 5e-20, so only a relative tolerance tests it.  The
    # model has RAT's gamma, so its y-average is RAT's reference value.
    m = model.make_rational(1.0, 1.0)
    assert m.gamma == RAT.gamma
    want = (math.sqrt(2.0 * math.pi) * bounds._pref(m, 1)
            * _R_references()[1]["RAT", 1, 20.0])
    assert want == pytest.approx(5.16e-20, rel=1e-2)
    assert bounds.R_correction(m, 1, 20.0) == pytest.approx(want, rel=2e-10)


def test_checked_quadrature_rejects_nonfinite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not finite"):   # the value
            bounds._checked(bad, 1.0, "a bad value")
        with pytest.raises(ValueError, match="at flat index 1"):
            bounds._checked(np.array([1.0, bad]), np.array([1.0, bad]), "x")
        with pytest.raises(RuntimeError, match="non-convergent"):  # the check
            bounds._checked(1.0, bad, "a bad check")


def test_checked_gate_is_relative_and_elementwise():
    value = np.array([1.0, 1e-30, 0.0])
    assert bounds._checked(value, value * (1 + 5e-8), "x") is value
    assert bounds._checked(0.0, 1e-310, "below the smallest normal") == 0.0
    with pytest.raises(RuntimeError, match="for x at flat index 1"):
        bounds._checked(value, np.array([1.0, 1.1e-30, 0.0]), "x")
    with pytest.raises(RuntimeError, match="non-convergent for y: value"):
        bounds._checked(1e-40, 2e-40, "y")


@pytest.mark.parametrize("call", [
    lambda a: bounds.pE_density(SQ, SQUARE, a),
    lambda a: bounds.pbar_density(SQ, SQUARE, a),
    lambda a: bounds.R_correction(model.make_rational(1.0, 1.0), 2, a),
    lambda a: bounds.tail_bound(SQ, SQUARE, a),
    lambda a: bounds.sphere_pbar(SQ, 3, a),
], ids=["pE_density", "pbar_density", "R_correction", "tail_bound",
        "sphere_pbar"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_entry_points_reject_nonfinite_abscissa(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda: bounds.pE_density(SQ, SQUARE, 1e155),
    lambda: bounds.pbar_density(SQ, SQUARE, 1e155),
    lambda: bounds.pbar_density(SQ, geometry.rectangle_faces([1.0] * 6), 1e52),
    lambda: bounds.R_correction(SQ, 2, 1e308),      # gamma = 1
    lambda: bounds.T_series(3, 1e154),
    lambda: bounds.T_series(60, 1e6),
    lambda: bounds.tail_bound(NEAR_ONE, SQUARE, 1e308),
    lambda: bounds.tail_bound(NEAR_ONE, SQUARE, np.finfo(float).max),
], ids=["pE_density", "pbar_density", "pbar_density-6-box", "R_correction",
        "T_series-3", "T_series-60", "tail_bound-1e308", "tail_bound-max"])
def test_overflow_past_the_floats_raises(call):
    # Finite abscissae whose terms leave the floats: with the overflow
    # warnings silenced, as outside the test suite, each used to return NaN
    # (the tail levels: to raise OverflowError counting the step edges).
    with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                  match="not finite"):
        call()


@pytest.mark.parametrize("c,sides", [(1e154, [1.0, 1.0]),
                                     (1e154, [1.0] * 6), (1e100, [1.0] * 10)])
def test_model_constants_too_large_for_the_bound_raise(c, sides):
    # rho''(0) = c^2 is finite, but the order-j powers of the model constants
    # leave the floats: once as a silent inf pbar, once as OverflowError.
    m = model.make_squared_exponential(c)
    with pytest.raises(ValueError, match="overflows"):
        bounds.pbar_density(m, geometry.rectangle_faces(sides), 1.0)


# ----------------------------------------------------------- density bounds

@settings(max_examples=40, deadline=None)
@given(sides=hst.lists(hst.floats(0.1, 3.0), min_size=1, max_size=3),
       x=hst.floats(-6.0, 6.0), m=hst.sampled_from([SQ, RAT]))
def test_principal_sum_is_one_sum(sides, x, m):
    geom = geometry.rectangle_faces(sides)
    b = bounds.pbar_density(m, geom, x)
    assert bounds.pE_density(m, geom, x) == b.pE
    assert b.pbar >= b.pE


@settings(max_examples=40, deadline=None)
@given(sides=hst.lists(hst.floats(0.1, 3.0), min_size=1, max_size=3),
       x=hst.floats(0.0, 6.0), m=hst.sampled_from([SQ, RAT]))
def test_pbar_density_is_even(sides, x, m):
    # E|det(G - nu I)| is even in nu, so pbar is even in x.
    geom = geometry.rectangle_faces(sides)
    assert bounds.pbar_density(m, geom, -x).pbar == pytest.approx(
        bounds.pbar_density(m, geom, x).pbar, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [SQ, RAT], ids=["sqexp", "rational"])
@pytest.mark.parametrize("geom", [SQUARE, CUBE], ids=["square", "cube"])
@pytest.mark.parametrize("x", [0.0, 2.0, 4.0])
def test_pbar_dual_path(m, geom, x):
    got = bounds.pbar_density(m, geom, x)
    want = oracles.pbar_goe_path(m, geom, x)
    assert got.pbar == pytest.approx(want, rel=1e-9)


def test_breakdown_invariants():
    b = bounds.pbar_density(RAT, CUBE, 1.0)
    assert b.complementary_by_j[0] == 0.0
    assert all(c >= 0.0 for c in b.complementary_by_j)
    assert b.pE == pytest.approx(math.fsum(b.principal_by_j), rel=1e-15)
    assert b.pbar == pytest.approx(math.fsum(b.principal_by_j)
                                   + math.fsum(b.complementary_by_j),
                                   rel=1e-15)
    assert b.pbar >= b.pE
    assert b.pE == pytest.approx(bounds.pE_density(RAT, CUBE, 1.0), rel=1e-14)


def test_single_point_geometry_reduces_to_gaussian_density():
    for x in [-1.0, 0.0, 2.5]:
        b = bounds.pbar_density(SQ, POINT, x)
        assert b.pbar == pytest.approx(norm.pdf(x), rel=1e-13)
        assert b.pE == pytest.approx(norm.pdf(x), rel=1e-13)


def test_pE_can_go_negative_but_pbar_not_in_bulk():
    # The principal part is a signed Euler-characteristic density.
    xs = np.linspace(-3.0, 5.0, 30)
    pe = [bounds.pE_density(SQ, CUBE, float(x)) for x in xs]
    assert min(pe) < 0.0
    pb = [bounds.pbar_density(SQ, CUBE, float(x)).pbar for x in xs]
    assert all(v >= 0.0 for v in pb)


def test_sphere_geometry_rejected_by_polyhedral_bound():
    sph = geometry.sphere_surface(3)
    with pytest.raises(ValueError):
        bounds.pE_density(SQ, sph, 1.0)
    with pytest.raises(ValueError):
        bounds.pbar_density(SQ, sph, 1.0)
    with pytest.raises(ValueError):
        bounds.tail_bound(SQ, sph, 1.0)


# ------------------------------------------------------------- tail bounds

@pytest.mark.parametrize("m", [SQ, RAT], ids=["sqexp", "rational"])
@pytest.mark.parametrize("u", [-1.0, 1.0, 2.5])
def test_tail_bound_matches_density_quadrature(m, u):
    t = bounds.tail_bound(m, SQUARE, u)
    want_pbar = oracles.tail_from_density_quad(
        lambda x: bounds.pbar_density(m, SQUARE, x).pbar, u)
    want_pe = oracles.tail_from_density_quad(
        lambda x: bounds.pE_density(m, SQUARE, x), u)
    assert t.pbar_tail == pytest.approx(want_pbar, rel=1e-7)
    assert t.pE_tail == pytest.approx(want_pe, rel=1e-9)
    assert t.pbar_tail >= t.pE_tail


def test_tail_bound_iterates_as_pair():
    pbar_tail, pe_tail = bounds.tail_bound(SQ, SQUARE, 2.0)
    assert pbar_tail > pe_tail > 0.0


def test_tail_bound_far_left_reaches_euler_characteristic():
    t = bounds.tail_bound(SQ, SQUARE, -30.0)
    assert t.pE_tail == pytest.approx(1.0, rel=1e-12)
    assert t.pbar_tail >= 1.0


def test_tail_bound_point_geometry_is_gaussian_tail():
    t = bounds.tail_bound(SQ, POINT, 1.7)
    assert t.pbar_tail == pytest.approx(norm.sf(1.7), rel=1e-12)
    assert t.pE_tail == pytest.approx(norm.sf(1.7), rel=1e-12)


def test_tail_derivative_is_minus_density():
    h = 1e-5
    for u in [0.5, 2.0, 3.5]:
        up = bounds.tail_bound(RAT, SQUARE, u + h).pbar_tail
        dn = bounds.tail_bound(RAT, SQUARE, u - h).pbar_tail
        dens = bounds.pbar_density(RAT, SQUARE, u).pbar
        assert (up - dn) / (2.0 * h) == pytest.approx(-dens, rel=1e-6)


@pytest.mark.parametrize("m", [LOW_GAMMA, RAT, NEAR_ONE, SQ],
                         ids=["gamma0.41", "gamma0.71", "gamma0.99995",
                              "gamma1"])
@pytest.mark.parametrize("u", [-1.0, 2.5, 8.0])
def test_tail_correction_matches_adaptive_quadrature(m, u):
    # The slow path the rotated 1-D integral replaces: phi * sum_j g_j R_j
    # integrated adaptively over [u, inf), with R_j from its y-average.
    # Near gamma = 1 the rotated integrand has a step of width s/gamma.
    def density(x):
        return norm.pdf(x) * math.fsum(
            CUBE.g[j] * bounds.R_correction(m, j, x)
            for j in range(1, CUBE.d0 + 1))

    want, _ = integrate.quad(density, u, np.inf, epsabs=0.0, epsrel=1e-10,
                             limit=200)
    got = bounds.tail_bound(m, CUBE, u).complementary
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(u=hst.floats(-4.0, 10.0), du=hst.floats(1e-6, 3.0),
       m=hst.sampled_from([SQ, RAT, LOW_GAMMA]),
       geom=hst.sampled_from([SQUARE, CUBE]))
def test_tail_bound_does_not_increase(u, du, m, geom):
    upper = bounds.tail_bound(m, geom, u).pbar_tail
    assert bounds.tail_bound(m, geom, u + du).pbar_tail <= upper * (1 + 1e-13)


@settings(max_examples=20, deadline=None)
@given(sides=hst.lists(hst.floats(0.1, 3.0), min_size=1, max_size=3),
       u=hst.floats(-4.0, 6.0), du=hst.floats(0.01, 3.0),
       m=hst.sampled_from([SQ, RAT]))
def test_tail_difference_is_density_integral(sides, u, du, m):
    geom = geometry.rectangle_faces(sides)
    want, _ = integrate.quad(lambda x: bounds.pbar_density(m, geom, x).pbar,
                             u, u + du, epsabs=0.0, epsrel=1e-12, limit=200)
    got = (bounds.tail_bound(m, geom, u).pbar_tail
           - bounds.tail_bound(m, geom, u + du).pbar_tail)
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def test_tail_gate_catches_rule_without_step_edges(monkeypatch):
    # Without the edges around the smoothed step at u/gamma, the rule is
    # 3.4e-5 off at gamma = 0.999, u = 8, where the mass is about 1.5e-17:
    # far below any absolute floor, so only a relative gate sees it.
    m = model.make_rational(1.0, 0.999 ** 2 / (1.0 - 0.999 ** 2))
    assert m.gamma == pytest.approx(0.999, rel=1e-12)
    bounds.tail_bound(m, CUBE, 8.0)

    def no_step_edges(u, gamma, s, j_max):
        pad = 12.0 + math.sqrt(j_max)
        return np.linspace(-pad, max(0.0, u) + pad, bounds._TAIL_PANELS + 1)

    monkeypatch.setattr(bounds, "_tail_edges", no_step_edges)
    with pytest.raises(RuntimeError, match="non-convergent"):
        bounds.tail_bound(m, CUBE, 8.0)


def test_pE_tail_past_the_floats_fails_its_row():
    # Hbar_{j-1}(u) phi(u) is inf * 0 at u = -1e155 on the cube: the pE tail
    # used to come out as a silent NaN.  A geometry with no active order,
    # which has no correction mass, passes the same gate.
    m = model.make_rational(1.0, 1.0)
    inactive = FaceDecomposition(d=3, g=(1.0, 0.0, 0.0, 0.0), kappa=0.0,
                                 kind=GeometryKind.RECTANGLE)
    levels = [-1e70, -1e155, 0.0]
    with np.errstate(all="ignore"):
        for geom in (CUBE, inactive):
            with pytest.raises(ValueError, match=(
                    r"not finite for the pE tail at u=-1e\+155: value nan")):
                bounds.tail_bound(m, geom, -1e155)
            rows = bounds._tail_rows(m, geom, levels)
            assert isinstance(rows[1], ValueError)
            assert [rows[0], rows[2]] == [bounds.tail_bound(m, geom, u)
                                          for u in (-1e70, 0.0)]


def test_tail_bound_monotone_in_u():
    us = np.linspace(-2.0, 5.0, 15)
    vals = [bounds.tail_bound(SQ, SQUARE, float(u)).pbar_tail for u in us]
    assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ sphere bound

def test_sphere_pbar_first_principles():
    for m, d, x in [(RAT, 2, 1.0), (SQ, 3, 0.5)]:
        got = bounds.sphere_pbar(m, d, x)
        want = oracles.sphere_pbar_goe_path(m, d, x)
        assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("m", [SQ, RAT, LOW_GAMMA] + WIDE_SHIFT,
                         ids=["SQ", "RAT", "LOW", "RAT_0.1", "RAT_0.05"])
def test_sphere_pbar_equals_the_nested_average_node_by_node(m):
    # sphere_pbar folds the shift average into the correction's own
    # y-average; the nested form, a 128-node Gauss-Hermite rule over public
    # hermite_eval and R_correction calls, must agree.  The shift
    # (2|rho'|)^{-1/2} is 3.2 and 4.5 on the WIDE_SHIFT models, whose
    # correction steps within a fraction of a y-unit.  There the outer nodes
    # reach |x| > 66, where R_j is tiny (R_1 is 7.69e-124 at 66.4 on
    # RAT_0.05) and their weights are below 1e-39.
    t, w = np.polynomial.hermite.hermgauss(128)
    shift = (2.0 * abs(m.rho1_0)) ** -0.5
    for d in (2, 3, 5, 12):
        j = d - 1
        coef = (abs(m.rho1_0) / math.pi) ** (j / 2.0)
        area = geometry.sphere_surface(d).g[j]
        for x in (-2.0, 0.5, 3.0, 6.0):
            xt = x + shift * math.sqrt(2.0) * t
            terms = (coef * hermite.hermite_eval("modified", j, xt)
                     + [bounds.R_correction(m, j, float(v)) for v in xt])
            want = (norm.pdf(x) * area * math.fsum(w * terms)
                    / math.sqrt(math.pi))
            assert bounds.sphere_pbar(m, d, x) == pytest.approx(want,
                                                                rel=1e-12)


@pytest.mark.parametrize("d", [5, 9])
@pytest.mark.parametrize("x", [40.0, 100.0, 300.0, 500.0, 650.0, 750.0,
                               850.0, 1000.0, 1e4, 1e6])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["pos", "neg"])
def test_sphere_pbar_is_zero_past_the_floats(d, x, sign):
    # phi(x) underflows past |x| ~ 38.6, so the bound is 0.0 there.  The
    # y-window grows like |x|, and the Hermite part's mass at y = 0 must
    # still be resolved, or the gate fires on a density that is 0.0.
    assert bounds.sphere_pbar(SQ, d, sign * x) == 0.0


def test_sphere_pbar_dim_checks():
    with pytest.raises(ValueError):
        bounds.sphere_pbar(SQ, 1, 0.0)
    with pytest.raises(ValueError):
        bounds.sphere_pbar(SQ, bounds.MAX_SPHERE_DIM + 1, 0.0)


# ------------------------------------------------------------- decay rates

def test_complementary_decay_rate_values():
    assert bounds.complementary_decay_rate(SQ) == pytest.approx(0.5, rel=1e-13)
    # gamma^2 = beta/(beta+1) = 1/2: rate = (1/2)/(3 - 1/2) = 0.2
    assert bounds.complementary_decay_rate(RAT) == pytest.approx(0.2, rel=1e-13)


def test_complementary_terms_decay_faster_than_principal():
    # R_j(x) / Hbar_j(x) -> 0 as x grows: the complementary share of pbar
    # at x = 10 is far below its share at x = 2.
    def share(x):
        b = bounds.pbar_density(SQ, SQUARE, x)
        return math.fsum(b.complementary_by_j) / b.pbar

    assert share(10.0) < 1e-6 * share(2.0)


# ------------------------------------------------ properties of the bounds
#
# Over the two built-in families with c, beta in [0.1, 10], boxes of 1 to 4
# sides in [0.1, 10], and levels where phi is a normal float (|x| <= 37.5).

MODELS = hst.one_of(
    hst.builds(model.make_squared_exponential, hst.floats(0.1, 10.0)),
    hst.builds(model.make_rational, hst.floats(0.1, 10.0),
               hst.floats(0.1, 10.0)))
BOXES = hst.builds(geometry.rectangle_faces,
                   hst.lists(hst.floats(0.1, 10.0), min_size=1, max_size=4))
LEVELS = hst.floats(-37.5, 37.5)
PROPERTY = settings(max_examples=50, deadline=None, database=None,
                    derandomize=True)


@given(m=MODELS, geom=BOXES, x=LEVELS)
@PROPERTY
def test_property_pbar_dominates_pE_and_is_nonnegative(m, geom, x):
    b = bounds.pbar_density(m, geom, x)
    scale = math.fsum(map(abs, b.principal_by_j + b.complementary_by_j))
    assert b.pbar >= b.pE
    assert b.pbar >= -1e-12 * scale


@given(m=MODELS, geom=BOXES, x=LEVELS)
@PROPERTY
def test_property_pE_density_is_the_breakdown_pE(m, geom, x):
    assert bounds.pE_density(m, geom, x) == bounds.pbar_density(m, geom, x).pE


@given(m=MODELS, geom=BOXES, u1=LEVELS, u2=LEVELS)
@PROPERTY
def test_property_pbar_tail_does_not_increase(m, geom, u1, u2):
    lo, hi = sorted((u1, u2))
    assert (bounds.tail_bound(m, geom, lo).pbar_tail
            >= bounds.tail_bound(m, geom, hi).pbar_tail * (1.0 - 1e-7))
