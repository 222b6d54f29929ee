"""Density bounds pbar/pE, correction terms, tail integrals, sphere bound."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy.stats import norm

import oracles
from gaussmax import bounds, geometry, model
from gaussmax.geometry import FaceDecomposition, GeometryKind

SQ = model.make_squared_exponential(0.5)
RAT = model.make_rational(0.8, 1.0)
LOW_GAMMA = model.make_rational(1.0, 0.2)   # gamma = sqrt(1/6) = 0.41
NEAR_ONE = model.make_rational(1.0, 1e4)    # gamma = 0.99995
SQUARE = geometry.rectangle_faces([1.0, 1.0])
CUBE = geometry.rectangle_faces([1.0, 1.0, 1.0])
POINT = FaceDecomposition(d=1, d0=0, g=(1.0,), kappa=0.0,
                          kind=GeometryKind.RECTANGLE)


# ------------------------------------------------------------- T integrals

@pytest.mark.parametrize("closed,j", [(oracles.T1_closed, 1),
                                      (oracles.T2_closed, 2),
                                      (oracles.T3_closed, 3)])
def test_T_series_closed_forms(closed, j):
    vs = np.linspace(-8.0, 8.0, 161)
    got = bounds.T_series(j, vs)
    want = np.array([closed(v) for v in vs])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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


def test_R_correction_nonnegative_on_grid():
    xs = np.linspace(-5.0, 10.0, 61)
    for m in (SQ, RAT):
        for j in range(1, 6):
            for x in xs:
                assert bounds.R_correction(m, j, float(x)) >= -1e-12


def test_R_correction_cross_check_catches_bad_rule(monkeypatch):
    # far too coarse for j = 4 integrands; sphere_pbar's outer y-average
    # goes through the same check (one test id covers both callers)
    monkeypatch.setattr(bounds, "_RULE", bounds._gauss_rule(2))
    for call in (lambda: bounds.R_correction(RAT, 4, 0.5, cross_check=True),
                 lambda: bounds.sphere_pbar(RAT, 5, 0.5)):
        with pytest.raises(RuntimeError, match="non-convergent"):
            call()


def test_R_correction_gate_is_relative_in_the_tail(monkeypatch):
    # R_1(20) is about 5e-20: an absolute floor would pass the 6-node
    # value 2.7e-20, half the converged one
    m = model.make_rational(1.0, 1.0)
    assert bounds.R_correction(m, 1, 20.0) == pytest.approx(5.16e-20, rel=1e-2)
    monkeypatch.setattr(bounds, "_RULE", bounds._gauss_rule(6))
    with pytest.raises(RuntimeError, match="non-convergent for R_1"):
        bounds.R_correction(m, 1, 20.0)


@settings(max_examples=30, deadline=None)
@given(xs=hst.lists(hst.floats(-10.0, 15.0), min_size=1, max_size=12),
       j=hst.integers(1, 6), m=hst.sampled_from([SQ, RAT, LOW_GAMMA]))
def test_R_on_an_array_equals_scalar_R_correction(xs, j, m):
    got = bounds._R_values(m, j, np.array(xs))
    want = [bounds.R_correction(m, j, x) for x in xs]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


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
            CUBE.g[j] * bounds.R_correction(m, j, x, cross_check=False)
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
