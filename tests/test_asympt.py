"""Second-order error exponents: rates, variance and curvature functionals."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from gaussmax import asympt
from gaussmax.bounds import complementary_decay_rate
from gaussmax.model import make_rational, make_squared_exponential, normalized

SQ = make_squared_exponential(0.5)
RAT = make_rational(0.8, 1.0)
# Non-monotone but globally valid correlation: rho(x) = e^{-0.6x}(1 + 0.5x^2)
# stays below 1 for x > 0 (max of ln(1+0.5x^2) - 0.6x is about -0.083) while
# rho' > 0 on an interval, so the curvature functional is genuinely active.
BUMP = oracles.make_bump_model(0.6, 0.5)


class TestExponentGeneral:
    def test_pinned_values(self):
        assert asympt.exponent_general(2.0, 0.0, 0.0).rate == pytest.approx(1.5, rel=1e-15)
        assert asympt.exponent_general(1.0, 3.0, 2.0).rate == pytest.approx(1.0 + 1.0 / 13.0, rel=1e-15)
        # kappa is inert when lambda_bar = 0
        assert asympt.exponent_general(4.0, 0.0, 7.0).rate == pytest.approx(1.25, rel=1e-15)

    def test_zero_denominator_gives_infinite_rate(self):
        rep = asympt.exponent_general(0.0, 0.0, 0.0)
        assert rep.rate == math.inf

    def test_kappa_whose_square_overflows_gives_rate_one(self):
        # 1e200 ** 2 raises OverflowError; the square is taken as inf.
        assert asympt.exponent_general(1.0, 1.0, 1e200).rate == 1.0

    def test_report_fields(self):
        rep = asympt.exponent_general(2.0, 0.5, 1.5)
        assert rep.components.sigma2 == 2.0
        assert rep.components.lambda_bar == 0.5
        assert rep.components.kappa == 1.5
        assert rep.exact is False
        assert rep.detail == {}

    @pytest.mark.parametrize("bad", [
        (float("nan"), 0.0, 0.0),
        (0.0, float("nan"), 0.0),
        (0.0, 0.0, float("nan")),
        (-1.0, 0.0, 0.0),
        (0.0, -1e-9, 0.0),
        (0.0, 0.0, -2.0),
    ])
    def test_rejects_nan_and_negative(self, bad):
        with pytest.raises(ValueError):
            asympt.exponent_general(*bad)

    @given(s2=st.floats(0.0, 50.0), lb=st.floats(0.0, 10.0),
           k=st.floats(0.0, 10.0), bump=st.floats(1e-6, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_rate_exceeds_one_and_decreases(self, s2, lb, k, bump):
        base = asympt.exponent_general(s2, lb, k).rate
        assert base > 1.0
        assert asympt.exponent_general(s2 + bump, lb, k).rate <= base
        assert asympt.exponent_general(s2, lb + bump, k).rate <= base
        assert asympt.exponent_general(s2, lb, k + bump).rate <= base


class TestSigma2Isotropic:
    def test_squared_exponential_hits_short_range_limit(self):
        val, arg = asympt.sigma2_isotropic(SQ, 3.0, return_argmax=True)
        assert val == pytest.approx(2.0, abs=1e-9)
        assert arg == 0.0

    def test_rational_hits_short_range_limit(self):
        val, arg = asympt.sigma2_isotropic(RAT, 3.0, return_argmax=True)
        assert val == pytest.approx(5.0, abs=1e-9)
        assert arg == 0.0

    def test_scalar_without_argmax(self):
        assert asympt.sigma2_isotropic(SQ, 3.0) == pytest.approx(2.0, abs=1e-9)

    def test_ratio_stays_below_limit_near_zero(self):
        # the z -> 0 limit 12*rho2(0) - 1 dominates the ratio at small z
        mn, _ = normalized(SQ)
        limit = 12.0 * mn.rho2_0 - 1.0
        for z in (1e-2, 0.1, 0.5, 1.0):
            assert oracles.variance_ratio_direct(mn, z) < limit

    def test_bump_supremum_matches_direct_grid(self):
        # interior maximum: compare against a dense longdouble grid sweep
        # assembled directly from the model callables
        mn, alpha = normalized(BUMP)
        val = asympt.sigma2_isotropic(BUMP, 2.0)
        zs = np.linspace(1e-3, alpha * 2.0, 400_001)
        direct = max(oracles.variance_ratio_direct(mn, z)
                     for z in (zs[np.argmax([oracles.variance_ratio_direct(mn, z)
                                             for z in zs[::400]])],))
        # refine around the coarse argmax
        coarse = zs[::400]
        i = int(np.argmax([oracles.variance_ratio_direct(mn, z) for z in coarse]))
        lo = coarse[max(i - 1, 0)]
        hi = coarse[min(i + 1, len(coarse) - 1)]
        fine = np.linspace(lo, hi, 20001)
        direct = max(oracles.variance_ratio_direct(mn, z) for z in fine)
        direct = max(direct, 12.0 * float(mn.rho2_0) - 1.0)
        assert val == pytest.approx(direct, rel=1e-6)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            asympt.sigma2_isotropic(SQ, 0.0)
        with pytest.raises(ValueError):
            asympt.sigma2_isotropic(SQ, -1.0)


class TestExponentConvex:
    def test_squared_exponential_rate(self):
        rep = asympt.exponent_convex(SQ)
        assert rep.rate == pytest.approx(1.5, abs=1e-12)
        assert rep.exact is True
        assert rep.components.kappa == 0.0
        assert rep.detail["sigma2_limit"] == pytest.approx(2.0, abs=1e-12)

    def test_rational_rate(self):
        rep = asympt.exponent_convex(RAT)
        assert rep.rate == pytest.approx(1.2, abs=1e-12)
        assert rep.detail["sigma2_limit"] == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("m", [SQ, RAT, make_squared_exponential(2.0),
                                   make_rational(1.5, 3.0)])
    def test_rate_minus_one_equals_complementary_decay(self, m):
        rep = asympt.exponent_convex(m)
        assert rep.rate - 1.0 == pytest.approx(complementary_decay_rate(m), abs=1e-12)

    @pytest.mark.parametrize("m", [SQ, RAT, make_rational(0.7, 2.0)])
    def test_rate_minus_one_equals_gamma_formula(self, m):
        g2 = m.gamma ** 2
        rep = asympt.exponent_convex(m)
        assert rep.rate - 1.0 == pytest.approx(g2 / (3.0 - g2), rel=1e-12)

    def test_rejects_nonmonotone_model(self):
        with pytest.raises(ValueError):
            asympt.exponent_convex(BUMP)


class TestZDeltaExponent:
    def test_monotone_model_reduces_to_variance_part(self):
        rep = asympt.Z_delta_exponent(SQ, 2.0)
        assert rep.components.kappa == 0.0
        assert rep.detail["Z_delta"] == rep.components.sigma2
        assert rep.detail["Z_delta"] == pytest.approx(2.0, abs=1e-9)
        assert rep.rate == pytest.approx(1.5, abs=1e-9)
        assert rep.exact is False

    def test_small_window_approaches_convex_rate(self):
        rep = asympt.Z_delta_exponent(SQ, 1e-3)
        assert abs(rep.rate - 1.5) < 1e-9

    @pytest.mark.parametrize("m", [SQ, RAT], ids=["SQ", "RAT"])
    @pytest.mark.parametrize("delta", [1e-300, 1e-8, 1e-4, 1e-3, 1.0, 10.0])
    def test_monotone_rate_is_the_convex_rate_at_every_scale(self, m, delta):
        # The ratios are never evaluated below their resolvable chord 1e-3;
        # a window below it is its z -> 0 limit.
        want = asympt.exponent_convex(m).rate
        assert asympt.Z_delta_exponent(m, delta).rate == pytest.approx(
            want, abs=1e-9)
        assert asympt.sigma2_isotropic(m, delta) == pytest.approx(
            asympt.exponent_convex(m).components.sigma2, rel=1e-9)

    @pytest.mark.parametrize("delta", [1e-300, 1e-8, 1e-4, 1e-3])
    def test_tiny_windows_of_a_nonmonotone_model_are_warning_free(self, delta):
        # RuntimeWarnings are errors in this suite; the z -> 0 limits win.
        mn, _ = normalized(BUMP)
        limit = 12.0 * mn.rho2_0 - 1.0
        rep = asympt.Z_delta_exponent(BUMP, delta)
        assert rep.components.kappa == 0.0
        assert rep.components.sigma2 == pytest.approx(limit, rel=1e-6)
        assert asympt.sigma2_isotropic(BUMP, delta) == rep.components.sigma2

    def test_bump_has_active_curvature_term(self):
        rep = asympt.Z_delta_exponent(BUMP, 2.0)
        assert rep.components.kappa > 0.5
        assert rep.detail["Z_delta"] == pytest.approx(
            rep.components.sigma2 + rep.components.kappa ** 2, rel=1e-14)
        assert rep.rate == pytest.approx(1.0 + 1.0 / rep.detail["Z_delta"], rel=1e-14)
        assert set(rep.detail) == {"Z_delta", "sigma2_argmax",
                                   "kappa_signed_sup", "kappa_argmax"}
        assert rep.components.kappa == rep.detail["kappa_signed_sup"]

    def test_bump_kappa_matches_dense_grid(self):
        # independent supremum of 2 rho'(z^2) z / (1 - rho(z^2)) over (0, alpha*Delta]
        mn, alpha = normalized(BUMP)
        rep = asympt.Z_delta_exponent(BUMP, 2.0)
        zs = np.linspace(1e-6, alpha * 2.0, 2_000_001)
        x = zs * zs
        signed = 2.0 * np.asarray(mn.rho1(x), float) * zs / (1.0 - np.asarray(mn.rho(x), float))
        assert rep.components.kappa == pytest.approx(float(signed.max()), rel=1e-6)
        assert rep.detail["kappa_argmax"] == pytest.approx(
            float(zs[signed.argmax()]) / alpha, abs=1e-3)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            asympt.Z_delta_exponent(SQ, 0.0)
        with pytest.raises(ValueError):
            asympt.Z_delta_exponent(SQ, -0.5)


class TestKappaAnnulus:
    def test_squared_exponential_unit_inner_radius(self):
        # c = 1/2 puts the model already at identity speed; inner radius 1
        # gives the circle-limit value 1/a = 1 exactly
        val, arg = asympt.kappa_annulus(SQ, 1.0, 2.0, return_argmax=True)
        assert val == pytest.approx(1.0, rel=1e-12)
        assert arg[0] == "circle"
        assert arg[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("a", [1e-300, 1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("m", [SQ, RAT, BUMP], ids=["SQ", "RAT", "BUMP"])
    def test_tiny_inner_radius_is_the_circle_limit(self, m, a):
        # No chord below 1e-3 is evaluated, so no warning; 1/a_n wins.
        _, alpha = normalized(m)
        val, arg = asympt.kappa_annulus(m, a, 2.0 * a, return_argmax=True)
        assert val == pytest.approx(1.0 / (alpha * a), rel=1e-12)
        assert arg == ("circle", 0.0)

    def test_squared_exponential_rescaled(self):
        # c = 3: normalized inner radius sqrt(6), circle limit 1/sqrt(6)
        val = asympt.kappa_annulus(make_squared_exponential(3.0), 1.0, 2.0)
        assert val == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)

    def test_circle_ratio_limit_direct(self):
        # the circle-branch ratio tends to 1/a_n as the angle vanishes
        mn, alpha = normalized(RAT)
        an = alpha * 1.3
        target = 1.0 / an
        r5 = oracles.annulus_circle_ratio_direct(mn, an, 1e-5)
        r4 = oracles.annulus_circle_ratio_direct(mn, an, 1e-4)
        assert r5 == pytest.approx(target, abs=1e-4)
        # linear approach: error shrinks by ~10x per decade of h
        assert abs(r5 - target) < 0.2 * abs(r4 - target)

    def test_rational_matches_uniform_grid(self):
        # independent sweep of both branch formulas on plain uniform grids
        m = RAT
        a, b = 0.8, 2.5
        mn, alpha = normalized(m)
        an, bn = alpha * a, alpha * b
        zs = np.linspace(2.0 * an, an + bn, 300_001)
        xz = zs * zs
        seg = -2.0 * np.asarray(mn.rho1(xz), float) * zs / (1.0 - np.asarray(mn.rho(xz), float))
        hs = np.linspace(1e-6, 2.0, 300_001)
        xc = 2.0 * an * an * hs
        circ = -2.0 * an * np.asarray(mn.rho1(xc), float) * hs / (1.0 - np.asarray(mn.rho(xc), float))
        direct = max(float(seg.max()), float(circ.max()), 1.0 / an)
        assert asympt.kappa_annulus(m, a, b) == pytest.approx(direct, rel=1e-6)

    def test_scalar_without_argmax(self):
        assert isinstance(asympt.kappa_annulus(SQ, 1.0, 2.0), float)

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.0, 1.0), (-1.0, 2.0), (1.0, 1.0)])
    def test_rejects_bad_radii(self, a, b):
        with pytest.raises(ValueError):
            asympt.kappa_annulus(SQ, a, b)

    @pytest.mark.parametrize("a,b", [(1.0, math.inf), (1.0, math.nan),
                                     (math.nan, 2.0), (-math.inf, 2.0)])
    def test_rejects_nonfinite_radii(self, a, b):
        with pytest.raises(ValueError, match="must be finite"):
            asympt.kappa_annulus(make_rational(1.0, 1.0), a, b)

    def test_limit_past_the_floats_raises(self):
        # The theta -> 0 limit 1/a of a subnormal inner radius is inf.
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="kappa_annulus"):
            asympt.kappa_annulus(SQ, 1e-320, 0.5)


def _gauss_profile():
    G = lambda h: np.exp(-np.asarray(h) ** 2)
    G1 = lambda h: -2.0 * np.asarray(h) * np.exp(-np.asarray(h) ** 2)
    return G, G1


class TestSigma2Separable:
    def test_one_dimensional_matches_manual(self):
        G, G1 = _gauss_profile()
        val = asympt.sigma2_separable([(G, G1)], (0.3,), (1.1,))
        h = 0.3 - 1.1
        g = math.exp(-h * h)
        gp = -2.0 * h * math.exp(-h * h)
        manual = (1.0 - g * g - gp * gp) / (1.0 - g) ** 2
        assert val == pytest.approx(manual, rel=1e-13)

    def test_two_dimensional_matches_manual(self):
        G, G1 = _gauss_profile()
        val = asympt.sigma2_separable([(G, G1), (G, G1)], (0.0, 0.2), (0.7, 1.4))
        hs = [-0.7, -1.2]
        Gv = [math.exp(-h * h) for h in hs]
        Gp = [-2.0 * h * math.exp(-h * h) for h in hs]
        prod = Gv[0] * Gv[1]
        num = 1.0 - prod ** 2 - Gp[0] ** 2 * Gv[1] ** 2 - Gp[1] ** 2 * Gv[0] ** 2
        manual = num / (1.0 - prod) ** 2
        assert val == pytest.approx(manual, rel=1e-13)

    def test_max_matches_brute_force(self):
        G, G1 = _gauss_profile()
        pairs = [(G, G1), (G, G1)]
        box = [(0.0, 1.0), (0.0, 2.0)]
        val, arg = asympt.sigma2_separable_max(pairs, box, n_per_axis=41)
        axes = [np.linspace(-1.0, 1.0, 41), np.linspace(-2.0, 2.0, 41)]
        best = -np.inf
        barg = None
        for h1 in axes[0]:
            for h2 in axes[1]:
                if abs(h1) < 1e-12 and abs(h2) < 1e-12:
                    continue
                g1v, g2v = math.exp(-h1 * h1), math.exp(-h2 * h2)
                gp1, gp2 = -2.0 * h1 * g1v, -2.0 * h2 * g2v
                p = g1v * g2v
                r = (1.0 - p * p - gp1 * gp1 * g2v * g2v
                     - gp2 * gp2 * g1v * g1v) / (1.0 - p) ** 2
                if r > best:
                    best, barg = r, (h1, h2)
        assert val == pytest.approx(best, rel=1e-13)
        assert arg == pytest.approx(barg, abs=1e-12)

    def test_n_per_axis_must_be_integral(self):
        G, G1 = _gauss_profile()
        pairs, box = [(G, G1), (G, G1)], [(0.0, 1.0), (0.0, 2.0)]
        with pytest.raises(ValueError, match="n_per_axis"):
            asympt.sigma2_separable_max(pairs, box, n_per_axis=2.7)
        assert (asympt.sigma2_separable_max(pairs, box, n_per_axis=3.0)
                == asympt.sigma2_separable_max(pairs, box, n_per_axis=3))

    def test_sweep_argmax_evaluates_back(self):
        G, G1 = _gauss_profile()
        pairs = [(G, G1), (G, G1)]
        val, arg = asympt.sigma2_separable_max(pairs, [(0.0, 1.0), (0.0, 2.0)])
        back = asympt.sigma2_separable(pairs, arg, (0.0, 0.0))
        assert back == pytest.approx(val, rel=1e-12)

    def test_rejects_bad_inputs(self):
        G, G1 = _gauss_profile()
        with pytest.raises(ValueError):
            asympt.sigma2_separable([], (), ())
        with pytest.raises(ValueError):
            asympt.sigma2_separable([(G, G1)], (0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            asympt.sigma2_separable([(G, G1)], (0.5,), (0.5,))
        bad = lambda h: 2.0 * np.exp(-np.asarray(h) ** 2)
        with pytest.raises(ValueError):
            asympt.sigma2_separable([(bad, G1)], (0.0,), (1.0,))
        one = lambda h: np.ones_like(np.asarray(h, dtype=float))
        zero = lambda h: np.zeros_like(np.asarray(h, dtype=float))
        with pytest.raises(ValueError):
            asympt.sigma2_separable([(one, zero)], (0.0,), (1.0,))

    def test_max_rejects_bad_box(self):
        G, G1 = _gauss_profile()
        with pytest.raises(ValueError):
            asympt.sigma2_separable_max([(G, G1)], [(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            asympt.sigma2_separable_max([(G, G1)], [(1.0, 1.0)])


class TestPmEquiv1d:
    def test_quadratic_peak_pinned_value(self):
        # v'' = v^(2) = -2, k = 1: constant is 2 E|xi|^{-1/2} phi(x)
        val = asympt.pm_equiv_1d(-2.0, -2.0, 1, 3.0)
        e_half = 2.0 ** -0.25 * math.gamma(0.25) / math.sqrt(math.pi)
        assert val == pytest.approx(2.0 * e_half * stats.norm.pdf(3.0), rel=1e-13)
        assert val == pytest.approx(0.015246267408109427, rel=1e-13)

    def test_quartic_peak_matches_manual_assembly(self):
        v2k, vpp, k, x = -6.0, -1.0, 2, 4.0
        val = asympt.pm_equiv_1d(v2k, vpp, k, x)
        ck = -v2k / math.factorial(2 * k) + 0.25 * vpp * vpp
        p = 1.0 / (2 * k) - 1.0
        e_abs = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
        manual = ((1.0 - vpp / 2.0) / (k * ck ** (1.0 / k))) * e_abs \
            * x ** (1.0 - 1.0 / k) * stats.norm.pdf(x)
        assert val == pytest.approx(manual, rel=1e-13)

    @pytest.mark.parametrize("v2k,vpp,k,x", [
        (-2.0, -2.0, 0, 3.0),
        (0.0, -2.0, 1, 3.0),
        (1.0, -2.0, 1, 3.0),
        (-2.0, 1.0, 1, 3.0),
        (-2.0, -2.0, 1, -0.5),
    ])
    def test_rejects_invalid_inputs(self, v2k, vpp, k, x):
        with pytest.raises(ValueError):
            asympt.pm_equiv_1d(v2k, vpp, k, x)

    def test_k_must_be_integral(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            asympt.pm_equiv_1d(-6.0, -1.0, 2.7, 2.0)
        assert (asympt.pm_equiv_1d(-6.0, -1.0, 3.0, 2.0)
                == asympt.pm_equiv_1d(-6.0, -1.0, 3, 2.0))

    @given(v2k=st.floats(-50.0, -0.1), vpp=st.floats(-10.0, 0.0),
           k=st.integers(1, 4), x=st.floats(0.0, 8.0))
    @settings(max_examples=150, deadline=None)
    def test_positive_for_valid_inputs(self, v2k, vpp, k, x):
        val = asympt.pm_equiv_1d(v2k, vpp, k, x)
        assert np.isfinite(val) and val >= 0.0
        if x > 0.0:
            assert val > 0.0


@pytest.mark.parametrize("call, name", [
    (lambda: asympt.pm_equiv_1d(-1.0, -0.5, 1, math.nan), "x"),
    (lambda: asympt.pm_equiv_1d(-1.0, math.nan, 1, 2.0), "vpp"),
    (lambda: asympt.pm_equiv_1d(-1.0, -0.5, 1, math.inf), "x"),
    (lambda: asympt.sigma2_isotropic(RAT, math.inf), "Delta"),
    (lambda: asympt.Z_delta_exponent(RAT, math.inf), "Delta"),
    (lambda: asympt.sigma2_isotropic(RAT, math.nan), "Delta"),
], ids=["pm_x_nan", "pm_vpp_nan", "pm_x_inf", "sigma2_inf", "Z_inf",
        "sigma2_nan"])
def test_nonfinite_inputs_raise(call, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call()
