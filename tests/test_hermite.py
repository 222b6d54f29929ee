"""Hermite polynomials and Gaussian-weight tail integrals."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtr
from scipy.stats import norm

import oracles
from gaussmax import bounds, hermite, randmat
from gaussmax.hermite import HermiteKind


# --------------------------------------------------------- polynomial values

@pytest.mark.parametrize("n", range(0, 13))
def test_physicists_matches_explicit_sum(n):
    xs = np.linspace(-4.0, 4.0, 33)
    got = hermite.hermite_eval(HermiteKind.PHYSICISTS, n, xs)
    want = np.array([oracles.hermite_physicists_sum(n, x) for x in xs])
    scale = np.maximum(1.0, np.abs(want))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale.max())


@pytest.mark.parametrize("n", range(0, 13))
def test_modified_matches_explicit_sum(n):
    xs = np.linspace(-4.0, 4.0, 33)
    got = hermite.hermite_eval(HermiteKind.MODIFIED, n, xs)
    want = np.array([oracles.hermite_monic_sum(n, x) for x in xs])
    scale = np.maximum(1.0, np.abs(want)).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)


def test_modified_low_degrees_are_the_monic_polynomials():
    xs = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(
        hermite.hermite_eval(HermiteKind.MODIFIED, 2, xs), xs ** 2 - 1.0,
        atol=1e-12)
    np.testing.assert_allclose(
        hermite.hermite_eval(HermiteKind.MODIFIED, 3, xs), xs ** 3 - 3.0 * xs,
        atol=1e-12)


def test_cross_family_scaling_identity():
    # Hbar_n(x) = 2^{-n/2} H_n(x / sqrt 2): the two recurrences must agree.
    xs = np.linspace(-5.0, 5.0, 41)
    for n in range(0, 16):
        lhs = hermite.hermite_eval(HermiteKind.MODIFIED, n, xs)
        rhs = (2.0 ** (-n / 2.0)
               * hermite.hermite_eval(HermiteKind.PHYSICISTS, n,
                                      xs / math.sqrt(2.0)))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_scalar_in_scalar_out():
    v = hermite.hermite_eval(HermiteKind.PHYSICISTS, 3, 1.5)
    assert isinstance(v, float)
    assert v == pytest.approx(oracles.hermite_physicists_sum(3, 1.5))


def test_degree_bounds():
    with pytest.raises(ValueError):
        hermite.hermite_eval(HermiteKind.PHYSICISTS, -1, 0.0)
    with pytest.raises(ValueError):
        hermite.hermite_eval(HermiteKind.PHYSICISTS, hermite.MAX_DEGREE + 1, 0.0)


# ------------------------------------------------------------ tail integrals

@pytest.mark.parametrize("n", [*range(0, 9), 12, 16, 20, 24])
@pytest.mark.parametrize("v", [-3.0, -0.7, 0.0, 1.3, 4.0])
def test_tail_integral_matches_quadrature(n, v):
    got = hermite.tail_integral_In(n, v)
    want = oracles.quad_In(n, v)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_tail_integral_n0_is_gaussian_tail():
    for v in [-5.0, -1.0, 0.0, 2.0, 6.0]:
        want = math.sqrt(2.0 * math.pi) * norm.sf(v)
        assert hermite.tail_integral_In(0, v) == pytest.approx(want, rel=1e-13)


def test_tail_integral_full_line():
    # At v = -inf only even degrees survive: 2^{n/2} (n-1)!! sqrt(2 pi).
    assert hermite.tail_integral_In(1, -np.inf) == 0.0
    assert hermite.tail_integral_In(0, -np.inf) == pytest.approx(
        math.sqrt(2.0 * math.pi), rel=1e-14)
    assert hermite.tail_integral_In(4, -np.inf) == pytest.approx(
        4.0 * 3.0 * math.sqrt(2.0 * math.pi), rel=1e-14)
    # and the finite-v evaluation converges to it far left
    assert hermite.tail_integral_In(4, -40.0) == pytest.approx(
        hermite.tail_integral_In(4, -np.inf), rel=1e-12)


def test_tail_integral_vectorized():
    vs = np.array([-2.0, 0.0, 3.0])
    got = hermite.tail_integral_In(5, vs)
    want = [hermite.tail_integral_In(5, float(v)) for v in vs]
    np.testing.assert_allclose(got, want, rtol=1e-14)


# ------------------------------------------------------------- normal CDF

def test_Phi_matches_scipy_ndtr():
    xs = np.linspace(-40.0, 40.0, 400_001)
    got, want = hermite._Phi(xs), ndtr(xs)
    normal = want >= np.finfo(float).tiny
    assert normal.sum() > 380_000
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0)


def _log_Phi_left(x):
    """log Phi(x) for x < -30 from the Mills-ratio series (error < 1e-10)."""
    x2 = x * x
    return (-x2 / 2.0 - math.log(-x * math.sqrt(2.0 * math.pi))
            + math.log1p(-1.0 / x2 + 3.0 / x2 ** 2 - 15.0 / x2 ** 3))


def test_Phi_underflow_edge():
    # Phi keeps subnormal values and reaches 0 near the x where the true
    # value is 2^-1075, half the smallest subnormal (one ulp of erfc there
    # moves the edge by ln 2/38.5 = 0.018 in x).  SciPy's ndtr flushes to 0
    # earlier, from x = -37.68, so wherever Phi is 0 it is too.
    lo, hi = -40.0, -30.0           # bisect for true Phi = 2^-1075
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2.0
        if _log_Phi_left(mid) < -1075 * math.log(2.0):
            lo = mid
        else:
            hi = mid
    assert hermite._Phi(hi + 0.02) > 0.0
    assert hermite._Phi(hi - 0.02) == 0.0
    xs = np.linspace(-39.0, -37.0, 20_001)
    got, want = hermite._Phi(xs), ndtr(xs)
    for vals in (got, want):
        assert np.isfinite(vals).all() and (vals >= 0.0).all()
    assert (np.diff(got) >= 0.0).all()
    assert (want[got == 0.0] == 0.0).all()
    assert hermite._Phi(-40.0) == 0.0 and ndtr(-40.0) == 0.0


def test_Phi_types_and_limits():
    assert type(hermite._Phi(0.5)) is float
    assert type(hermite._Phi(np.float64(0.5))) is float
    assert hermite._Phi(0.0) == 0.5
    out = hermite._Phi(np.array([[-1.0, 0.0], [1.0, 2.0]]))
    assert out.dtype == np.float64 and out.shape == (2, 2)
    assert hermite._Phi([-np.inf, np.inf]).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("xs", [
    np.linspace(-38.4, 40.0, 400_001),
    np.concatenate([np.random.default_rng(11).uniform(-38.4, 40.0, 100_000),
                    3.0 * np.random.default_rng(12).standard_normal(100_000),
                    np.random.default_rng(13).uniform(-1.5, 1.5, 100_000)])],
    ids=["grid", "fuzz"])
def test_Phi_matches_the_erfc_path(xs):
    # Every branch of the rational approximations and both sides of each
    # split (|z| = 1 and 8 at x = -+1.41 and -+11.3), against the C
    # library's erfc at the same z, wherever that is a normal float.
    got, want = hermite._Phi(xs), oracles.Phi_by_erfc(xs)
    normal = want >= np.finfo(float).tiny
    assert normal.sum() > 0.98 * len(xs)
    rel = np.abs(got[normal] - want[normal]) / want[normal]
    assert rel.max() <= 2e-15


def test_Phi_infinities_extremes_and_nan():
    # The clipped |z| keeps the split exp finite: no inf - inf, no overflow
    # warning (an error under this suite's filter), and exact limits.
    xs = [-np.inf, -1e308, -40.0, 40.0, 1e308, np.inf]
    assert hermite._Phi(np.array(xs)).tolist() == [0.0, 0.0, 0.0,
                                                  1.0, 1.0, 1.0]
    for x, want in zip(xs, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]):
        assert hermite._Phi(x) == want
    assert math.isnan(hermite._Phi(math.nan))
    out = hermite._Phi(np.array([math.nan, 0.0, -math.nan]))
    assert np.isnan(out[[0, 2]]).all() and out[1] == 0.5


@pytest.mark.parametrize("x", [0.5, -3, np.float64(-9.0), np.array(12.0),
                               np.array(-0.25, dtype=np.float32)])
def test_Phi_of_a_scalar_or_0d_input_is_a_float(x):
    got = hermite._Phi(x)
    assert type(got) is float
    assert got == hermite._Phi(np.array([x], dtype=float))[0]


def test_Phi_into_its_dead_buffers_is_bit_identical_on_tail_nodes(
        monkeypatch, capsys):
    # Every Phi argument of a polytope tail sweep (the benchmark's: the
    # rational model on the unit 3-simplex, 101 levels in [-2, 8]).
    from gaussmax import cli
    nodes, Phi = [], hermite._Phi

    def recording(x):
        nodes.append(np.array(x, dtype=float))
        return Phi(x)

    for mod in (hermite, bounds):
        monkeypatch.setattr(mod, "_Phi", recording)
    simplex = {"kind": "halfspaces", "halfspaces": [
        [[-1.0, 0.0, 0.0], 0.0], [[0.0, -1.0, 0.0], 0.0],
        [[0.0, 0.0, -1.0], 0.0], [[1.0, 1.0, 1.0], 1.0]]}
    assert cli.main([
        "tail", "--format", "json", "--reps", "100000", "--seed", "190",
        "--set", 'model={"family": "rational", "c": 1.0, "beta": 1.0}',
        "--set", f"geometry={json.dumps(simplex)}",
        "--set", f"u={json.dumps(np.linspace(-2.0, 8.0, 101).tolist())}"]) == 0
    capsys.readouterr()
    assert sum(n.size for n in nodes) > 10 ** 5
    got = [np.asarray(Phi(x)).tobytes() for x in nodes]
    # The reference: a new accumulator for every polynomial, as before
    # _polevl took ``out``.
    polevl = hermite._polevl
    monkeypatch.setattr(hermite, "_polevl",
                        lambda x, coefs, monic=False, out=None:
                        polevl(x, coefs, monic))
    assert [np.asarray(Phi(x)).tobytes() for x in nodes] == got


# -------------------------------------------------------- weighted integrals

@pytest.mark.parametrize("n", range(0, 7))
def test_weighted_integral_matches_quadrature(n):
    a = 0.3
    b = math.sqrt(0.5 - a * a)
    for x in [-2.0, 0.0, 1.0, 3.0]:
        got = hermite.weighted_integral_Jn(n, x, a, b)
        want = oracles.quad_Jn(n, x, a, b)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_weighted_integral_rejects_bad_scaling():
    with pytest.raises(ValueError):
        hermite.weighted_integral_Jn(2, 1.0, 0.5, 0.6)


@pytest.mark.parametrize("b2", [0.1, 0.5, 2.0])
def test_scaled_recurrence_is_the_gaussian_average(b2):
    # p_k(a; 1 - 2b^2) = E u_k(a + bY), Y ~ N(0, 1), also where 1 - 2b^2
    # <= 0.  A 40-node Gauss-Hermite rule is exact for these degrees, so
    # the gap is the rounding of its sum, relative to the sum of |terms|.
    t, w = np.polynomial.hermite.hermgauss(40)
    a = np.linspace(-4.0, 4.0, 17)
    u = hermite._norm_hermites(30, a[:, None] + math.sqrt(2.0 * b2) * t)
    want = u @ w / math.sqrt(math.pi)
    size = np.abs(u) @ w / math.sqrt(math.pi)
    got = hermite._norm_hermites(30, a, 1.0 - 2.0 * b2)
    assert np.all(np.abs(got - want) <= 1e-14 * size)


@settings(max_examples=30, deadline=None)
@given(n=hst.integers(0, 20), x=hst.floats(-6.0, 6.0))
def test_recurrence_consistency_property(n, x):
    """x Hbar_n = Hbar_{n+1} + n Hbar_{n-1} (the monic three-term recurrence)."""
    h_n = hermite.hermite_eval(HermiteKind.MODIFIED, n, x)
    h_up = hermite.hermite_eval(HermiteKind.MODIFIED, n + 1, x)
    h_dn = hermite.hermite_eval(HermiteKind.MODIFIED, n - 1, x) if n else 0.0
    scale = max(1.0, abs(h_n) * max(1.0, abs(x)), abs(h_up), n * abs(h_dn))
    assert abs(x * h_n - (h_up + n * h_dn)) <= 1e-11 * scale


# tail_integral_In accepts a scalar v = -inf (the full-line integral), so
# every call here passes the bad value inside an array.
@pytest.mark.parametrize("call", [
    lambda a: hermite.hermite_eval(HermiteKind.MODIFIED, 3, a),
    lambda a: hermite.tail_integral_In(3, a),
    lambda a: randmat.goe_eigen_density(3, a),
    lambda a: randmat.expected_absdet_shifted_goe(3, a),
], ids=["hermite_eval", "tail_integral_In", "goe_eigen_density",
        "expected_absdet_shifted_goe"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_kernel_entry_points_reject_nonfinite_abscissa(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(np.array([0.5, bad]))


def test_an_int_beyond_the_floats_is_not_finite():
    with pytest.raises(ValueError, match="x must be finite, got 1000"):
        hermite.hermite_eval("physicists", 3, 10 ** 400)


@pytest.mark.parametrize("call", [
    lambda n: hermite.hermite_eval(HermiteKind.MODIFIED, n, 1.0),
    lambda n: bounds.T_series(n, 0.5),
    lambda n: randmat.goe_eigen_density(n, 0.5),
], ids=["hermite_eval", "T_series", "goe_eigen_density"])
@pytest.mark.parametrize("bad", [2.7, math.inf, math.nan, "3"],
                         ids=["2.7", "inf", "nan", "str"])
def test_integer_arguments_are_not_truncated(call, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)


def test_integral_floats_and_numpy_integers_are_integers():
    want = hermite.hermite_eval(HermiteKind.MODIFIED, 3, 1.0)
    assert hermite.hermite_eval(HermiteKind.MODIFIED, 3.0, 1.0) == want
    assert hermite.hermite_eval(HermiteKind.MODIFIED, np.int64(3), 1.0) == want


@pytest.mark.parametrize("call,name", [
    (lambda: hermite.hermite_eval("physicists", 5, 1e62), "hermite_eval"),
    (lambda: hermite.tail_integral_In(5, 1e78), "tail_integral_In"),
    (lambda: hermite.weighted_integral_Jn(2, 1e154, 0.5, 0.5),
     "weighted_integral_Jn"),
], ids=["hermite_eval", "tail_integral_In", "weighted_integral_Jn"])
def test_results_past_the_floats_raise_naming_the_call(call, name):
    # With the overflow warnings silenced, as outside the test suite, these
    # finite inputs used to return inf or NaN.
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=name):
        call()
