"""Covariance profiles: built-in families, checks at construction,
normalization."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from gaussmax import model


def _fd_derivative(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ------------------------------------------------------------ built-ins

@pytest.mark.parametrize("c", [0.3, 0.5, 2.0])
def test_squared_exponential_derivatives(c):
    m = model.make_squared_exponential(c)
    assert m.rho1_0 == pytest.approx(-c, rel=1e-14)
    assert m.rho2_0 == pytest.approx(c * c, rel=1e-14)
    assert m.gamma == pytest.approx(1.0, rel=1e-14)
    assert m.monotone_flag
    for x in [0.0, 0.4, 2.0]:
        assert m.rho(x) == pytest.approx(math.exp(-c * x), rel=1e-14)
        assert m.rho1(x) == pytest.approx(-c * math.exp(-c * x), rel=1e-14)
        assert m.rho2(x) == pytest.approx(c * c * math.exp(-c * x), rel=1e-14)


@pytest.mark.parametrize("c,beta", [(0.5, 1.0), (1.0, 2.5), (0.8, 1.0)])
def test_rational_derivatives(c, beta):
    m = model.make_rational(c, beta)
    assert m.rho1_0 == pytest.approx(-c * beta, rel=1e-14)
    assert m.rho2_0 == pytest.approx(c * c * beta * (beta + 1.0), rel=1e-14)
    assert m.gamma == pytest.approx(math.sqrt(beta / (beta + 1.0)), rel=1e-14)
    assert m.monotone_flag
    for x in [0.1, 1.0, 5.0]:
        want = (1.0 + c * x) ** (-beta)
        assert m.rho(x) == pytest.approx(want, rel=1e-13)
        assert m.rho1(x) == pytest.approx(_fd_derivative(m.rho, x), rel=1e-7)
        assert m.rho2(x) == pytest.approx(_fd_derivative(m.rho1, x), rel=1e-7)


def test_bump_model_is_valid_and_detects_nonmonotone():
    m = oracles.make_bump_model(0.5, 0.5)
    assert not m.monotone_flag
    # the oracle's closed forms: -a, a^2 + 2b and a / sqrt(a^2 + 2b)
    assert m.rho1_0 == pytest.approx(-0.5, rel=1e-14)
    assert m.rho2_0 == pytest.approx(0.25 + 1.0, rel=1e-14)
    assert m.gamma == pytest.approx(0.5 / math.sqrt(0.25 + 1.0), rel=1e-14)
    # derivative closed forms against finite differences
    for x in [0.2, 1.0, 3.0]:
        assert float(m.rho1(x)) == pytest.approx(_fd_derivative(m.rho, x),
                                                 rel=1e-7)
        assert float(m.rho2(x)) == pytest.approx(_fd_derivative(m.rho1, x),
                                                 rel=1e-7)
    # rho actually increases somewhere (the covariance is non-monotone)
    xs = np.linspace(0.0, 6.0, 200)
    assert np.any(np.diff(m.rho(xs)) > 0)

    m2 = oracles.make_bump_model(0.5, 0.2)
    assert m2.monotone_flag
    assert np.all(np.diff(m2.rho(xs)) < 0)


# ------------------------------------------------------------ validation
# Every model is checked by its constructor; the tests keep the names of the
# retired separate check.

def _rebuild(m, **override):
    kwargs = dict(rho=m.rho, rho1=m.rho1, rho2=m.rho2,
                  monotone_flag=m.monotone_flag)
    kwargs.update(override)
    return model.IsotropicModel(**kwargs)


def test_require_valid_accepts_builtins():
    for m in (model.make_squared_exponential(1.0),
              model.make_rational(1.0, 1.0)):
        assert _rebuild(m).gamma == m.gamma


def test_require_valid_rejects_gamma_above_one():
    # rho'' < rho'^2 means gamma > 1: not a valid profile of this class.
    # Models are validated at construction, so building one raises.
    with pytest.raises(ValueError):
        model.IsotropicModel(
            rho=lambda x: np.exp(-np.asarray(x)) * np.cos(np.asarray(x)),
            rho1=lambda x: -np.exp(-np.asarray(x)) * (np.cos(np.asarray(x))
                                                      + np.sin(np.asarray(x))),
            rho2=lambda x: 2.0 * np.exp(-np.asarray(x)) * np.sin(np.asarray(x)),
            monotone_flag=True)


def test_require_valid_rejects_wrong_variance():
    m = model.make_squared_exponential(1.0)
    with pytest.raises(ValueError):
        model.IsotropicModel(
            rho=lambda x: 2.0 * np.asarray(m.rho(x)), rho1=m.rho1, rho2=m.rho2,
            monotone_flag=True)


def test_require_valid_rejects_nonnegative_slope():
    m = model.make_squared_exponential(1.0)
    with pytest.raises(ValueError):
        model.IsotropicModel(
            rho=m.rho, rho1=lambda x: np.zeros(np.shape(x)), rho2=m.rho2,
            monotone_flag=True)


def test_derived_values_come_from_the_callables():
    for m in (model.make_squared_exponential(0.7),
              model.make_rational(0.8, 2.5), oracles.make_bump_model(0.5, 0.2),
              model.normalized(model.make_rational(1.3, 2.5))[0]):
        built = model.IsotropicModel(rho=m.rho, rho1=m.rho1, rho2=m.rho2,
                                     monotone_flag=m.monotone_flag)
        assert built.rho1_0 == m.rho1_0 == float(m.rho1(0.0))
        assert built.rho2_0 == m.rho2_0 == float(m.rho2(0.0))
        assert built.gamma == m.gamma == math.sqrt(m.rho1_0 ** 2 / m.rho2_0)


@pytest.mark.parametrize("extra", [
    {"rho1_0": -1.0, "rho2_0": 2.0, "gamma": 0.3},
    {"rho1_0": -1.0, "rho2_0": 2.0, "gamma": math.sqrt(0.5),
     "family": "rational"},
], ids=["wrong_gamma", "family"])
def test_derived_values_cannot_be_passed(extra):
    # make_rational(1, 1) has rho'(0) = -1 and rho''(0) = 2, so gamma = 0.3
    # would misstate every bound.
    m = model.make_rational(1.0, 1.0)
    with pytest.raises(TypeError):
        model.IsotropicModel(rho=m.rho, rho1=m.rho1, rho2=m.rho2,
                             monotone_flag=True, **extra)


def _inconsistent_slope():
    # gamma = 1 at 0, but rho falls a hundred times faster than rho1 says.
    return dict(rho=lambda x: np.exp(-2.0 * np.asarray(x)),
                rho1=lambda x: -0.02 * np.exp(-0.02 * np.asarray(x)),
                rho2=lambda x: 4e-4 * np.exp(-0.02 * np.asarray(x)),
                monotone_flag=True)


def _scalar_only():
    return dict(rho=lambda x: math.exp(-x), rho1=lambda x: -math.exp(-x),
                rho2=lambda x: math.exp(-x), monotone_flag=True)


def _false_monotone_flag():
    bump = oracles.make_bump_model(0.5, 0.6)   # not monotone: b > a^2
    return dict(rho=bump.rho, rho1=bump.rho1, rho2=bump.rho2,
                monotone_flag=True)


@pytest.mark.parametrize("callables,check", [
    (_inconsistent_slope, r"rho1 = d/dx rho \(central difference\) fails"),
    (_false_monotone_flag, r"monotone_flag: rho' <= 0 on the grid fails"),
    (_scalar_only, "must map arrays elementwise"),
], ids=["inconsistent_derivative", "false_monotone_flag", "scalar_only"])
def test_construction_names_the_failed_check(callables, check):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=check):
            model.IsotropicModel(**callables())


def test_construction_checks_rho2_against_rho1():
    m = model.make_rational(1.0, 2.0)
    with pytest.raises(ValueError, match=r"rho2 = d/dx rho1 \(central"):
        _rebuild(m, rho2=lambda x: m.rho2(0.0) * np.exp(-np.asarray(x)))


@pytest.mark.parametrize("bad", ["rho", "rho1"])
def test_non_finite_values_on_the_grid_fail_by_name(bad):
    # A value that is NaN past x = 10 reads as the worst error, not a pass.
    m = model.make_rational(0.7, 1.5)

    def broken(x, f=getattr(m, bad)):
        x = np.asarray(x)
        return np.where(x > 10.0, np.nan, f(x))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"at x = [\d.]+: error inf\)"):
            _rebuild(m, **{bad: broken})


@pytest.mark.parametrize("flag", ["false", 2, 1, 0.0, None])
def test_monotone_flag_must_be_a_bool(flag):
    m = model.make_squared_exponential(1.0)
    with pytest.raises(ValueError, match="monotone_flag must be a bool"):
        _rebuild(m, monotone_flag=flag)
    assert _rebuild(m, monotone_flag=np.True_).monotone_flag


def test_make_rejects_bad_parameters():
    with pytest.raises(ValueError):
        model.make_squared_exponential(0.0)
    with pytest.raises(ValueError):
        model.make_squared_exponential(-1.0)
    with pytest.raises(ValueError):
        model.make_rational(1.0, 0.0)
    with pytest.raises(ValueError):
        model.make_rational(-0.5, 1.0)


@pytest.mark.parametrize("make,args", [
    (model.make_squared_exponential, (1e200,)),
    (model.make_squared_exponential,
     (math.nextafter(math.sqrt(np.finfo(float).max), math.inf),)),
    (model.make_rational, (1e200, 1.0)),
])
def test_slope_too_large_to_square_is_a_valueerror(make, args):
    # rho'(0) ** 2 would raise a raw OverflowError in the gamma formula.
    with pytest.raises(ValueError, match=r"rho'\(0\)\^2"):
        make(*args)


def test_gamma_formula_unchanged_up_to_the_overflow_edge():
    # Both families pass every check of their constructor, sharp profiles
    # and their normalized views included, without a warning; and every
    # model keeps gamma = sqrt(rho'(0)^2 / rho''(0)) to the bit, up to
    # c = sqrt(max float), whose slope still squares.  (That edge has no
    # normalized view: its a2^2 = (2 c)^2 overflows, and rho''(0) reads 0.)
    edge = math.sqrt(np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        squared = [model.make_squared_exponential(c)
                   for c in np.geomspace(1e-150, 1e150, 61)]
        rational = [model.make_rational(c, beta)
                    for c in np.geomspace(1e-100, 1e100, 21)
                    for beta in np.geomspace(1e-3, 1e4, 15)]
        views = [model.normalized(m)[0] for m in squared + rational]
        models = [*squared, model.make_squared_exponential(edge),
                  *rational, *views]
    for m in models:
        r1, r2 = float(m.rho1(0.0)), float(m.rho2(0.0))
        assert m.gamma.hex() == math.sqrt(r1 ** 2 / r2).hex()


# --------------------------------------------------------- normalization

@pytest.mark.parametrize("make,args", [
    (model.make_squared_exponential, (0.8,)),
    (model.make_rational, (1.3, 2.0)),
])
def test_normalized_pins_slope(make, args):
    m = make(*args)
    mn, alpha = model.normalized(m)
    assert alpha == pytest.approx(math.sqrt(2.0 * abs(m.rho1_0)), rel=1e-14)
    assert mn.rho1_0 == pytest.approx(-0.5, abs=1e-14)
    assert mn.gamma == pytest.approx(m.gamma, rel=1e-14)
    # rescaling t -> alpha t means rho_n(x) = rho(x / alpha^2)
    for x in [0.3, 1.0, 4.0]:
        assert float(mn.rho(x)) == pytest.approx(float(m.rho(x / alpha ** 2)),
                                                 rel=1e-13)
    # second derivative in normalized units: rho'' / (4 rho'^2) = 1/(4 gamma^2)
    assert mn.rho2_0 == pytest.approx(1.0 / (4.0 * m.gamma ** 2), rel=1e-13)


def test_normalized_is_identity_at_unit_slope():
    m = model.make_squared_exponential(0.5)  # rho'(0) = -1/2 already
    mn, alpha = model.normalized(m)
    assert alpha == 1.0
    assert mn is m


def test_closures_preserve_dtype():
    # Extended-precision inputs must stay extended precision: the variance
    # ratios near z = 0 rely on it.
    m = model.make_squared_exponential(0.5)
    x = np.longdouble("1e-3")
    assert m.rho(x).dtype == np.longdouble
    mn, _ = model.normalized(model.make_rational(0.8, 1.0))
    assert mn.rho(x).dtype == np.longdouble


@settings(max_examples=30, deadline=None)
@given(c=hst.floats(0.05, 5.0), x=hst.floats(0.0, 10.0))
def test_squared_exponential_bounds_property(c, x):
    m = model.make_squared_exponential(c)
    v = float(m.rho(x))
    assert 0.0 < v <= 1.0
    assert float(m.rho1(x)) <= 0.0
    assert float(m.rho2(x)) >= 0.0
