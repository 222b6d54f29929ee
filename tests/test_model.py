"""Covariance profiles: built-in families, validity checks, normalization."""
import math

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
    model.require_valid(m)
    assert not m.monotone_flag
    assert m.gamma == pytest.approx(0.5 / math.sqrt(0.25 + 1.0))
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

def test_require_valid_accepts_builtins():
    model.require_valid(model.make_squared_exponential(1.0))
    model.require_valid(model.make_rational(1.0, 1.0))


def test_require_valid_rejects_gamma_above_one():
    # rho'' < rho'^2 means gamma > 1: not a valid profile of this class.
    # Models are validated at construction, so building one raises.
    with pytest.raises(ValueError):
        model.IsotropicModel(
            rho=lambda x: np.exp(-np.asarray(x)) * np.cos(np.asarray(x)),
            rho1=lambda x: -np.exp(-np.asarray(x)) * (np.cos(np.asarray(x))
                                                      + np.sin(np.asarray(x))),
            rho2=lambda x: 2.0 * np.exp(-np.asarray(x)) * np.sin(np.asarray(x)),
            rho1_0=-1.0, rho2_0=0.0, gamma=float("inf"), monotone_flag=True)


def test_require_valid_rejects_wrong_variance():
    m = model.make_squared_exponential(1.0)
    with pytest.raises(ValueError):
        model.IsotropicModel(
            rho=lambda x: 2.0 * np.asarray(m.rho(x)), rho1=m.rho1, rho2=m.rho2,
            rho1_0=m.rho1_0, rho2_0=m.rho2_0, gamma=m.gamma, monotone_flag=True)


def test_require_valid_rejects_nonnegative_slope():
    m = model.make_squared_exponential(1.0)
    with pytest.raises(ValueError):
        model.IsotropicModel(
            rho=m.rho, rho1=m.rho1, rho2=m.rho2,
            rho1_0=0.0, rho2_0=m.rho2_0, gamma=m.gamma, monotone_flag=True)


def test_validate_model_report():
    rep = model.validate_model(model.make_squared_exponential(0.5))
    assert rep.passed
    assert rep.failures() == []
    assert all(hasattr(c, "name") and hasattr(c, "detail") for c in rep.checks)
    assert "ok" in str(rep)


def test_make_rejects_bad_parameters():
    with pytest.raises(ValueError):
        model.make_squared_exponential(0.0)
    with pytest.raises(ValueError):
        model.make_squared_exponential(-1.0)
    with pytest.raises(ValueError):
        model.make_rational(1.0, 0.0)
    with pytest.raises(ValueError):
        model.make_rational(-0.5, 1.0)


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
