"""Isotropic covariance profiles rho(||s-t||^2) with certified derivatives.

A model carries the profile rho (a function of the *squared* distance) and
its first two derivatives.  Their values at 0 and the shape constant
``gamma = |rho'(0)| / sqrt(rho''(0)) in (0, 1]`` are derived from those
callables at construction, never passed in.  Validity means:

* rho(0) = 1 (unit variance),
* rho'(0) < 0 (non-degenerate gradient),
* rho''(0) - rho'(0)^2 >= 0 (a positivity constraint the conditional-Hessian
  law requires; both built-in families satisfy it),
* rho1 and rho2 are the derivatives of rho and rho1, and rho' <= 0 where
  ``monotone_flag`` says so, on a finite grid of squared distances in
  [1e-3, 50].

Every model is checked once, when it is constructed: one that fails a check
raises ValueError naming it, so no downstream operation checks again.

Several second-order quantities are stated for the "unit-speed" normalization
rho'(0) = -1/2; :func:`normalized` rescales any valid model to it (the
parameter rescaling t -> alpha t with alpha = sqrt(2|rho'(0)|) leaves the
maximum of the field unchanged).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hermite import _finite


@dataclass(frozen=True)
class IsotropicModel:
    """Covariance profile of an isotropic field, E X(s)X(t) = rho(||s-t||^2).

    The constructor takes the callables, which must map arrays elementwise,
    and ``monotone_flag``, a bool.  It sets ``rho1_0 = rho1(0)``,
    ``rho2_0 = rho2(0)`` and ``gamma = sqrt(rho1_0^2 / rho2_0)`` once, then
    runs every check of the module docstring: the values at 0, the
    derivatives against central differences, and the flag against the sign
    of rho1.  An instance that fails one cannot be built.
    """

    rho: Callable
    rho1: Callable
    rho2: Callable
    monotone_flag: bool
    rho1_0: float = field(init=False)
    rho2_0: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.monotone_flag, (bool, np.bool_)):
            raise ValueError("monotone_flag must be a bool, got "
                             f"{self.monotone_flag!r}")
        try:
            with np.errstate(all="ignore"):   # a non-finite value fails by name
                _derive_and_check(self)
        except TypeError as e:   # e.g. a callable that takes scalars only
            raise ValueError("invalid model: rho, rho1 and rho2 must map "
                             f"arrays elementwise ({e})") from None


def make_squared_exponential(c: float) -> IsotropicModel:
    """rho(x) = exp(-c x); gamma = 1 for every c > 0."""
    c = _finite(c, "c")
    if not c > 0:
        raise ValueError("c must be positive")

    def rho(x, c=c):
        return np.exp(-c * np.asarray(x))

    def rho1(x, c=c):
        return -c * np.exp(-c * np.asarray(x))

    def rho2(x, c=c):
        return c * c * np.exp(-c * np.asarray(x))

    return IsotropicModel(rho=rho, rho1=rho1, rho2=rho2, monotone_flag=True)


def make_rational(c: float, beta: float) -> IsotropicModel:
    """rho(x) = (1 + c x)^(-beta); gamma = sqrt(beta/(beta+1)) < 1."""
    c, beta = _finite(c, "c"), _finite(beta, "beta")
    if not (c > 0 and beta > 0):
        raise ValueError("c and beta must be positive")

    def rho(x, c=c, beta=beta):
        return (1.0 + c * np.asarray(x)) ** (-beta)

    def rho1(x, c=c, beta=beta):
        return -c * beta * (1.0 + c * np.asarray(x)) ** (-beta - 1.0)

    def rho2(x, c=c, beta=beta):
        return (c * c * beta * (beta + 1.0)
                * (1.0 + c * np.asarray(x)) ** (-beta - 2.0))

    return IsotropicModel(rho=rho, rho1=rho1, rho2=rho2, monotone_flag=True)


def normalized(m: IsotropicModel) -> tuple[IsotropicModel, float]:
    """Rescale to rho'(0) = -1/2; returns (model, alpha) with t -> alpha t.

    alpha = sqrt(2 |rho'(0)|): distances scale by alpha, squared distances by
    alpha^2, and the maximum of the field is unchanged.  gamma is invariant;
    the normalized rho''(0) equals 1/(4 gamma^2).  A |rho'(0)| whose
    alpha^4 overflows raises ValueError: rho2 could not be rescaled.
    """
    if abs(m.rho1_0 + 0.5) <= 1e-14:
        return m, 1.0
    a2 = 2.0 * abs(m.rho1_0)
    if math.isinf(a2 * a2):
        raise ValueError(f"|rho'(0)| = {abs(m.rho1_0)!r} is too large to "
                         "rescale to rho'(0) = -1/2: (2 rho'(0))^2 overflows")
    alpha = math.sqrt(a2)

    def rho(x, f=m.rho, a2=a2):
        return f(np.asarray(x) / a2)

    def rho1(x, f=m.rho1, a2=a2):
        return f(np.asarray(x) / a2) / a2

    def rho2(x, f=m.rho2, a2=a2):
        return f(np.asarray(x) / a2) / (a2 * a2)

    mn = IsotropicModel(rho=rho, rho1=rho1, rho2=rho2,
                        monotone_flag=m.monotone_flag)
    return mn, alpha


# The derivative checks' grid of squared distances: 40 log-spaced points on
# [1e-3, 1] and 98 on (1, 50].
_GRID = np.concatenate([np.geomspace(1e-3, 1.0, 40),
                        np.linspace(1.0, 50.0, 99)[1:]])
_FD_STEP = 1e-5


def _require(passed: bool, name: str, detail: str) -> None:
    if not passed:
        raise ValueError(f"invalid model: {name} fails ({detail})")


def _derive_and_check(m: IsotropicModel) -> None:
    """Set the values that ``m`` derives from its callables, then raise
    ValueError naming the first check of the module docstring it fails."""
    r1, r2 = (float(np.asarray(f(0.0))) for f in (m.rho1, m.rho2))
    # r1 ** 2 would raise OverflowError where r1 * r1 rounds to inf.
    if math.isinf(r1 * r1) or math.isinf(r2):
        raise ValueError("invalid model: rho'(0)^2 and rho''(0) must be "
                         f"finite, got rho'(0) = {r1!r}, rho''(0) = {r2!r}")
    object.__setattr__(m, "rho1_0", r1)
    object.__setattr__(m, "rho2_0", r2)
    # NaN when rho''(0) <= 0, which the checks then reject by name.
    object.__setattr__(m, "gamma",
                       math.sqrt(r1 ** 2 / r2) if r2 > 0 else math.nan)

    r0 = float(np.asarray(m.rho(0.0)))
    pos = r2 - r1 ** 2
    _require(abs(r0 - 1.0) <= 1e-12, "rho(0) = 1", f"rho(0) = {r0!r}")
    _require(r1 < 0, "rho'(0) < 0", f"rho'(0) = {r1!r}")
    _require(r2 > 0, "rho''(0) > 0", f"rho''(0) = {r2!r}")
    _require(pos >= -1e-12, "rho''(0) - rho'(0)^2 >= 0", f"value = {pos!r}")
    _require(0.0 < m.gamma <= 1.0 + 1e-12, "gamma in (0, 1]",
             f"gamma = {m.gamma!r}")
    for name, f, df in (("rho1 = d/dx rho", m.rho, m.rho1),
                        ("rho2 = d/dx rho1", m.rho1, m.rho2)):
        err = _difference_error(f, df)
        i = int(np.argmax(err))
        _require(err[i] <= 1e-6, f"{name} (central difference)",
                 f"worst at x = {_GRID[i]:.6g}: error {err[i]:.3e}")
    if m.monotone_flag:
        r1g = np.asarray(m.rho1(_GRID))
        i = int(np.argmax(np.where(np.isnan(r1g), np.inf, r1g)))
        _require(r1g[i] <= 1e-12, "monotone_flag: rho' <= 0 on the grid",
                 f"worst at x = {_GRID[i]:.6g}: rho' = {r1g[i]:.3e}")


def _difference_error(f, df) -> np.ndarray:
    """Error of df against the central difference D_h of f on the grid,
    relative to max(1, |df|), less 2 |D_2h - D_h| (about six times the
    step's own truncation error), so that a sharp but correct profile
    passes.  A non-finite error reads as inf.  The second difference of rho itself
    would carry ~1e-5 of roundoff at this step and is not used."""
    h = _FD_STEP
    d1, d2 = ((np.asarray(f(_GRID + k * h)) - np.asarray(f(_GRID - k * h)))
              / (2 * k * h) for k in (1, 2))
    a = np.asarray(df(_GRID))
    err = (np.abs(d1 - a) - 2.0 * np.abs(d2 - d1)) / np.maximum(1.0, np.abs(a))
    return np.where(np.isfinite(err), err, np.inf)
