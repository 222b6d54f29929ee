"""Isotropic covariance profiles rho(||s-t||^2) with certified derivatives.

A model carries the profile rho (a function of the *squared* distance) and
its first two derivatives.  Their values at 0 and the shape constant
``gamma = |rho'(0)| / sqrt(rho''(0)) in (0, 1]`` are derived from those
callables at construction, never passed in.  Validity means:

* rho(0) = 1 (unit variance),
* rho'(0) < 0 (non-degenerate gradient),
* rho''(0) - rho'(0)^2 >= 0 (a positivity constraint the conditional-Hessian
  law requires; both built-in families satisfy it).

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

    The constructor takes the callables and ``monotone_flag`` only.  It sets
    ``rho1_0 = rho1(0)``, ``rho2_0 = rho2(0)`` and
    ``gamma = sqrt(rho1_0^2 / rho2_0)`` once, then validates: an instance
    that violates the structural checks of :func:`require_valid` cannot be
    built, so no downstream operation checks again.
    """

    rho: Callable
    rho1: Callable
    rho2: Callable
    monotone_flag: bool
    rho1_0: float = field(init=False)
    rho2_0: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        r1, r2 = (float(np.asarray(f(0.0))) for f in (self.rho1, self.rho2))
        # r1 ** 2 would raise OverflowError where r1 * r1 rounds to inf.
        if math.isinf(r1 * r1) or math.isinf(r2):
            raise ValueError("invalid model: rho'(0)^2 and rho''(0) must be "
                             f"finite, got rho'(0) = {r1!r}, rho''(0) = {r2!r}")
        object.__setattr__(self, "rho1_0", r1)
        object.__setattr__(self, "rho2_0", r2)
        # NaN when rho''(0) <= 0, which the checks then reject by name.
        object.__setattr__(self, "gamma",
                           math.sqrt(r1 ** 2 / r2) if r2 > 0 else math.nan)
        require_valid(self)


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


def require_valid(m: IsotropicModel) -> IsotropicModel:
    """Cheap structural validity check, run when a model is constructed.

    Runs the checks of :func:`_structural_checks` in order and raises
    ValueError naming the first that fails; returns the model for chaining.
    The full grid-based report is :func:`validate_model`.
    """
    for c in _structural_checks(m):
        if not c.passed:
            raise ValueError(f"invalid model: {c.name} fails ({c.detail})")
    return m


def normalized(m: IsotropicModel) -> tuple[IsotropicModel, float]:
    """Rescale to rho'(0) = -1/2; returns (model, alpha) with t -> alpha t.

    alpha = sqrt(2 |rho'(0)|): distances scale by alpha, squared distances by
    alpha^2, and the maximum of the field is unchanged.  gamma is invariant;
    the normalized rho''(0) equals 1/(4 gamma^2).
    """
    if abs(m.rho1_0 + 0.5) <= 1e-14:
        return m, 1.0
    a2 = 2.0 * abs(m.rho1_0)
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _structural_checks(m: IsotropicModel) -> list:
    """The checks every model must pass to be constructed."""
    r0 = float(np.asarray(m.rho(0.0)))
    pos = m.rho2_0 - m.rho1_0 ** 2
    return [
        CheckResult("rho(0) = 1", abs(r0 - 1.0) <= 1e-12, f"rho(0) = {r0!r}"),
        CheckResult("rho'(0) < 0", m.rho1_0 < 0, f"rho'(0) = {m.rho1_0!r}"),
        CheckResult("rho''(0) > 0", m.rho2_0 > 0, f"rho''(0) = {m.rho2_0!r}"),
        CheckResult("rho''(0) - rho'(0)^2 >= 0", pos >= -1e-12,
                    f"value = {pos!r}"),
        CheckResult("gamma in (0, 1]", 0.0 < m.gamma <= 1.0 + 1e-12,
                    f"gamma = {m.gamma!r}"),
    ]


@dataclass(frozen=True)
class ModelValidation:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


_FD_STEP = 1e-5


def validate_model(m: IsotropicModel, grid=None) -> ModelValidation:
    """Full validation report: normalization, signs, derivative consistency.

    rho1 is checked against a central difference of rho and rho2 against a
    central difference of rho1, both with step 1e-5 and tolerance 1e-6
    (relative to max(1, |value|)).  The second difference of rho itself would
    carry ~1e-5 of roundoff at this step and is not used.
    """
    if grid is None:
        grid = np.concatenate([np.geomspace(1e-3, 1.0, 40),
                               np.linspace(1.0, 50.0, 99)[1:]])
    grid = np.asarray(_finite(grid, "grid"))
    checks = _structural_checks(m)

    h = _FD_STEP
    for name, f, df in (("rho1 matches d/dx rho", m.rho, m.rho1),
                        ("rho2 matches d/dx rho1", m.rho1, m.rho2)):
        fd = (np.asarray(f(grid + h)) - np.asarray(f(grid - h))) / (2 * h)
        a = np.asarray(df(grid))
        err = np.abs(fd - a) / np.maximum(1.0, np.abs(a))
        i = int(np.argmax(err))
        checks.append(CheckResult(f"{name} (central difference)",
                                  bool(err[i] <= 1e-6),
                                  f"worst at x = {grid[i]!r}: error {err[i]:.3e}"))

    if m.monotone_flag:
        r1g = np.asarray(m.rho1(grid))
        iw = int(np.argmax(r1g))
        checks.append(CheckResult("monotone_flag: rho' <= 0 on the grid",
                                  bool(r1g[iw] <= 1e-12),
                                  f"worst at x = {grid[iw]!r}: rho' = {r1g[iw]:.3e}"))

    return ModelValidation(tuple(checks))
