"""Isotropic covariance profiles rho(||s-t||^2) with certified derivatives.

A model carries the profile rho (a function of the *squared* distance), its
first two derivatives, their values at 0, and the shape constant
``gamma = |rho'(0)| / sqrt(rho''(0)) in (0, 1]``.  Validity means:

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
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class IsotropicModel:
    """Covariance profile of an isotropic field, E X(s)X(t) = rho(||s-t||^2).

    Models are validated once, at construction: an instance that violates
    the structural checks of :func:`require_valid` cannot be built, so no
    downstream operation checks again.
    """

    rho: Callable
    rho1: Callable
    rho2: Callable
    rho1_0: float
    rho2_0: float
    gamma: float
    monotone_flag: bool
    family: str = "custom"
    params: tuple = ()

    def __post_init__(self):
        require_valid(self)


def make_squared_exponential(c: float) -> IsotropicModel:
    """rho(x) = exp(-c x); gamma = 1 for every c > 0."""
    c = float(c)
    if not (c > 0) or not math.isfinite(c):
        raise ValueError("c must be a positive finite real")

    def rho(x, c=c):
        return np.exp(-c * np.asarray(x))

    def rho1(x, c=c):
        return -c * np.exp(-c * np.asarray(x))

    def rho2(x, c=c):
        return c * c * np.exp(-c * np.asarray(x))

    return IsotropicModel(rho=rho, rho1=rho1, rho2=rho2,
                          rho1_0=-c, rho2_0=c * c, gamma=1.0,
                          monotone_flag=True,
                          family="squared_exponential", params=(("c", c),))


def make_rational(c: float, beta: float) -> IsotropicModel:
    """rho(x) = (1 + c x)^(-beta); gamma = sqrt(beta/(beta+1)) < 1."""
    c = float(c)
    beta = float(beta)
    if not (c > 0 and beta > 0) or not (math.isfinite(c) and math.isfinite(beta)):
        raise ValueError("c and beta must be positive finite reals")

    def rho(x, c=c, beta=beta):
        return (1.0 + c * np.asarray(x)) ** (-beta)

    def rho1(x, c=c, beta=beta):
        return -c * beta * (1.0 + c * np.asarray(x)) ** (-beta - 1.0)

    def rho2(x, c=c, beta=beta):
        return (c * c * beta * (beta + 1.0)
                * (1.0 + c * np.asarray(x)) ** (-beta - 2.0))

    return IsotropicModel(rho=rho, rho1=rho1, rho2=rho2,
                          rho1_0=-c * beta, rho2_0=c * c * beta * (beta + 1.0),
                          gamma=math.sqrt(beta / (beta + 1.0)),
                          monotone_flag=True,
                          family="rational", params=(("c", c), ("beta", beta)))


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
                        rho1_0=m.rho1_0 / a2, rho2_0=m.rho2_0 / (a2 * a2),
                        gamma=m.gamma, monotone_flag=m.monotone_flag,
                        family=m.family,
                        params=m.params + (("rescale", alpha),))
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
    grid = np.asarray(grid, dtype=float)
    checks = _structural_checks(m)

    for name, f, at0 in (("rho1", m.rho1, m.rho1_0),
                         ("rho2", m.rho2, m.rho2_0)):
        v = float(np.asarray(f(0.0)))
        checks.append(CheckResult(f"{name}(0) matches {name}_0",
                                  abs(v - at0) <= 1e-12 * max(1.0, abs(at0)),
                                  f"{name}(0) = {v!r} vs {at0!r}"))
    gamma_ref = abs(m.rho1_0) / math.sqrt(m.rho2_0)
    checks.append(CheckResult("gamma consistent with derivatives",
                              abs(m.gamma - gamma_ref) <= 1e-12,
                              f"gamma = {m.gamma!r} vs |rho'|/sqrt(rho'') = {gamma_ref!r}"))

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
