"""Density and tail bounds for the maximum of a smooth isotropic field.

The central object is the density bound

    pbar(x) = phi(x) { g_0 + sum_{j=1}^{d0} [ (|rho'|/pi)^{j/2} Hbar_j(x)
                                              + R_j(x) ] g_j },

valid for unit-variance isotropic fields on polyhedral parameter sets with
face coefficients g_j.  Dropping the correction terms R_j leaves the
"principal" density pE(x), whose integral is the expected Euler
characteristic of the excursion set above x.  Each R_j is nonnegative, so
pbar >= pE pointwise and both are exact in the dominant Gaussian regime.

R_j is a Gaussian average of the special function T_j,

    R_j(x) = (2 rho''/(pi |rho'|))^{j/2} Gamma((j+1)/2)/pi
             * int T_j(v(y)) e^{-y^2/2} dy,
    v(y)   = -((1 - gamma^2)^{1/2} y - gamma x)/sqrt(2),

with gamma = |rho'| / sqrt(rho'') in (0, 1].  At gamma = 1 the integrand is
constant in y and the integral collapses analytically.

T_j itself is evaluated with the Hermite kernel of :mod:`.hermite`
(orthonormal values with exponentially damped intermediates and the
log-space tail-integral table, shared with the GOE density in ``randmat``),
which keeps the large cancellations between its two parts under control far
into the tails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from .geometry import FaceDecomposition, GeometryKind, sphere_surface
from .hermite import (DEFAULT_RULE, SQRT_2PI, HermiteKind, QuadratureRule,
                      _check_int, _eval_all, _finite, _norm_hermites,
                      _tail_coefficients, _tail_sum, gauss_weight_integrate)
from .model import IsotropicModel

MAX_ORDER = 60
MAX_SPHERE_DIM = 20
_CHECK_REL_TOL = 1e-7
_CHECK_SCALE_FLOOR = 1e-12


def _phi(x):
    return np.exp(-np.square(x) / 2.0) / SQRT_2PI


def _coef(m: IsotropicModel, j: int) -> float:
    """The weight (|rho'|/pi)^{j/2} of the j-th Hermite term."""
    return (abs(m.rho1_0) / math.pi) ** (j / 2.0)


def T_series(j: int, v):
    """The correction kernel T_j(v).

    Definition (with physicists' Hermite polynomials and the tail integrals
    I_n of :mod:`.hermite`):

        T_j(v) = [sum_{k=0}^{j-1} H_k(v)^2 / (2^k k!)] e^{-v^2/2}
                 - H_j(v) / (2^j (j-1)!) * I_{j-1}(v).

    Both parts are rewritten in terms of the orthonormalized values
    u_k = c_k H_k(v) and their damped companions ut_k = u_k e^{-v^2/4}:

        T_j(v) = sqrt(pi) sum_{k<j} ut_k^2 - sqrt(pi j/2) u_j c_{j-1} I_{j-1}(v),

    with c_{j-1} I_{j-1} from the log-space table of :mod:`.hermite`, so the
    subtraction loses no precision even deep in the right tail.  Vectorized
    over v.

    Parameters
    ----------
    j : int, 1 <= j <= 60.
    v : float or ndarray.
    """
    j = _check_int(j, 1, MAX_ORDER, "order j")
    varr = np.asarray(v, dtype=float)
    u = _norm_hermites(j, varr)
    ut = u * np.exp(-varr * varr / 4.0)
    scale = math.sqrt(math.pi * j / 2.0)
    out = (math.sqrt(math.pi) * np.sum(ut[:j] ** 2, axis=0)
           - scale * ut[j] * _tail_sum(j - 1, ut))
    B = _tail_coefficients(j - 1)[1]
    if B:
        out = out - scale * B * u[j] * ndtr(-varr)
    return float(out) if np.ndim(v) == 0 else out


def _integrate_rule_checked(f, rule: QuadratureRule, what: str,
                            cross_check: bool) -> float:
    """Weighted integral of a vectorized f against e^{-y^2/2} dy.

    With ``cross_check`` the fixed rule is compared against adaptive
    quadrature; a relative disagreement beyond 1e-7 (on values of
    non-negligible magnitude) raises, per the non-convergence contract, and
    so does a non-finite adaptive value.  A non-finite rule value raises
    ValueError from :func:`.hermite.gauss_weight_integrate`.
    """
    val = gauss_weight_integrate(f, rule)
    if cross_check:
        ref, err = quad(lambda y: f(np.asarray(y)) * math.exp(-y * y / 2.0),
                        -np.inf, np.inf, epsabs=1e-13, epsrel=1e-11,
                        limit=300)
        scale = max(abs(val), abs(ref))
        if not math.isfinite(ref) or (scale > _CHECK_SCALE_FLOOR and
                                      abs(val - ref) > _CHECK_REL_TOL * scale):
            raise RuntimeError(
                f"quadrature non-convergent for {what}: rule gives {val!r}, "
                f"adaptive gives {ref!r} (estimated error {err:.2e}); "
                "increase the rule size")
    return val


def R_correction(m: IsotropicModel, j: int, x: float,
                 rule: QuadratureRule = DEFAULT_RULE,
                 cross_check: bool = True) -> float:
    """The nonnegative correction term R_j(x) of the density bound.

    Parameters
    ----------
    m : IsotropicModel
    j : int, face dimension, 1 <= j <= 60.
    x : float, abscissa.
    rule : QuadratureRule
        Fixed Gauss rule for the y-average (gamma < 1 only).
    cross_check : bool
        Verify the fixed rule against adaptive quadrature (non-convergence
        raises RuntimeError).  Hot loops that have already validated the
        rule at a representative abscissa may switch this off.

    Notes
    -----
    R_j(x) >= 0 always: it measures E|det| minus the signed determinant
    expectation of the conditional Hessian, and |det| >= det pointwise.
    Tiny negative results of order rounding error are possible and are not
    clipped here.
    """
    j = _check_int(j, 1, MAX_ORDER, "order j")
    x = _finite(x)
    pref = ((2.0 * m.rho2_0 / (math.pi * abs(m.rho1_0))) ** (j / 2.0)
            * math.exp(math.lgamma((j + 1) / 2.0)) / math.pi)
    gamma = m.gamma
    if gamma >= 1.0 - 1e-14:
        integral = SQRT_2PI * T_series(j, gamma * x / math.sqrt(2.0))
    else:
        s = math.sqrt(1.0 - gamma * gamma)

        def f(y):
            return T_series(j, -(s * y - gamma * x) / math.sqrt(2.0))

        integral = _integrate_rule_checked(f, rule, f"R_{j}({x})", cross_check)
    return pref * integral


@dataclass(frozen=True)
class BoundBreakdown:
    """Per-face-dimension decomposition of the density bound at one x.

    ``principal_by_j[j]`` is the j-th principal summand (phi(x) times the
    Hermite term times g_j; entry 0 is phi(x) g_0).  ``complementary_by_j``
    aligns with it (entry 0 is identically 0; entry j is
    phi(x) R_j(x) g_j, clipped at 0 against rounding dust).  By
    construction ``pbar == sum(principal) + sum(complementary)`` and
    ``pE == sum(principal)``.
    """

    x: float
    principal_by_j: tuple
    complementary_by_j: tuple
    pbar: float
    pE: float


def _require_polyhedral(geom: FaceDecomposition):
    if geom.kind is GeometryKind.SPHERE_SURFACE:
        raise ValueError("the polyhedral density bound does not apply to the "
                         "sphere surface; use sphere_pbar")


def _principal(m: IsotropicModel, geom: FaceDecomposition, x: float) -> list:
    """The summands phi(x) (|rho'|/pi)^{j/2} Hbar_j(x) g_j, j = 0..d0, of pE."""
    _require_polyhedral(geom)
    phi = float(_phi(x))
    hbar = _eval_all(HermiteKind.MODIFIED, geom.d0, np.float64(x))
    return [phi * geom.g[0]] + [phi * _coef(m, j) * float(hbar[j]) * geom.g[j]
                                for j in range(1, geom.d0 + 1)]


def pE_density(m: IsotropicModel, geom: FaceDecomposition, x: float) -> float:
    """The principal (expected-Euler-characteristic) density at x.

    pE(x) = phi(x) { g_0 + sum_j (|rho'|/pi)^{j/2} Hbar_j(x) g_j }.
    May be negative left of the bulk; integrates to the expected EPC of the
    excursion set.  Equal, bit for bit, to ``pbar_density(m, geom, x).pE``.
    """
    return math.fsum(_principal(m, geom, _finite(x)))


def pbar_density(m: IsotropicModel, geom: FaceDecomposition,
                 x: float) -> BoundBreakdown:
    """Full evaluation of the density bound pbar(x) with its breakdown.

    Uses the default Gauss rule (with adaptive cross-check) for the
    correction terms; for term-level control call R_correction directly.
    """
    x = _finite(x)
    principal = _principal(m, geom, x)
    phi = float(_phi(x))
    complementary = [0.0] + [max(0.0, phi * R_correction(m, j, x) * geom.g[j])
                             for j in range(1, geom.d0 + 1)]
    pE = math.fsum(principal)
    pbar = pE + math.fsum(complementary)
    return BoundBreakdown(x=x, principal_by_j=tuple(principal),
                          complementary_by_j=tuple(complementary),
                          pbar=pbar, pE=pE)


@dataclass(frozen=True)
class TailBound:
    """Upper tail bounds at level u; iterates as (pbar_tail, pE_tail).

    ``complementary`` is the numerically integrated correction mass on
    [u, cutoff]; ``truncation`` is the Gaussian-envelope bound on the mass
    beyond the cutoff, already folded into ``pbar_tail`` so the latter stays
    a true upper bound.
    """

    pbar_tail: float
    pE_tail: float
    complementary: float
    truncation: float

    def __iter__(self):
        return iter((self.pbar_tail, self.pE_tail))


def tail_bound(m: IsotropicModel, geom: FaceDecomposition,
               u: float) -> TailBound:
    """P{max > u} bounds: integral of pbar (and pE) from u to infinity.

    The principal part has the closed form

        pE_tail(u) = g_0 (1 - Phi(u))
                     + phi(u) sum_{j>=1} (|rho'|/pi)^{j/2} Hbar_{j-1}(u) g_j

    via the Hermite tail identity int_u^inf Hbar_j phi = Hbar_{j-1}(u) phi(u).
    The correction mass is integrated adaptively on [u, cutoff] with
    cutoff = max(u + 40, 41); the remainder is bounded by
    (1 - Phi(cutoff)) * sum_j g_j R_j(cutoff) (R_j is decreasing out there)
    and added to pbar_tail.
    """
    _require_polyhedral(geom)
    u = _finite(u, "u")
    hbar = _eval_all(HermiteKind.MODIFIED, max(geom.d0 - 1, 0), np.float64(u))
    phi_u = float(_phi(u))
    pE_tail = geom.g[0] * float(ndtr(-u))
    for j in range(1, geom.d0 + 1):
        pE_tail += _coef(m, j) * float(hbar[j - 1]) * geom.g[j] * phi_u

    if geom.d0 == 0:
        return TailBound(pbar_tail=pE_tail, pE_tail=pE_tail,
                         complementary=0.0, truncation=0.0)

    active = [j for j in range(1, geom.d0 + 1) if geom.g[j] > 0.0]
    # Validate the fixed rule once at the left end, then integrate with the
    # per-point cross-check off.
    for j in active:
        R_correction(m, j, max(u, 0.0))

    def correction(x):
        return sum(geom.g[j] * R_correction(m, j, x, cross_check=False)
                   for j in active)

    cutoff = max(u + 40.0, 41.0)
    comp, comp_err = quad(lambda x: float(_phi(x)) * correction(x), u, cutoff,
                          epsabs=1e-13, epsrel=1e-11, limit=300)
    if not (comp_err <= max(1e-10, 1e-7 * abs(comp))):
        raise RuntimeError(
            f"quadrature non-convergent for the complementary tail at u={u}: "
            f"value {comp!r}, error estimate {comp_err:.2e}")
    trunc = float(ndtr(-cutoff)) * correction(cutoff)
    return TailBound(pbar_tail=pE_tail + comp + trunc, pE_tail=pE_tail,
                     complementary=comp, truncation=trunc)


def sphere_pbar(m: IsotropicModel, d: int, x: float) -> float:
    """Density bound on the sphere S^{d-1} (one curved (d-1)-stratum).

    pbar(x) = phi(x) |S^{d-1}|
              * int [ (|rho'|/pi)^{(d-1)/2} Hbar_{d-1}(xt)
                      + R_{d-1}(xt) ] phi(y) dy,
    with the shifted abscissa xt = x + (2|rho'|)^{-1/2} y and the surface
    measure |S^{d-1}| = 2 pi^{d/2}/Gamma(d/2) from
    :func:`.geometry.sphere_surface`.  The y-average uses the default Gauss
    rule, cross-checked against adaptive quadrature.

    Parameters
    ----------
    m : IsotropicModel
    d : int, ambient dimension, 2 <= d <= 20.
    x : float, finite.
    """
    d = _check_int(d, 2, MAX_SPHERE_DIM, "sphere dimension")
    x = _finite(x)
    j = d - 1
    area = sphere_surface(d).g[j]
    coef = _coef(m, j)
    shift = (2.0 * abs(m.rho1_0)) ** -0.5

    def f(y):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        xt = x + shift * arr
        hb = _eval_all(HermiteKind.MODIFIED, j, xt)[j]
        rr = np.array([R_correction(m, j, t, cross_check=False) for t in xt])
        out = coef * hb + rr
        # adaptive cross-check calls with scalars; return a scalar back
        return out if np.ndim(y) else float(out[0])

    val = _integrate_rule_checked(f, DEFAULT_RULE,
                                  f"sphere_pbar(d={d}, x={x})",
                                  cross_check=True) / SQRT_2PI
    return float(_phi(x)) * area * val


def complementary_decay_rate(m: IsotropicModel) -> float:
    """Extra Gaussian decay rate of R_j relative to phi: gamma^2/(3-gamma^2).

    The complementary terms behave like x^{2j-4} e^{-rate * x^2 / 2} phi(x)
    for large x, so pbar/pE -> 1 in the deep tail.  Equals 1/2 at gamma = 1
    and 1/(12 rho'' - 1) on models normalized to rho' = -1/2.
    """
    g2 = m.gamma * m.gamma
    return g2 / (3.0 - g2)
