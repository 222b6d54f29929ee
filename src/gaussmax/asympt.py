"""Second-order error exponents for the density-of-the-maximum bounds.

The gap between the upper bound pbar and the true density of the maximum is
itself Gaussian-small: its deviation rate is 1 + 1/(sigma_t^2 + lam_bar
kappa_t^2), optimized over the parameter set.  This module evaluates the
ingredients for isotropic models — the variance functional sigma_t^2, the
curvature functional kappa_t for the computed special cases (convex sets:
0; annulus inner boundary; separable rectangles: 0) — and assembles the
rates.

Conventions
-----------
All formulas assume the identity-speed normalization rho'(0) = -1/2
(Var(grad X) = I); models are rescaled internally, and user-facing lengths
(domain diameter, annulus radii, sup maximizers) stay in the *original*
parameter units of the model handed in.

Suprema over continuous ranges run on dense grids, log-spaced toward
singular endpoints, with local refinement; 0/0 endpoint limits are injected
as analytic candidates (never by dividing at tiny arguments), and no ratio
is evaluated at a chord below _GRID_LO = 1e-3, where it is not resolved.
Ratios with quartic-order cancellation are evaluated in extended precision
where the model's callables support it (the built-in families do).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import _check_int, _finite, _sorted_unique
from .model import IsotropicModel, normalized


@dataclass(frozen=True)
class ExponentComponents:
    """Ingredients of the rate 1 + 1/(sigma2 + lambda_bar * kappa^2)."""

    sigma2: float
    lambda_bar: float
    kappa: float


@dataclass(frozen=True)
class ExponentReport:
    """A second-order rate with its ingredients.

    ``exact`` is True when the rate is an ordinary limit (convex domains,
    monotone covariance) and False when it is only a liminf lower bound.
    ``detail`` carries maximizer locations and intermediate suprema.
    """

    rate: float
    components: ExponentComponents
    exact: bool
    detail: dict = field(default_factory=dict)


def exponent_general(sigma2: float, lambda_bar: float,
                     kappa: float) -> ExponentReport:
    """Assemble the generic rate 1 + 1/(sigma2 + lambda_bar * kappa^2).

    A zero denominator yields rate = +inf (perfect second-order agreement);
    an infinite one the trivial rate 1.  Inputs are finite and nonnegative,
    but kappa may be +inf (whiskers); it is inert when lambda_bar = 0.
    """
    c = ExponentComponents(sigma2=_finite(sigma2, "sigma2", 0.0),
                           lambda_bar=_finite(lambda_bar, "lambda_bar", 0.0),
                           kappa=_finite(kappa, "kappa", 0.0, math.inf))
    try:
        kappa2 = c.kappa ** 2
    except OverflowError:               # a finite kappa above 1.34e154
        kappa2 = math.inf
    den = c.sigma2 + (c.lambda_bar * kappa2 if c.lambda_bar else 0.0)
    rate = math.inf if den == 0.0 else 1.0 + 1.0 / den
    return ExponentReport(rate=rate, components=c, exact=False)


_SUP_POINTS, _SUP_ROUNDS = 10000, 3     # _grid_sup's grid and refinements


def _grid_sup(f, lo: float, hi: float, candidates=()):
    """Supremum of a vectorized scalar function on [lo, hi], 0 < lo.

    Dense grid (half log-spaced from lo, half linear), then _SUP_ROUNDS
    rounds of local 2001-point refinement around the running argmax.
    ``candidates`` are (value, argument) pairs injected after the search
    (analytic endpoint limits).  Ties prefer the smaller argument.  With
    lo >= hi only the candidates count, and without any it is (-inf, hi).
    """
    best_v, best_z = -math.inf, hi
    if lo < hi:
        n = _SUP_POINTS
        zs = _sorted_unique(np.concatenate([np.geomspace(lo, hi, n // 2),
                                            np.linspace(lo, hi, n - n // 2)]))
        vals = np.asarray(f(zs), dtype=float)
        i = int(np.argmax(vals))
        best_v, best_z = float(vals[i]), float(zs[i])
    for _ in range(_SUP_ROUNDS if lo < hi else 0):
        a = float(zs[max(i - 1, 0)])
        b = float(zs[min(i + 1, len(zs) - 1)])
        zs = np.linspace(a, b, 2001)
        vals = np.asarray(f(zs), dtype=float)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_z = float(vals[i]), float(zs[i])
    for v, z in candidates:
        if v > best_v or (v == best_v and z < best_z):
            best_v, best_z = float(v), float(z)
    return best_v, best_z


def _sigma2_ratio(mn: IsotropicModel):
    """The variance ratio (1 - rho^2 - 4 rho'^2 z^2) / (1 - rho)^2.

    Returns a vectorized callable of the normalized-unit distance z.  The
    numerator and denominator both vanish to fourth order at z = 0, so the
    evaluation runs in extended precision; below z = _GRID_LO = 1e-3 even
    that is not enough and callers rely on the analytic z -> 0 candidate
    12 rho''(0) - 1 instead of grid points.
    """

    def ratio(z):
        z = np.asarray(z, dtype=np.longdouble)
        x = z * z
        r = np.asarray(mn.rho(x), dtype=np.longdouble)
        r1 = np.asarray(mn.rho1(x), dtype=np.longdouble)
        num = 1.0 - r * r - 4.0 * r1 * r1 * x
        den = np.square(1.0 - r)
        return (num / den).astype(float)

    return ratio


def _chord_ratio(mn: IsotropicModel, scale: float):
    """Vectorized z -> scale * 2 rho'(z^2) z / (1 - rho(z^2)) over chords z."""

    def ratio(z):
        z = np.asarray(z, dtype=float)
        x = z * z
        return (scale * 2.0 * np.asarray(mn.rho1(x), float) * z
                / (1.0 - np.asarray(mn.rho(x), float)))

    return ratio


_GRID_LO = 1e-3     # the shortest chord evaluated (normalized units)


def _distance_setup(m: IsotropicModel, Delta: float):
    """Delta -> (normalized model, alpha, grid range, z -> 0 variance limit)."""
    Delta = _finite(Delta, "Delta")
    if not (Delta > 0):
        raise ValueError("Delta must be positive")
    mn, alpha = normalized(m)
    return mn, alpha, (_GRID_LO, alpha * Delta), 12.0 * mn.rho2_0 - 1.0


def sigma2_isotropic(m: IsotropicModel, Delta: float, *,
                     return_argmax: bool = False):
    """sup of the variance functional sigma_t^2 over pair distances (0, Delta].

    Parameters
    ----------
    m : IsotropicModel (rescaled internally to rho'(0) = -1/2).
    Delta : float
        Diameter of the parameter set, in the model's original units.
    return_argmax : bool
        Also return the maximizing distance (original units; 0.0 means the
        z -> 0 limit candidate 12 rho''(0) - 1 wins).

    For covariances decreasing in distance (``monotone_flag``) the supremum
    provably equals the z -> 0 limit.  The constructor checks the flag, a
    bool, against rho1 on squared distances up to 50; a grid value here
    exceeding the limit by more than 1e-6 relative still raises, flagging a
    model that rises beyond them.
    """
    mn, alpha, (lo, hi), limit = _distance_setup(m, Delta)
    val, z = _grid_sup(_sigma2_ratio(mn), lo, hi, candidates=[(limit, 0.0)])
    if m.monotone_flag and val > limit + 1e-6 * max(1.0, abs(limit)):
        raise RuntimeError(
            f"monotone covariance but the variance ratio exceeds its z->0 "
            f"limit {limit} at z={z / alpha} (value {val}); the model's "
            "monotone_flag looks wrong")
    if return_argmax:
        return val, z / alpha
    return val


def exponent_convex(m: IsotropicModel) -> ExponentReport:
    """Exact second-order rate on convex sets: 1 + 1/(12 rho''(0) - 1).

    Requires a covariance decreasing in distance (kappa_t = 0 and the
    variance supremum collapses to its z -> 0 limit), which ``monotone_flag``
    declares; the flag is a bool, checked against rho1 when the model is
    constructed.  With full-dimensional convex S the liminf is an ordinary
    limit, hence ``exact=True``.  The rate minus 1 equals the complementary
    term's extra Gaussian decay gamma^2/(3 - gamma^2).
    """
    if not m.monotone_flag:
        raise ValueError("exponent_convex needs a covariance decreasing in "
                         "distance (monotone_flag); use Z_delta_exponent or "
                         "exponent_general instead")
    mn, _ = normalized(m)
    s2 = 12.0 * mn.rho2_0 - 1.0
    return ExponentReport(rate=1.0 + 1.0 / s2,
                          components=ExponentComponents(sigma2=s2,
                                                        lambda_bar=1.0,
                                                        kappa=0.0),
                          exact=True,
                          detail={"sigma2_limit": s2})


def Z_delta_exponent(m: IsotropicModel, Delta: float) -> ExponentReport:
    """Lower bound rate 1 + 1/Z_Delta without assuming monotone covariance.

    Z_Delta adds to the variance supremum the squared positive part of the
    curvature-type ratio sup_z 2 rho'(z^2) z / (1 - rho(z^2)) (the distance
    bound on kappa_t; it is nonpositive for monotone models, so their
    kappa contribution vanishes and Z_Delta -> 12 rho''(0) - 1 as
    Delta -> 0).  ``exact=False``: this is a liminf bound.
    """
    mn, alpha, (lo, hi), limit = _distance_setup(m, Delta)
    s2, z_s2 = _grid_sup(_sigma2_ratio(mn), lo, hi, candidates=[(limit, 0.0)])
    # The curvature ratio tends to -inf as z -> 0 (like -2/z).
    ks, z_k = _grid_sup(_chord_ratio(mn, 1.0), lo, hi,
                        candidates=[(-math.inf, 0.0)])
    kappa = max(ks, 0.0)
    z_big = s2 + kappa * kappa
    return ExponentReport(rate=1.0 + 1.0 / z_big,
                          components=ExponentComponents(sigma2=s2,
                                                        lambda_bar=1.0,
                                                        kappa=kappa),
                          exact=False,
                          detail={"Z_delta": z_big,
                                  "sigma2_argmax": z_s2 / alpha,
                                  "kappa_signed_sup": ks,
                                  "kappa_argmax": z_k / alpha})


def kappa_annulus(m: IsotropicModel, a: float, b: float, *,
                  return_argmax: bool = False):
    """Curvature functional kappa of the annulus {a <= |t| <= b} in the plane.

    Only the inner boundary contributes (kappa_t = 0 strictly inside and on
    the outer circle).  In normalized units with z the chord length and
    theta the angular separation on the inner circle,

        kappa = max( sup_{z in [2a, a+b]} -2 rho'(z^2) z / (1 - rho(z^2)),
                     sup_{theta in (0, pi]} -2 a rho'(2a^2 h) h
                                            / (1 - rho(2a^2 h)) ),   h = 1 - cos(theta),

    where the theta -> 0 limit of the second ratio is 1/a (both numerator
    and denominator vanish linearly in h), injected as an analytic
    candidate.  The returned kappa is in normalized (identity-speed) units,
    ready for ``exponent_general(sigma2, 1.0, kappa)``.

    Parameters
    ----------
    m : IsotropicModel.
    a, b : float, inner and outer radii in original units, 0 < a < b.
    return_argmax : bool
        Also return ("segment", distance) or ("circle", theta) locating the
        winning supremum (distance in original units; theta in radians).
    """
    a, b = _finite(a, "a"), _finite(b, "b")
    if not (0.0 < a < b):
        raise ValueError("need radii 0 < a < b")
    mn, alpha = normalized(m)
    an, bn = alpha * a, alpha * b

    # Below the chord _GRID_LO (an sqrt(2 h) on the circle) both ratios are
    # at most about 1/an, the h -> 0 candidate.
    v1, z1 = _grid_sup(_chord_ratio(mn, -1.0), max(2.0 * an, _GRID_LO),
                       an + bn)

    def circ(h):
        h = np.asarray(h, dtype=float)
        x = 2.0 * an * an * h
        return (-2.0 * an * np.asarray(mn.rho1(x), float) * h
                / (1.0 - np.asarray(mn.rho(x), float)))

    h_lo = max(1e-6, 0.5 * min(_GRID_LO / an, 2.0) ** 2)
    v2, h2 = _grid_sup(circ, h_lo, 2.0, candidates=[(1.0 / an, 0.0)])
    if v1 >= v2:
        val, where = v1, ("segment", z1 / alpha)
    else:
        val, where = v2, ("circle", math.acos(max(-1.0, 1.0 - h2)))
    val = _finite(val, f"kappa_annulus(a={a!r}, b={b!r})")
    if return_argmax:
        return val, where
    return val


def _profiles(gammas) -> list:
    """The (Gamma_i, Gamma_i') pairs, each checked for Gamma_i(0) = 1."""
    gammas = list(gammas)
    if not gammas:
        raise ValueError("need at least one covariance profile")
    for i, (g, _) in enumerate(gammas):
        if abs(float(g(0.0)) - 1.0) > 1e-12:
            raise ValueError(f"profile {i} violates Gamma(0) = 1")
    return gammas


def _separable_ratio(G, G1):
    """(1 - prod G_i^2 - sum_k G_k'^2 prod_{i != k} G_i^2) / (1 - prod G_i)^2.

    G and G1 hold the profile values and derivatives per axis, as floats or
    as mutually broadcastable arrays.
    """
    prod = math.prod(G)
    cross = sum(math.prod([g1 ** 2] + [g ** 2 for i, g in enumerate(G)
                                       if i != k])
                for k, g1 in enumerate(G1))
    return (1.0 - prod * prod - cross) / (1.0 - prod) ** 2


def sigma2_separable(gammas, s, t) -> float:
    """Variance functional for a separable product covariance at (s, t).

    r(s, t) = prod_i Gamma_i(s_i - t_i) with each profile Gamma_i(0) = 1,
    decreasing and positive.  ``gammas`` is a sequence of (Gamma_i,
    Gamma_i') callable pairs; the pairs' derivative entries are the plain
    one-dimensional derivatives.

        sigma2 = (1 - prod Gamma_i^2
                    - sum_k Gamma_k'^2 prod_{i != k} Gamma_i^2)
                 / (1 - prod Gamma_i)^2.
    """
    gammas = _profiles(gammas)
    d = len(gammas)
    s, t = np.ravel(_finite(s, "s")), np.ravel(_finite(t, "t"))
    if s.shape != (d,) or t.shape != (d,):
        raise ValueError("s and t must have one coordinate per profile")
    if np.array_equal(s, t):
        raise ValueError("s and t must differ")
    G = [float(g(h)) for (g, _), h in zip(gammas, s - t)]
    G1 = [float(g1(h)) for (_, g1), h in zip(gammas, s - t)]
    if math.prod(G) >= 1.0:
        raise ValueError("profiles must satisfy Gamma < 1 away from 0")
    return _separable_ratio(G, G1)


def sigma2_separable_max(gammas, box, n_per_axis: int = 41):
    """Sweep sigma2_separable over a rectangle: returns (sup, argmax h).

    The ratio depends on (s, t) only through the coordinate differences
    h = s - t, so the sweep runs over the difference box
    prod_i [-(hi_i - lo_i), hi_i - lo_i] on an n_per_axis^d grid (h = 0
    excluded).
    """
    gammas = _profiles(gammas)
    box = [np.ravel(_finite(side, "every box side")) for side in box]
    if len(box) != len(gammas) or any(len(side) != 2 for side in box):
        raise ValueError("box must have one (lo, hi) pair per profile")
    if any(hi <= lo for lo, hi in box):
        raise ValueError("box sides must have positive length")
    n = _check_int(n_per_axis, 1, math.inf, "n_per_axis")
    axes = [np.linspace(-(hi - lo), hi - lo, n) for lo, hi in box]
    G = np.ix_(*[np.asarray(g(ax), dtype=float)
                 for (g, _), ax in zip(gammas, axes)])
    G1 = np.ix_(*[np.asarray(g1(ax), dtype=float)
                  for (_, g1), ax in zip(gammas, axes)])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = _separable_ratio(G, G1)
    hmesh = np.meshgrid(*axes, indexing="ij")
    near_zero = np.all([np.abs(hm) < 1e-12 for hm in hmesh], axis=0)
    ratio[near_zero | ~np.isfinite(ratio)] = -np.inf
    idx = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    return float(ratio[idx]), tuple(float(hm[idx]) for hm in hmesh)


def pm_equiv_1d(v2k: float, vpp: float, k: int, x: float) -> float:
    """Laplace-method tail equivalent for a 1-D field with a variance peak.

    For a field on an interval whose variance v(t) has an interior maximum
    at t0 with first nonzero even derivative v^(2k)(t0) = v2k < 0 (and
    second derivative vpp <= 0), the density of the maximum satisfies

        p_M(x) ~ ((1 - vpp/2) / (k C_k^{1/k})) E|xi|^{1/(2k) - 1}
                 x^{1 - 1/k} phi(x),    x -> +inf,

    with C_k = -v2k/(2k)! + (1/4) vpp^2 1_{k=2} and xi standard normal
    (E|xi|^p = 2^{p/2} Gamma((p+1)/2)/sqrt(pi)).
    """
    v2k, vpp, x = _finite(v2k, "v2k"), _finite(vpp, "vpp"), _finite(x, "x")
    k = _check_int(k, 1, 85, "k")         # (2k)! stays a finite float
    if not v2k < 0:
        raise ValueError("v2k = v^(2k)(t0) must be negative at a maximum")
    if vpp > 0:
        raise ValueError("vpp = v''(t0) must be nonpositive at a maximum")
    if x < 0:
        raise ValueError("x must be nonnegative")
    ck = -v2k / math.factorial(2 * k) + (0.25 * vpp * vpp if k == 2 else 0.0)
    if ck <= 0:
        raise ValueError("the Laplace constant C_k must be positive")
    p = 1.0 / (2 * k) - 1.0
    abs_moment = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    phi_x = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    return ((1.0 - vpp / 2.0) / (k * ck ** (1.0 / k))
            * abs_moment * x ** (1.0 - 1.0 / k) * phi_x)
