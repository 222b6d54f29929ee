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
constant in y and the integral collapses analytically.  Otherwise the
y-average is in closed form too, by Mehler's bilinear sum and the Appell
shift of H_j (:func:`_smoothed_T_rows`): within 4e-13 relative of mpmath
references for j >= 2 at |x| <= 20 (``R_correction`` gives the rest).
``sphere_pbar`` averages R_j over a Gaussian shift of x, which only widens
this y-average; it and the tail below sum on :func:`_panel_edges` panels.

The tail correction int_u^inf phi R_j needs no nested quadrature.  With
s = sqrt(1 - gamma^2), the rotation a = gamma x - s y, b = s x + gamma y is
orthonormal, so phi(x) phi(y) = phi(a) phi(b), and the half-plane x >= u is
b >= (u - gamma a)/s.  Integrating b out leaves one integral per order,

    int_u^inf phi(x) R_j(x) dx
        = pref_j sqrt(2 pi) int phi(a) T_j(a/sqrt 2) Phi((gamma a - u)/s) da,

exact on all of [u, inf), with pref_j the prefactor of R_j above and
Phi((gamma a - u)/s) the step 1{a >= u} at gamma = 1.

The tail correction and ``sphere_pbar`` pass one gate, relative at every
scale since these integrals fall to 1e-40 and below in the tails: a gap
above 1e-7 of the larger magnitude between the value and the same sum on
halved panels raises RuntimeError.  R_j and the closed-form pE terms and pE
tail pass it against themselves: a test of finiteness.

T_j itself is evaluated with the Hermite kernel of :mod:`.hermite`
(orthonormal values with exponentially damped intermediates and the
log-space tail-integral table, shared with the GOE density in ``randmat``),
which keeps the large cancellations between its two parts under control far
into the tails.  One private kernel, :func:`_T_rows`, evaluates any set of
orders at an array of points from one recurrence, one damping exp and one
normal CDF, and ``T_series`` is its one-order view, so the formula exists
once.

A sweep runs in one pass.  The block kernels :func:`_R_values`,
:func:`_pbar_block` and :func:`_tail_block` take a list of abscissae.  R_j
is elementwise in them; the tail puts every order and every level's
Legendre nodes through one :func:`_T_rows` call per rule.  Only the dot
products with the weights, the exactly rounded sums and the gates run per
row, so each row is, bit for bit, what its abscissa gives alone.  A kernel
raises its first error like any function, and does the model's own work,
which fails every row alike, before the per-abscissa work.
:func:`.hermite._by_blocks` turns any such kernel into a sweep in blocks of
``hermite._BLOCK``, with one result or error per row: a block that raises
is run again one abscissa at a time.  ``R_correction``, ``pE_density``,
``pbar_density`` and ``tail_bound`` call the kernels on their one abscissa,
so their errors are raised where they happen.  The Legendre rule is built
on first use.  The normal CDF is the in-package Phi of :mod:`.hermite`;
this module loads no SciPy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import FaceDecomposition, GeometryKind, sphere_surface
from .hermite import (SQRT_2PI, HermiteKind, _by_blocks, _check_int,
                      _eval_all, _finite, _norm_hermites, _Phi, _sorted_unique,
                      _tail_coefficients, _tail_sum)
from .model import IsotropicModel

MAX_ORDER = 60
MAX_SPHERE_DIM = 20
_CHECK_REL_TOL = 1e-7
_TINY = float(np.finfo(float).tiny)


def _phi(x):
    return np.exp(-np.square(x) / 2.0) / SQRT_2PI


def _in_floats(power):
    """``power(m, j)``, a power of the model's constants, with ValueError
    where it overflows (OverflowError or inf) instead of a raw error or a
    silent inf downstream."""
    @functools.wraps(power)
    def checked(m: IsotropicModel, j: int) -> float:
        try:
            value = power(m, j)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(
                f"the order-{j} term of the bound overflows: rho'(0) = "
                f"{m.rho1_0!r} and rho''(0) = {m.rho2_0!r} are too large")
        return value
    return checked


@_in_floats
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

    with c_{j-1} I_{j-1} from the log-space table of :mod:`.hermite`.  The
    two parts cancel to about 1/v^2 of their size at large v: against
    60-digit mpmath at v in [-30, 40], where T_j is a normal float, T_j is
    within 6.2e-12 relative for j >= 2, and T_1 within 8.4e-13 for v <= 10,
    1.3e-11 for v <= 20 and 2e-10 beyond.  The one-order view of
    :func:`_T_rows`, vectorized over v.

    Parameters
    ----------
    j : int, 1 <= j <= 60.
    v : float or ndarray.
    """
    j = _check_int(j, 1, MAX_ORDER, "order j")
    out = _T_rows((j,), np.asarray(_finite(v, "v")))[0]
    _checked(out, out, f"T_{j}({float(v)})" if np.ndim(v) == 0 else f"T_{j}")
    return float(out) if np.ndim(v) == 0 else out


def _T_rows(orders, v: np.ndarray) -> np.ndarray:
    """T_j(v) for each j of ``orders`` (in 1..60), stacked on a new first axis.

    One orthonormal recurrence up to max(orders), one damping exp and one
    Phi serve every order; row j depends only on (j, v), so it is the same,
    bit for bit, whichever other orders come along.
    """
    top = max(orders)
    u = _norm_hermites(top, v)
    ut = u * np.exp(-v * v / 4.0)
    # Row j-1 of squares is sum_{k<j} ut_k^2, added in order as np.cumsum
    # would, but one contiguous row at a time.
    squares = np.square(ut[:top])
    for k in range(1, top):
        squares[k] += squares[k - 1]
    upper = _Phi(-v) if any(j % 2 for j in orders) else None  # 1 - Phi(v)
    rows = np.empty((len(orders),) + v.shape)
    for i, j in enumerate(orders):
        scale = math.sqrt(math.pi * j / 2.0)
        rows[i] = (math.sqrt(math.pi) * squares[j - 1]
                   - scale * ut[j] * _tail_sum(j - 1, ut))
        B = _tail_coefficients(j - 1)[1]
        if B:       # j odd
            rows[i] -= scale * B * u[j] * upper
    return rows


def _passes(v, c):
    """Elementwise: v and c finite, and |v - c| within the gate below."""
    tol = np.maximum(_TINY, _CHECK_REL_TOL * np.maximum(np.abs(v), np.abs(c)))
    return np.isfinite(v) & np.isfinite(c) & (np.abs(v - c) <= tol)


def _checked(value, check, what: str):
    """value, after the one gate of this module; elementwise.

    A non-finite value raises ValueError; a non-finite check, or a gap
    |value - check| above max(_TINY, 1e-7 max(|value|, |check|)), RuntimeError.
    A quadrature passes its cross-check; a value with none passes itself,
    which tests finiteness alone.
    """
    v, c = np.asarray(value, dtype=float), np.asarray(check, dtype=float)
    bad, exc, why = ~np.isfinite(v), ValueError, "value not finite"
    if not bad.any():
        bad = ~_passes(v, c)
        exc, why = RuntimeError, "quadrature non-convergent"
    if bad.any():
        i = int(np.argmax(bad))
        at = f" at flat index {i}" if v.ndim else ""
        raise exc(f"{why} for {what}{at}: value {float(v.flat[i])!r}, "
                  f"check {float(c.flat[i])!r}")
    return value


def _gate(value, check, what):
    """The gate of :func:`_checked` on each column i of (value, check), the
    last axis, under the name what(i).

    One vectorized pass finds the failing columns, and the first of them
    alone goes through :func:`_checked`, so the error raised is the one
    that column alone raises.
    """
    with np.errstate(all="ignore"):
        ok = _passes(value, check)
    bad = np.flatnonzero(~ok.reshape(-1, ok.shape[-1]).all(axis=0))
    if bad.size:
        i = bad[0]
        _checked(value[..., i], check[..., i], what(i))


@_in_floats
def _pref(m: IsotropicModel, j: int) -> float:
    """The prefactor (2 rho''/(pi |rho'|))^{j/2} Gamma((j+1)/2)/pi of R_j."""
    return ((2.0 * m.rho2_0 / (math.pi * abs(m.rho1_0))) ** (j / 2.0)
            * math.exp(math.lgamma((j + 1) / 2.0)) / math.pi)


def _gamma_s(m: IsotropicModel) -> tuple[float, float]:
    """(gamma, s) with s = sqrt(1 - gamma^2), taken as 0 within 1e-14 of 1."""
    gamma = m.gamma
    if gamma >= 1.0 - 1e-14:
        return gamma, 0.0
    return gamma, math.sqrt(1.0 - gamma * gamma)


def R_correction(m: IsotropicModel, j: int, x: float,
                 cross_check: bool = True) -> float:
    """The nonnegative correction term R_j(x) of the density bound.

    Parameters
    ----------
    m : IsotropicModel
    j : int, face dimension, 1 <= j <= 60.
    x : float, abscissa.
    cross_check : bool
        Ignored, and kept for existing callers: R_j has no quadrature.

    Notes
    -----
    R_j(x) >= 0 always: it measures E|det| minus the signed determinant
    expectation of the conditional Hessian, and |det| >= det pointwise.
    Tiny negative results of order rounding error are possible and are not
    clipped here.  A non-finite value raises ValueError.  Against mpmath
    references on models with gamma in [0.41, 0.99995], the relative error
    for j >= 2 is at most 4e-13 at x in [-20, 20], and 3.7e-13 for j <= 3
    out to x = 84.5; beyond x = 20 it has the loss of T_j itself (see
    ``T_series``), 2.1e-12 at j = 40, x = 35, gamma = 0.99995.  For j = 1
    it is 4.2e-13 for x <= 10, 6.3e-12 at x = 20 and 1e-10 at x = 40 and
    84.5.  The one-order, one-abscissa view of :func:`_R_values`.
    """
    j = _check_int(j, 1, MAX_ORDER, "order j")
    return float(_R_values(m, (j,), [_finite(x)])[0, 0])


def _R_values(m: IsotropicModel, orders, xs: list) -> np.ndarray:
    """R_j(x) for each j of ``orders`` (in 1..60) and each finite x of
    ``xs``: an array of shape (len(orders), len(xs)).

    Every step is elementwise in x, so each value is, bit for bit, that of
    x alone.  Orders are checked for finiteness in turn, each under its own
    name, and the first failure raises.
    """
    gamma, s = _gamma_s(m)
    _pref(m, orders[0])     # an overflowing model fails before the T pass
    x = np.array(xs, dtype=float)
    integrals = SQRT_2PI * (_smoothed_T_rows(orders, gamma, x) if s > 0.0
                            else _T_rows(orders, gamma * x / math.sqrt(2.0)))
    for k, j in enumerate(orders):
        pref = _pref(m, j)
        _gate(integrals[k], integrals[k], lambda i: f"R_{j}({xs[i]})")
        integrals[k] *= pref
    return integrals


def _smoothed_T_rows(orders, gamma: float, x: np.ndarray) -> np.ndarray:
    """E T_j(a + bY), Y ~ N(0, 1), a = gamma x/sqrt 2, b^2 = (1 - gamma^2)/2
    > 0, for each j of ``orders`` (in 1..60), stacked on a new first axis.

    With sigma^2 = 1 + b^2 and z = a/sigma, Mehler's bilinear sum averages
    the products in T_j's Gaussian part (see :func:`_T_rows`),

        sigma E[e^{-v^2/2} u_m(v) u_n(v)] = sum_{r <= min(m, n)} kappa^{m+n}
            lambda^r sqrt(C(m, r) C(n, r)) ut_{m-r}(z') ut_{n-r}(z'),

    with kappa^2 = (1 - b^2)/(1 + b^2), lambda = 2b^2/(1 - b^2),
    z' = z/sqrt(1 - b^2) and ut_k(z') = u_k(z') e^{-z^2/4}.  The Appell
    shift of H_j averages its Psi part, Psi = 1 - Phi:

        E[u_j(v) Psi(v)] = gamma^j u_j(x/sqrt 2) Psi(z) + phi(z) sum_{k=1}^j
            sqrt(C(j, k)/k) (-sqrt 2 b^2/sigma)^k gamma^{j-k} u_{j-k}(x/sqrt 2)
            he_{k-1}(z),

    with he_k = He_k/sqrt(k!) = pi^{1/4} u_k(z/sqrt 2).  Elementwise in x.
    """
    b2 = (1.0 - gamma * gamma) / 2.0
    sigma = math.sqrt(1.0 + b2)
    kappa, lam = math.sqrt((1.0 - b2) / (1.0 + b2)), 2.0 * b2 / (1.0 - b2)
    z = gamma * x / (math.sqrt(2.0) * sigma)
    top = max(orders)
    ut = _norm_hermites(top, z / math.sqrt(1.0 - b2)) * np.exp(-z * z / 4.0)

    def mehler(m, n):
        return sum(kappa ** (m + n) * lam ** r
                   * math.sqrt(math.comb(m, r) * math.comb(n, r))
                   * ut[m - r] * ut[n - r] for r in range(min(m, n) + 1))

    if any(j % 2 for j in orders):
        u = _norm_hermites(top, x / math.sqrt(2.0))
        he = _norm_hermites(top - 1, z / math.sqrt(2.0)) * math.pi ** 0.25
        phi, upper, c = _phi(z), _Phi(-z), -math.sqrt(2.0) * b2 / sigma
    rows = np.empty((len(orders),) + x.shape)
    for i, j in enumerate(orders):
        scale = math.sqrt(math.pi * j / 2.0)
        A, B = _tail_coefficients(j - 1)
        rows[i] = (math.sqrt(math.pi) * sum(mehler(k, k) for k in range(j))
                   - scale * sum(a * mehler(j, j - 2 - 2 * k)
                                 for k, a in enumerate(A))) / sigma
        if B:       # j odd
            shift = sum(math.sqrt(math.comb(j, k) / k) * c ** k
                        * gamma ** (j - k) * u[j - k] * he[k - 1]
                        for k in range(1, j + 1))
            rows[i] -= scale * B * (gamma ** j * u[j] * upper + phi * shift)
    return rows


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


def _principal_rows(m: IsotropicModel, geom: FaceDecomposition,
                    xs: list) -> np.ndarray:
    """The summands phi(x) (|rho'|/pi)^{j/2} Hbar_j(x) g_j, j = 0..d0, of pE
    at each x of ``xs``: shape (d0 + 1, len(xs)), gated column by column."""
    _require_polyhedral(geom)
    coefs = [_coef(m, j) for j in range(1, geom.d0 + 1)]
    x = np.array(xs, dtype=float)
    phi = _phi(x)
    terms = _eval_all(HermiteKind.MODIFIED, geom.d0, x)
    terms[0] = phi * geom.g[0]
    for j, coef in enumerate(coefs, 1):
        terms[j] = phi * coef * terms[j] * geom.g[j]
    _gate(terms, terms, lambda i: f"the pE terms at x={xs[i]!r}")
    return terms


def pE_density(m: IsotropicModel, geom: FaceDecomposition, x: float) -> float:
    """The principal (expected-Euler-characteristic) density at x.

    pE(x) = phi(x) { g_0 + sum_j (|rho'|/pi)^{j/2} Hbar_j(x) g_j }.
    May be negative left of the bulk; integrates to the expected EPC of the
    excursion set.  Equal, bit for bit, to ``pbar_density(m, geom, x).pE``.
    """
    return math.fsum(_principal_rows(m, geom, [_finite(x)])[:, 0].tolist())


def pbar_density(m: IsotropicModel, geom: FaceDecomposition,
                 x: float) -> BoundBreakdown:
    """Full evaluation of the density bound pbar(x) with its breakdown.

    The correction terms are the closed forms of :func:`R_correction`, with
    its measured error (at most 4.2e-13 relative for x in [-20, 10]),
    clipped at 0 against rounding dust.  The one-abscissa view of
    :func:`_pbar_block`.
    """
    return _pbar_block(m, geom, [_finite(x)])[0]


def _pbar_block(m: IsotropicModel, geom: FaceDecomposition, xs: list) -> list:
    """:func:`pbar_density` at each x of ``xs``."""
    _finite(xs, "x")
    terms = _principal_rows(m, geom, xs)
    orders = range(1, geom.d0 + 1)
    comp = np.empty((0, len(xs)))
    if orders:
        R = _R_values(m, orders, xs)
        comp = _phi(np.array(xs)) * R * np.array(geom.g[1:])[:, None]
        comp = np.where(comp > 0.0, comp, 0.0)   # max(0, .), as for NaN
    return [_breakdown(x, terms[:, i], comp[:, i]) for i, x in enumerate(xs)]


_pbar_rows = _by_blocks(_pbar_block)


def _breakdown(x: float, principal: np.ndarray,
               complementary: np.ndarray) -> BoundBreakdown:
    principal = principal.tolist()
    complementary = [0.0] + complementary.tolist()
    pE = math.fsum(principal)
    return BoundBreakdown(x=x, principal_by_j=tuple(principal),
                          complementary_by_j=tuple(complementary),
                          pbar=pE + math.fsum(complementary), pE=pE)


@dataclass(frozen=True)
class TailBound:
    """Upper tail bounds at level u; iterates as (pbar_tail, pE_tail).

    ``complementary`` is the correction mass int_u^inf phi sum_j g_j R_j,
    integrated exactly on [u, inf) (see :func:`tail_bound`) and included in
    ``pbar_tail``.
    """

    pbar_tail: float
    pE_tail: float
    complementary: float

    def __iter__(self):
        return iter((self.pbar_tail, self.pE_tail))


_TAIL_PANELS = 24


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights on [-1, 1], ascending.

    The nodes are the roots of P_16, found by Newton's method on the
    Legendre recurrence from the guesses cos(pi (4k - 1)/(4n + 2)) (Hale &
    Townsend 2013); the weights are 2/((1 - x^2) P_16'(x)^2).  No ``numpy.polynomial`` import,
    which costs about 5 ms.  Cached, and built on first use.
    """
    n = 16
    x = np.cos(math.pi * (4 * np.arange(1, n // 2 + 1) - 1) / (4 * n + 2))
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.all(np.abs(step) <= 1e-15 * np.abs(x)):
            break
    w = 2.0 / ((1.0 - x * x) * _legendre(n, x)[1] ** 2)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) for |x| < 1 from the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
    return p, n * (x * p - prev) / (x * x - 1.0)


def _composite_rule(left: np.ndarray,
                    right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 16-point Gauss-Legendre on every panel
    [left_i, right_i], panel after panel."""
    t, w = _legendre_rule()
    half = (right - left)[:, None] / 2.0
    mid = (left[:, None] + right[:, None]) / 2.0
    return (mid + half * t).ravel(), (half * w).ravel()


def _panel_edges(lo: float, hi: float, at: float, width: float) -> np.ndarray:
    """Edges of 24 equal panels on [lo, hi] and, if a feature of size
    ``width`` at ``at`` is narrower than a panel, at at +- width 2^k below a
    panel; k is counted from binary exponents, which never overflow."""
    edges = np.linspace(lo, hi, _TAIL_PANELS + 1)
    panel = edges[1] - edges[0]
    if 0.0 < width < panel:
        (pm, pe), (wm, we) = math.frexp(panel), math.frexp(width)
        steps = np.ldexp(width, np.arange(
            math.ceil(math.log2(pm / wm) + (pe - we))))
        local = at + np.concatenate([-steps, [0.0], steps])
        inside = local[(local > lo) & (local < hi)]
        edges = _sorted_unique(np.concatenate([edges, inside]))
    return edges


def _tail_edges(u: float, gamma: float, s: float, j_max: int) -> np.ndarray:
    """Panel edges of the rotated tail integral of :func:`tail_bound`.

    The integrand phi(a) T_j(a/sqrt 2) Phi((gamma a - u)/s) is at most
    phi(a) |a|^j in size, which peaks at |a| = sqrt(j), and for u > 0 its
    mass sits at gamma u with width s.  The window [-pad, max(0, u) + pad]
    with pad = 12 + sqrt(j_max) therefore holds it to far below rounding.
    At s = 0 the factor is the step 1{a >= u}, so the window starts at u.
    For s > 0 it is a smoothed step of width s/gamma at u/gamma, which
    :func:`_panel_edges` resolves.
    """
    pad = 12.0 + math.sqrt(j_max)
    lo, hi = (-pad if s > 0.0 else max(u, -pad)), max(0.0, u) + pad
    return _panel_edges(lo, hi, u / gamma, s / gamma)


def tail_bound(m: IsotropicModel, geom: FaceDecomposition,
               u: float) -> TailBound:
    """P{max > u} bounds: integral of pbar (and pE) from u to infinity.

    The principal part has the closed form

        pE_tail(u) = g_0 (1 - Phi(u))
                     + phi(u) sum_{j>=1} (|rho'|/pi)^{j/2} Hbar_{j-1}(u) g_j

    via the Hermite tail identity int_u^inf Hbar_j phi = Hbar_{j-1}(u) phi(u).
    The correction mass is the rotated 1-D integral per order of the module
    docstring, exact on all of [u, inf); all active orders come from one
    :func:`_T_rows` call per rule.  It is summed with composite
    16-point Gauss-Legendre rules (see :func:`_tail_edges`) on 24 panels and
    on each panel halved; the halved value is returned after the gate of
    :func:`_checked` against the unhalved one.  The one-level view of
    :func:`_tail_block`.
    """
    return _tail_block(m, geom, [_finite(u, "u")])[0]


def _tail_block(m: IsotropicModel, geom: FaceDecomposition, us: list) -> list:
    """:func:`tail_bound` at each level of ``us``.  Each rule's nodes, for
    every level, go through one :func:`_T_rows` and one Phi pass; each
    level's slice is dotted with its weights on its own, so its mass is,
    bit for bit, that of the level alone."""
    u = _finite(us, "u")
    _require_polyhedral(geom)
    coefs = [_coef(m, j) for j in range(1, geom.d0 + 1)]
    active = [j for j in range(1, geom.d0 + 1) if geom.g[j] > 0.0]
    weights = [geom.g[j] * _pref(m, j) for j in active]
    hbar = _eval_all(HermiteKind.MODIFIED, max(geom.d0 - 1, 0), u)
    phi_u = _phi(u)
    pE_tail = geom.g[0] * _Phi(-u)
    for j, coef in enumerate(coefs, 1):
        pE_tail = pE_tail + coef * hbar[j - 1] * geom.g[j] * phi_u
    gamma, s = _gamma_s(m)

    def masses(sets) -> np.ndarray:
        """Each level's correction mass on its panels of ``sets``."""
        a, w = _composite_rule(np.concatenate([e[:-1] for e in sets]),
                               np.concatenate([e[1:] for e in sets]))
        sizes = [(len(e) - 1) * len(_legendre_rule()[0]) for e in sets]
        w = w * _phi(a)
        if s > 0.0:
            w = w * _Phi((gamma * a - np.repeat(u, sizes)) / s)
        T = _T_rows(active, a / math.sqrt(2.0))
        ends = np.cumsum([0] + sizes)
        return np.array([
            SQRT_2PI * math.fsum(c * float(T_j[lo:hi] @ w[lo:hi])
                                 for c, T_j in zip(weights, T))
            for lo, hi in zip(ends[:-1], ends[1:])])

    comp = np.zeros(len(us))
    if active:
        coarse = [_tail_edges(level, gamma, s, active[-1]) for level in us]
        rough = masses(coarse)
        comp = masses([np.sort(np.concatenate([e, (e[:-1] + e[1:]) / 2.0]))
                       for e in coarse])
        _gate(comp, rough, lambda k: f"the complementary tail at u={us[k]}")
    _gate(pE_tail, pE_tail, lambda k: f"the pE tail at u={us[k]}")
    return [TailBound(pbar_tail=p + c, pE_tail=p, complementary=c)
            for p, c in zip(pE_tail.tolist(), comp.tolist())]


_tail_rows = _by_blocks(_tail_block)


def sphere_pbar(m: IsotropicModel, d: int, x: float) -> float:
    """Density bound on the sphere S^{d-1} (one curved (d-1)-stratum).

    pbar(x) = phi(x) |S^{d-1}|
              * int [ (|rho'|/pi)^{(d-1)/2} Hbar_{d-1}(xt)
                      + R_{d-1}(xt) ] phi(y) dy,
    with the shifted abscissa xt = x + a y, a = (2|rho'|)^{-1/2}, and the
    surface measure |S^{d-1}| = 2 pi^{d/2}/Gamma(d/2) from
    :func:`.geometry.sphere_surface`.  R_{d-1} is itself a Gaussian
    average of T_{d-1}((gamma x - s y)/sqrt 2), and two independent
    Gaussians add: its shift average is that average with s replaced by
    sigma = hypot(gamma a, s).  So the bound is one 1-D y-average, summed
    on :func:`_panel_edges` panels, each halved, that resolve phi at y = 0
    and T_j's step, one unit of its argument wide at y = gamma x/sigma; it
    is gated against the unhalved panels.

    Parameters
    ----------
    m : IsotropicModel
    d : int, ambient dimension, 2 <= d <= 20.
    x : float, finite.
    """
    d = _check_int(d, 2, MAX_SPHERE_DIM, "sphere dimension")
    x, j = _finite(x), d - 1
    area = sphere_surface(d).g[j]
    coef, pref = _coef(m, j), SQRT_2PI * _pref(m, j)
    (gamma, s), shift = _gamma_s(m), (2.0 * abs(m.rho1_0)) ** -0.5
    sigma = math.hypot(gamma * shift, s)
    # |T_j(v)| phi(y), v = (gamma x - sigma y)/sqrt 2, is below |v|^j phi(y)
    # for v < 0 and falls like e^{-v^2/2} phi(y), which peaks at y = peak,
    # for v > 0; the Hermite part is phi(y) times a polynomial of degree j.
    pad, peak = 12.0 + math.sqrt(j), sigma * gamma * x / (2.0 + sigma ** 2)
    lo, hi = min(0.0, peak) - pad, max(0.0, peak) + pad
    coarse = _sorted_unique(np.concatenate([
        _panel_edges(lo, hi, 0.0, 1.0),
        _panel_edges(lo, hi, gamma * x / sigma, math.sqrt(2.0) / sigma)]))

    def average(edges) -> float:
        y, w = _composite_rule(edges[:-1], edges[1:])
        T = _T_rows((j,), (gamma * x - sigma * y) / math.sqrt(2.0))[0]
        hbar = _eval_all(HermiteKind.MODIFIED, j, x + shift * y)[j]
        return (coef * hbar + pref * T) @ (w * _phi(y))

    fine = np.sort(np.concatenate([coarse, (coarse[:-1] + coarse[1:]) / 2.0]))
    val = _checked(average(fine), average(coarse),
                   f"sphere_pbar(d={d}, x={x})")
    return float(_phi(x) * area * val)


def complementary_decay_rate(m: IsotropicModel) -> float:
    """Extra Gaussian decay rate of R_j relative to phi: gamma^2/(3-gamma^2).

    The complementary terms behave like x^{2j-4} e^{-rate * x^2 / 2} phi(x)
    for large x, so pbar/pE -> 1 in the deep tail.  Equals 1/2 at gamma = 1
    and 1/(12 rho'' - 1) on models normalized to rho' = -1/2.
    """
    g2 = m.gamma * m.gamma
    return g2 / (3.0 - g2)
