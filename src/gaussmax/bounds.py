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
y-average is in closed form too (:func:`_smoothed_T_rows`): in he_k =
He_k/sqrt(k!), T_j is a Gaussian times products he_m he_n plus he_j times
a normal tail, and Stein's identity gives their Gaussian moments by one
recurrence, :func:`_stein_moments`.  It is within 5e-13 relative of mpmath
references for j >= 2 at |x| <= 20 (``R_correction`` gives the rest).
``sphere_pbar`` averages R_j over a Gaussian shift of x, which only widens
this y-average: the same closed form, at any width, with no quadrature.

The tail correction int_u^inf phi R_j needs no nested quadrature.  With
s = sqrt(1 - gamma^2), the rotation a = gamma x - s y, b = s x + gamma y is
orthonormal, so phi(x) phi(y) = phi(a) phi(b), and the half-plane x >= u is
b >= (u - gamma a)/s.  Integrating b out leaves one integral per order,

    int_u^inf phi(x) R_j(x) dx
        = pref_j sqrt(2 pi) int phi(a) T_j(a/sqrt 2) Phi((gamma a - u)/s) da,

exact on all of [u, inf), with pref_j the prefactor of R_j above and
Phi((gamma a - u)/s) the step 1{a >= u} at gamma = 1.  That integral is in
closed form too (:func:`_tail_integrals`), from the same moments against
the smoothed step.  So the package runs no quadrature.

Every result passes one check, :func:`_check_finite`: a non-finite value
raises ValueError naming it.

T_j itself is evaluated with the Hermite kernel of :mod:`.hermite`
(orthonormal values with exponentially damped intermediates and the
log-space tail-integral table, shared with the GOE density in ``randmat``),
which keeps the large cancellations between its two parts under control far
into the tails.  One private kernel, :func:`_T_rows`, evaluates any set of
orders at an array of points from one recurrence, one damping exp and one
normal CDF, and ``T_series`` is its one-order view, so the formula exists
once.

A sweep runs in one pass.  The block kernels :func:`_R_values`,
:func:`_pbar_block` and :func:`_tail_block` take a list of abscissae.
Every step is elementwise in them but the exactly rounded sums and the
checks, which run per row, so each row is, bit for bit, what its abscissa
gives alone.  A kernel raises its first error like any function, and does
the model's own work, which fails every row alike, before the per-abscissa
work.  :func:`.hermite._by_blocks` turns any such kernel into a sweep in
blocks of ``hermite._BLOCK``, with one result or error per row: a block
that raises is run again one abscissa at a time.  ``R_correction``,
``pE_density``, ``pbar_density`` and ``tail_bound`` call the kernels on
their one abscissa, so their errors are raised where they happen.  The
normal CDF is the in-package Phi of :mod:`.hermite`; this module loads no
SciPy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import FaceDecomposition, GeometryKind, sphere_surface
from .hermite import (SQRT_2PI, HermiteKind, _by_blocks, _check_int,
                      _erfcx, _eval_all, _finite, _norm_hermites, _Phi,
                      _tail_coefficients, _tail_sum)
from .model import IsotropicModel

MAX_ORDER = 60
MAX_SPHERE_DIM = 20


def _phi(x):
    """The standard normal density; |x| is clipped at 40, past which it is
    0.0 in doubles, so that squaring a huge x does not overflow."""
    return np.exp(-np.square(np.clip(x, -40.0, 40.0)) / 2.0) / SQRT_2PI


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
    _check_finite(out, f"T_{j}({float(v)})" if np.ndim(v) == 0 else f"T_{j}")
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


def _check_finite(value, what):
    """value, if every entry is finite, else ValueError naming ``what``:
    the one check of this module's results.  A callable ``what`` names
    column i of the last axis what(i), and the first failing column is
    reported as it alone would be, with its first non-finite entry's flat
    index."""
    v = np.asarray(value, dtype=float)
    bad = ~np.isfinite(v)
    if bad.any():
        if callable(what):
            i = int(np.argmax(bad.reshape(-1, v.shape[-1]).any(axis=0)))
            v, bad, what = v[..., i], bad[..., i], what(i)
        k = int(np.argmax(bad))
        at = f" at flat index {k}" if v.ndim else ""
        raise ValueError(f"value not finite for {what}{at}: "
                         f"value {float(v.flat[k])!r}")
    return value


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
    for j >= 2 is at most 5e-13 at x in [-20, 20], and 4.6e-13 for j <= 3
    out to x = 84.5; beyond x = 20 it has the loss of T_j itself (see
    ``T_series``), 1.8e-12 at j = 60, x = 35, gamma = 0.99995.  For j = 1
    it is 4e-13 for x <= 10, 6.3e-12 at x = 20 and 1e-10 at x = 40 and
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
    a = gamma * np.array(xs, dtype=float) / math.sqrt(2.0)
    integrals = SQRT_2PI * (_smoothed_T_rows(orders, a, s * s / 2.0) if s > 0.0
                            else _T_rows(orders, a))
    for k, j in enumerate(orders):
        pref = _pref(m, j)
        _check_finite(integrals[k], lambda i: f"R_{j}({xs[i]})")
        integrals[k] *= pref
    return integrals


def _smoothed_T_rows(orders, a: np.ndarray, b2: float) -> np.ndarray:
    """E T_j(a + bY), Y ~ N(0, 1), for each j of ``orders`` (in 1..60), each
    a of the 1-d array ``a`` and any b^2 >= 0, stacked on a new first axis.
    Elementwise in a.

    In t = sqrt 2 (a + bY) ~ N(sqrt 2 a, 2b^2), T_j is the he_k form of
    :func:`_tail_integrals`.  With sigma^2 = 1 + b^2 and z = a/sigma,
    e^{-t^2/4} times the law of t is e^{-z^2/2}/sigma times N(sqrt 2
    a/sigma^2, 2b^2/sigma^2), so the Gaussian part G takes the moments of
    :func:`_stein_moments` under that law.  They are started at
    e^{-z^2/4}/sigma and scaled by e^{-z^2/4} after, so that a value whose
    Gaussian factor alone underflows is kept (R_60(100) = 7.7e-280 on
    rational(0.8, 1)).  The Psi part is the column of S = Psi(t/sqrt 2)
    under the law of t, started at E S = Psi(z), with S' = -e^{-t^2/4}/(2
    sqrt pi) and so the source -G_{m,0}/(2 sqrt pi).  At b = 0 it is within
    8.7e-14 relative of :func:`_T_rows` for |a| <= 10 and 6.8e-13 for
    |a| <= 20, j = 1..60.  Where 2b^2 > 1 and a is large, the column's
    forward recurrence loses digits: at b^2 = 3.67 and x = 20 its error
    grows about fourfold per order, and the Psi part is 0.1 % of the
    value, so E T_11 is 1.6e-12 off there and E T_19 2.3e-11 (1.7e-8 at
    b^2 = 8.7, where the Hermite part keeps ``sphere_pbar`` within 1.5e-15).
    """
    sigma2 = 1.0 + b2
    sigma = math.sqrt(sigma2)
    z, top = a / sigma, max(orders)
    half = np.exp(-z * z / 4.0)
    G = _stein_moments(top, math.sqrt(2.0) * (a / sigma2), 2.0 * b2 / sigma2,
                       half / sigma) * half
    psi = None
    if any(j % 2 for j in orders):
        F = _stein_column(top, math.sqrt(2.0) * a, 2.0 * b2, _Phi(-z),
                          -G[:, 0] / (2.0 * math.sqrt(math.pi)))
        psi = np.sqrt(np.arange(1.0, top + 1.0))[:, None] * F[1:]
    return _T_moments(orders, G, psi)


def _T_moments(orders, G: np.ndarray, psi) -> np.ndarray:
    """The average of T_j(t/sqrt 2) for each j of ``orders``, stacked on a
    new first axis, from G_{m,n}, the average of e^{-t^2/4} he_m(t)
    he_n(t), and psi[j - 1], sqrt(j) times that of he_j(t) Psi(t/sqrt 2)
    (read for odd j only): the he_k form of T_j in :func:`_tail_integrals`.
    """
    rows = np.empty((len(orders),) + G.shape[2:])
    for i, j in enumerate(orders):
        A, B = _tail_coefficients(j - 1)
        rows[i] = (sum(G[k, k] for k in range(j))
                   - math.sqrt(j / 2.0) * sum(a_k * G[j, j - 2 - 2 * k]
                                              for k, a_k in enumerate(A)))
        if B:       # j odd
            rows[i] -= (math.sqrt(math.pi / 2.0) * B * math.pi ** -0.25
                        * psi[j - 1])
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
    at each x of ``xs``: shape (d0 + 1, len(xs)), checked column by column."""
    _require_polyhedral(geom)
    coefs = [_coef(m, j) for j in range(1, geom.d0 + 1)]
    x = np.array(xs, dtype=float)
    phi = _phi(x)
    terms = _eval_all(HermiteKind.MODIFIED, geom.d0, x)
    terms[0] = phi * geom.g[0]
    for j, coef in enumerate(coefs, 1):
        terms[j] = phi * coef * terms[j] * geom.g[j]
    _check_finite(terms, lambda i: f"the pE terms at x={xs[i]!r}")
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
    its measured error (at most 5e-13 relative for x in [-20, 10]),
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
    in closed form on all of [u, inf) (see :func:`tail_bound`) and
    included in ``pbar_tail``.
    """

    pbar_tail: float
    pE_tail: float
    complementary: float

    def __iter__(self):
        return iter((self.pbar_tail, self.pE_tail))


def _stein_column(top: int, mean, var: float, start,
                  source=0.0) -> np.ndarray:
    """Column 0 of :func:`_stein_moments`, M_{m,0} = E[he_m(X) S(X)], m =
    0..top, from the column D_{m,0} of its source alone."""
    M = np.zeros((top + 1,) + np.broadcast(mean, start).shape)
    source = np.broadcast_to(source, M.shape)
    M[0] = start
    for m in range(top):
        M[m + 1] = (mean * M[m] - (1.0 - var) * math.sqrt(m) * M[m - 1]
                    + var * source[m]) / math.sqrt(m + 1)
    return M


def _stein_moments(top: int, mean, var: float, start,
                   source=0.0) -> np.ndarray:
    """M_{m,n} = E[he_m(X) he_n(X) S(X)], X ~ N(mean, var), m, n = 0..top,
    from M_{0,0} = start and source D_{m,n} = E[he_m he_n S'(X)] (0 for
    S = 1), elementwise in mean and start, with he_k = He_k/sqrt(k!).
    Stein's identity E[(X - mean) f(X)] = var E f'(X) at f = he_m he_n S
    gives, run down column 0 (:func:`_stein_column`; row 0 by symmetry) and
    then row by row,

        sqrt(m+1) M_{m+1,n} = mean M_{m,n} - (1 - var) sqrt(m) M_{m-1,n}
                              + var (sqrt(n) M_{m,n-1} + D_{m,n}).

    Any var >= 0 serves, 1 and above too.  Both indices are kept: folding
    he_m he_n into single he_k loses digits from j of about 13 on in the
    tail below (1.2e-10 at j = 16).
    """
    shape = np.broadcast(mean, start).shape
    M = np.zeros((top + 1, top + 1) + shape)
    source = np.broadcast_to(source, M.shape)
    root = np.sqrt(np.arange(top + 1.0)).reshape((-1,) + (1,) * len(shape))
    M[:, 0] = M[0] = _stein_column(top, mean, var, start, source[:, 0])
    for m in range(top):
        M[m + 1, 1:] = (mean * M[m, 1:] - (1.0 - var) * root[m] * M[m - 1, 1:]
                        + var * (root[1:] * M[m, :-1] + source[m, 1:])
                        ) / root[m + 1]
    return M


def _tail_integrals(orders, u: np.ndarray, gamma: float,
                    s: float) -> np.ndarray:
    """C_j(u) = int phi(a) T_j(a/sqrt 2) S(a) da, S(a) = Phi((gamma a - u)/s)
    (1{a >= u/gamma} at s = 0), for each j of ``orders`` (in 1..60) at each
    level of the 1-d array u, stacked on a new first axis; elementwise in u.

    With he_k = pi^{1/4} u_k(a/sqrt 2) and (A, B) = ``_tail_coefficients``
    (j - 1), T_j of :func:`_T_rows` is, with Psi = 1 - Phi,

        T_j(a/sqrt 2) = e^{-a^2/4} [sum_{k<j} he_k^2 - sqrt(j/2) sum_k A_k
                        he_j he_{j-2-2k}] - sqrt(pi j/2) B pi^{-1/4} he_j(a)
                        Psi(a/sqrt 2).

    phi(a) e^{-a^2/4} is sqrt(2/3) times the N(0, 2/3) density and S' the
    N(u/gamma, s^2/gamma^2) one, so the first part takes G = sqrt(2/3) M,
    M the moments of :func:`_stein_moments` at N(0, 2/3) with M_{0,0} =
    Psi(u/theta), theta^2 = 1 - gamma^2/3, and the source (gamma/theta)
    phi(u/theta) E[he_m he_n] under N(2 gamma u/(3 theta^2), 2 s^2/(3
    theta^2)).  For odd j, integrating
    phi he_j = -(phi he_{j-1})'/sqrt(j) by parts leaves

        int phi he_j Psi(a/sqrt 2) S da = [gamma phi(u) F_{j-1}
                                           - G_{j-1,0}/(2 sqrt pi)]/sqrt(j),

    F_n = E[he_n(Y) Psi(Y/sqrt 2)], Y ~ N(gamma u, s^2): the column
    (:func:`_stein_column`) of S = Psi(./sqrt 2), whose source is a Gaussian of z_2 = gamma u/r times
    E[he_m he_n] under N(2 gamma u/r^2, 2 s^2/r^2), r^2 = 3 - gamma^2.

    C_1 = sqrt(3/2) Psi(z_1) - sqrt(pi) gamma phi(u) Psi(z_2), z_1 =
    u/theta, cancels to about 1/z_2^2 of its terms.  From z_2 = sqrt 2 on
    it is e^{-z_1^2/2}/2 [sqrt(3/2) erfcx(z_1/sqrt 2) - gamma erfcx(z_2/
    sqrt 2)/sqrt 2], as u^2 + z_2^2 = z_1^2, so the rounding of z_1 and
    z_2 is not magnified.  Past |u| = 40, phi(u) and phi(z_1) are 0 and
    Psi(z_1) is 0 or 1, so C_j is constant; u is clipped there, which
    keeps the Hermite values finite.
    """
    u = np.clip(u, -40.0, 40.0)
    top = max(orders)
    theta2, r = 1.0 - gamma * gamma / 3.0, math.sqrt(3.0 - gamma * gamma)
    z1, z2 = u / math.sqrt(theta2), gamma * u / r
    shifted = _stein_moments(top, 2.0 * gamma * u / (3.0 * theta2),
                             2.0 * s * s / (3.0 * theta2), 1.0)
    G = math.sqrt(2.0 / 3.0) * _stein_moments(
        top, 0.0, 2.0 / 3.0, _Phi(-z1), gamma * _phi(z1) * shifted
        / math.sqrt(theta2))
    psi = None
    if any(j % 2 for j in orders):
        shifted = _stein_column(top, 2.0 * gamma * u / (r * r),
                                2.0 * s * s / (r * r), 1.0)
        F = _stein_column(top, gamma * u, s * s, _Phi(-z2),
                          -_phi(z2) / r * shifted)
        psi = (gamma * _phi(u) * F[:-1]
               - G[:-1, 0] / (2.0 * math.sqrt(math.pi)))
    rows = _T_moments(orders, G, psi)
    if orders[0] == 1:
        mills = np.exp(-z1 * z1 / 2.0) / 2.0 * (
            math.sqrt(1.5) * _erfcx(z1 / math.sqrt(2.0))
            - gamma / math.sqrt(2.0) * _erfcx(z2 / math.sqrt(2.0)))
        rows[0] = np.where(z2 >= math.sqrt(2.0), mills, rows[0])
    return rows


def tail_bound(m: IsotropicModel, geom: FaceDecomposition,
               u: float) -> TailBound:
    """P{max > u} bounds: integral of pbar (and pE) from u to infinity.

    The principal part has the closed form

        pE_tail(u) = g_0 (1 - Phi(u))
                     + phi(u) sum_{j>=1} (|rho'|/pi)^{j/2} Hbar_{j-1}(u) g_j

    via the Hermite tail identity int_u^inf Hbar_j phi = Hbar_{j-1}(u) phi(u).
    The correction mass is the rotated 1-D integral per order of the module
    docstring, exact on all of [u, inf), in closed form
    (:func:`_tail_integrals`).  Against mpmath references on five models
    (gamma from 0.41 to 1), its relative error for j = 1, 2, 3, 5, 11 is

        u in [-5, 8]: 2.1e-14, 1.4e-14, 2.4e-14, 1.8e-14, 3.2e-14
        u = 15:       9.3e-14, 7.7e-14, 1.2e-13, 1.2e-13, 1.1e-13
        u = 25:       2.9e-13, 1.8e-13, 3.2e-13, 2.5e-13, 5.2e-13.

    The one-level view of :func:`_tail_block`.
    """
    return _tail_block(m, geom, [_finite(u, "u")])[0]


def _tail_block(m: IsotropicModel, geom: FaceDecomposition, us: list) -> list:
    """:func:`tail_bound` at each level of ``us``, elementwise in the levels,
    so that each row is, bit for bit, that of its level alone."""
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
    _check_finite(pE_tail, lambda k: f"the pE tail at u={us[k]}")
    comp = np.zeros(len(us))
    if active:
        C = _tail_integrals(active, u, *_gamma_s(m))
        comp = SQRT_2PI * sum(c * row for c, row in zip(weights, C))
        _check_finite(comp, lambda k: f"the complementary tail at u={us[k]}")
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
    :func:`.geometry.sphere_surface`.  Both averages are closed forms: the
    Hermite part is sqrt(j!) times the column E he_k(X), X ~ N(x, a^2), of
    :func:`_stein_column`, and R_{d-1}, itself a Gaussian average of
    T_{d-1}((gamma x - s y)/sqrt 2), averages to :func:`_smoothed_T_rows`
    with s replaced by sigma = hypot(gamma a, s).  Within 1.9e-15 relative
    of the nested average, a 128-node Gauss-Hermite rule over
    ``R_correction``, for d = 2..12 and x in [-2, 6] on five models with a
    up to 4.5.  Its correction part is within 1.6e-13 of mpmath references
    at b^2 = 2 and 3.67 for j <= 11 and x <= 6, 3.7e-13 out to x = 15 and
    1.6e-12 at x = 20 (see :func:`_smoothed_T_rows`).  A non-finite value
    raises ValueError.

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
    hbar = math.sqrt(math.factorial(j)) * _stein_column(j, x, shift * shift,
                                                        1.0)[j]
    T = _smoothed_T_rows((j,), np.array([gamma * x / math.sqrt(2.0)]),
                         sigma * sigma / 2.0)[0, 0]
    val = coef * hbar + pref * T
    _check_finite(val, f"sphere_pbar(d={d}, x={x})")
    return float(_phi(x) * area * val)


def complementary_decay_rate(m: IsotropicModel) -> float:
    """Extra Gaussian decay rate of R_j relative to phi: gamma^2/(3-gamma^2).

    The complementary terms behave like x^{2j-4} e^{-rate * x^2 / 2} phi(x)
    for large x, so pbar/pE -> 1 in the deep tail.  Equals 1/2 at gamma = 1
    and 1/(12 rho'' - 1) on models normalized to rho' = -1/2.
    """
    g2 = m.gamma * m.gamma
    return g2 / (3.0 - g2)
