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
y-average is a fixed 64-node Gauss rule, checked by the 128-node rule; both
rules come from Newton's method on the Hermite recurrence, with no
eigensolver.
``sphere_pbar`` averages R_j over a Gaussian shift of x, which only widens
this y-average, so it too is one 1-D average, on composite panels.

The tail correction int_u^inf phi R_j needs no nested quadrature.  With
s = sqrt(1 - gamma^2), the rotation a = gamma x - s y, b = s x + gamma y is
orthonormal, so phi(x) phi(y) = phi(a) phi(b), and the half-plane x >= u is
b >= (u - gamma a)/s.  Integrating b out leaves one integral per order,

    int_u^inf phi(x) R_j(x) dx
        = pref_j sqrt(2 pi) int phi(a) T_j(a/sqrt 2) Phi((gamma a - u)/s) da,

exact on all of [u, inf), with pref_j the prefactor of R_j above and
Phi((gamma a - u)/s) the step 1{a >= u} at gamma = 1.

R_j, the tail correction and ``sphere_pbar`` pass one gate, relative at
every scale since these integrals fall to 1e-40 and below in the tails: a
gap above 1e-7 of the larger magnitude between the value and a finer rule
(128 Gauss nodes, or halved panels) raises RuntimeError.

T_j itself is evaluated with the Hermite kernel of :mod:`.hermite`
(orthonormal values with exponentially damped intermediates and the
log-space tail-integral table, shared with the GOE density in ``randmat``),
which keeps the large cancellations between its two parts under control far
into the tails.  One private kernel, :func:`_T_rows`, evaluates any set of
orders at an array of points from one recurrence, one damping exp and one
normal CDF: ``tail_bound`` takes every active order from it once per rule,
as ``pbar_density`` does at each abscissa, and ``T_series`` is its one-order
view, so the formula exists once.  ``R_correction`` is likewise the
one-order view of the R_j body, :func:`_R_values`.  The
normal CDF is the in-package Phi of :mod:`.hermite`; this module loads no
SciPy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import FaceDecomposition, GeometryKind, sphere_surface
from .hermite import (SQRT_2PI, HermiteKind, _check_int, _eval_all, _finite,
                      _norm_hermites, _Phi, _sorted_unique, _tail_coefficients,
                      _tail_sum)
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

    with c_{j-1} I_{j-1} from the log-space table of :mod:`.hermite`, so the
    subtraction loses no precision even deep in the right tail.  Vectorized
    over v; the one-order view of :func:`_T_rows`.

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
    squares = np.cumsum(ut[:top] ** 2, axis=0)   # row j-1: sum_{k<j} ut_k^2
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


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point rule for the weight e^{-y^2/2}: Gauss-Hermite at y = sqrt(2) t.

    The nodes t are the roots of the orthonormal u_n of :mod:`.hermite`,
    found by Newton's method on that recurrence (u_n' = sqrt(2n) u_{n-1})
    from Tricomi's asymptotic guesses, and the weights are the Christoffel
    numbers 1/sum_{k<n} u_k(t)^2 (Townsend, Trogdon & Olver 2016).  No
    eigensolver runs: the dense Golub-Welsch eigenproblem wakes LAPACK's
    thread pool, which then spins.  Cached; the 128-node check rule is
    built on first use.
    """
    m, nu = n // 2, 2 * n + 1
    # theta - sin(theta) = (4m - 4k + 3) pi/nu, k = 1..m: one guess per
    # positive root, smallest first.
    rhs = (4 * m - 4 * np.arange(1, m + 1) + 3) * math.pi / nu
    theta = np.full(m, math.pi / 2.0)
    for _ in range(10):
        theta -= (theta - np.sin(theta) - rhs) / (1.0 - np.cos(theta))
    tau = np.cos(theta / 2.0) ** 2
    t = np.sqrt(nu * tau - (5.0 / (4.0 * (1.0 - tau) ** 2)
                            - 1.0 / (1.0 - tau) - 1.0) / (3.0 * nu))
    t = np.concatenate([np.zeros(n % 2), t])     # the root 0 of odd n
    while True:
        u = _norm_hermites(n, t)
        step = u[n] / (math.sqrt(2.0 * n) * u[n - 1])
        t = t - step
        if np.all(np.abs(step) <= 1e-15 * np.abs(t)):
            break
    w = 1.0 / np.sum(np.square(_norm_hermites(n - 1, t)), axis=0)
    nodes = np.concatenate([-t[n % 2:][::-1], t])    # mirror the roots > 0
    weights = np.concatenate([w[n % 2:][::-1], w])
    return math.sqrt(2.0) * nodes, math.sqrt(2.0) * weights


_RULE = _gauss_rule(64)


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
        tol = np.maximum(_TINY, _CHECK_REL_TOL * np.maximum(np.abs(v), np.abs(c)))
        bad = ~np.isfinite(c) | ~(np.abs(v - c) <= tol)
        exc, why = RuntimeError, "quadrature non-convergent"
    if bad.any():
        i = int(np.argmax(bad))
        at = f" at flat index {i}" if v.ndim else ""
        raise exc(f"{why} for {what}{at}: value {float(v.flat[i])!r}, "
                  f"check {float(c.flat[i])!r}")
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
        For gamma < 1, check the 64-node Gauss value of the y-average against
        the 128-node rule: a gap above 1e-7 of the larger magnitude raises
        RuntimeError, however small R_j is (a non-finite value raises
        ValueError either way).  Without it the 64-node value is checked
        for finiteness only.

    Notes
    -----
    R_j(x) >= 0 always: it measures E|det| minus the signed determinant
    expectation of the conditional Hessian, and |det| >= det pointwise.
    Tiny negative results of order rounding error are possible and are not
    clipped here.
    """
    j = _check_int(j, 1, MAX_ORDER, "order j")
    return _R_values(m, (j,), _finite(x), cross_check)[0]


def _R_values(m: IsotropicModel, orders, x: float, cross_check: bool) -> list:
    """R_j(x) for each j of ``orders`` (in 1..60) at one finite x.

    One :func:`_T_rows` call per rule serves every order; each row is dotted
    with the weights on its own and gated under its own name, so each value
    is, bit for bit, the :func:`R_correction` of its order.
    """
    gamma, s = _gamma_s(m)
    if s == 0.0:
        v = np.float64(gamma * x / math.sqrt(2.0))
        integrals = checks = SQRT_2PI * _T_rows(orders, v)
    else:
        def average(y, weights):
            T = _T_rows(orders, (gamma * x - s * y) / math.sqrt(2.0))
            return [row @ weights for row in T]

        integrals = average(*_RULE)
        checks = average(*_gauss_rule(128)) if cross_check else integrals
    return [float(_pref(m, j) * _checked(integral, check, f"R_{j}({x})"))
            for j, integral, check in zip(orders, integrals, checks)]


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
    terms = [phi * geom.g[0]] + [phi * _coef(m, j) * float(hbar[j]) * geom.g[j]
                                 for j in range(1, geom.d0 + 1)]
    return _checked(terms, terms, f"the pE terms at x={x!r}")


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

    The correction terms use the 64-node Gauss rule, checked against the
    128-node rule; for term-level control call R_correction directly.
    """
    x = _finite(x)
    principal = _principal(m, geom, x)
    phi = float(_phi(x))
    orders = range(1, geom.d0 + 1)
    R = _R_values(m, orders, x, True) if orders else []
    complementary = [0.0] + [max(0.0, phi * R_j * geom.g[j])
                             for j, R_j in zip(orders, R)]
    pE = math.fsum(principal)
    pbar = pE + math.fsum(complementary)
    return BoundBreakdown(x=x, principal_by_j=tuple(principal),
                          complementary_by_j=tuple(complementary),
                          pbar=pbar, pE=pE)


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
_LEG_T, _LEG_W = np.polynomial.legendre.leggauss(16)


def _composite_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 16-point Gauss-Legendre on every panel."""
    half = np.diff(edges)[:, None] / 2.0
    mid = (edges[:-1, None] + edges[1:, None]) / 2.0
    return (mid + half * _LEG_T).ravel(), (half * _LEG_W).ravel()


def _tail_edges(u: float, gamma: float, s: float, j_max: int) -> np.ndarray:
    """Panel edges of the rotated tail integral of :func:`tail_bound`.

    The integrand phi(a) T_j(a/sqrt 2) Phi((gamma a - u)/s) is at most
    phi(a) |a|^j in size, which peaks at |a| = sqrt(j), and for u > 0 its
    mass sits at gamma u with width s.  The window [-pad, max(0, u) + pad]
    with pad = 12 + sqrt(j_max) therefore holds it to far below rounding.
    At s = 0 the factor is the step 1{a >= u}, so the window starts at u.
    For s > 0 it is a smoothed step of width s/gamma at u/gamma; when that
    is narrower than a panel, edges at u/gamma +- (s/gamma) 2^k resolve it.
    """
    pad = 12.0 + math.sqrt(j_max)
    lo, hi = (-pad if s > 0.0 else max(u, -pad)), max(0.0, u) + pad
    edges = np.linspace(lo, hi, _TAIL_PANELS + 1)
    panel, width = edges[1] - edges[0], s / gamma
    if 0.0 < width < panel:
        steps = width * 2.0 ** np.arange(math.ceil(math.log2(panel / width)))
        local = u / gamma + np.concatenate([-steps, [0.0], steps])
        inside = local[(local > lo) & (local < hi)]
        edges = _sorted_unique(np.concatenate([edges, inside]))
    return edges


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
    :func:`_checked` against the unhalved one.
    """
    _require_polyhedral(geom)
    u = _finite(u, "u")
    hbar = _eval_all(HermiteKind.MODIFIED, max(geom.d0 - 1, 0), np.float64(u))
    phi_u = float(_phi(u))
    pE_tail = geom.g[0] * _Phi(-u)
    for j in range(1, geom.d0 + 1):
        pE_tail += _coef(m, j) * float(hbar[j - 1]) * geom.g[j] * phi_u

    active = [j for j in range(1, geom.d0 + 1) if geom.g[j] > 0.0]
    if not active:
        return TailBound(pbar_tail=pE_tail, pE_tail=pE_tail, complementary=0.0)

    gamma, s = _gamma_s(m)
    coarse = _tail_edges(u, gamma, s, active[-1])
    fine = np.sort(np.concatenate([coarse, (coarse[:-1] + coarse[1:]) / 2.0]))
    comp_by_rule = []
    for edges in (coarse, fine):
        a, w = _composite_rule(edges)
        w = w * _phi(a) * (_Phi((gamma * a - u) / s) if s > 0.0 else 1.0)
        T = _T_rows(active, a / math.sqrt(2.0))
        comp_by_rule.append(SQRT_2PI * math.fsum(
            geom.g[j] * _pref(m, j) * float(T_j @ w)
            for j, T_j in zip(active, T)))
    rough, comp = comp_by_rule
    comp = _checked(comp, rough, f"the complementary tail at u={u}")
    return TailBound(pbar_tail=pE_tail + comp, pE_tail=pE_tail,
                     complementary=comp)


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
    sigma = hypot(gamma a, s).  So the bound is one 1-D y-average: the
    Hermite part, a polynomial in y, on the 64-node Gauss rule, and the
    correction part on 24 Gauss-Legendre panels like :func:`tail_bound`'s,
    each halved, plus panels one unit of T_j's argument wide where T_j
    steps.  The sum is gated against the 128-node rule and unhalved panels.

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
    coef, pref = _coef(m, j), SQRT_2PI * _pref(m, j)
    gamma, s = _gamma_s(m)
    shift = (2.0 * abs(m.rho1_0)) ** -0.5
    sigma = math.hypot(gamma * shift, s)
    # |T_j(v)| phi(y), v = (gamma x - sigma y)/sqrt 2, is below |v|^j phi(y)
    # for v < 0 and falls like e^{-v^2/2} phi(y), which peaks at y = peak,
    # for v > 0; T_j steps and oscillates within |v| <= sqrt(2j) + 4.
    pad, peak = 12.0 + math.sqrt(j), sigma * gamma * x / (2.0 + sigma ** 2)
    lo, hi = min(0.0, peak) - pad, max(0.0, peak) + pad
    coarse, unit = np.linspace(lo, hi, _TAIL_PANELS + 1), 2 ** 0.5 / sigma
    if unit < coarse[1] - coarse[0]:
        reach = math.ceil(math.sqrt(2.0 * j) + 4.0)
        local = gamma * x / sigma + unit * np.arange(-reach, reach + 1)
        coarse = _sorted_unique(
            np.clip(np.concatenate([coarse, local]), lo, hi))
    fine = np.sort(np.concatenate([coarse, (coarse[:-1] + coarse[1:]) / 2.0]))
    sums = []
    for (nodes, weights), edges in ((_RULE, fine), (_gauss_rule(128), coarse)):
        y, w = _composite_rule(edges)
        T = _T_rows((j,), (gamma * x - sigma * y) / math.sqrt(2.0))[0]
        hbar = _eval_all(HermiteKind.MODIFIED, j, x + shift * nodes)[j]
        sums.append(coef * (hbar @ weights) / SQRT_2PI
                    + pref * (T @ (w * _phi(y))))
    val = _checked(*sums, f"sphere_pbar(d={d}, x={x})")
    return float(_phi(x) * area * val)


def complementary_decay_rate(m: IsotropicModel) -> float:
    """Extra Gaussian decay rate of R_j relative to phi: gamma^2/(3-gamma^2).

    The complementary terms behave like x^{2j-4} e^{-rate * x^2 / 2} phi(x)
    for large x, so pbar/pE -> 1 in the deep tail.  Equals 1/2 at gamma = 1
    and 1/(12 rho'' - 1) on models normalized to rho' = -1/2.
    """
    g2 = m.gamma * m.gamma
    return g2 / (3.0 - g2)
