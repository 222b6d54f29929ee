"""Hermite polynomials and the weighted integrals built on them.

Two polynomial families appear throughout the package: the physicists'
polynomials ``H_n`` (weight e^{-x^2}) and the unit-variance variant
``Hbar_n`` (weight e^{-x^2/2}), related by ``Hbar_n(x) = 2^{-n/2} H_n(x/sqrt 2)``.
On top of them sit two integrals that the density bounds consume:

* ``I_n(v) = int_v^inf e^{-t^2/2} H_n(t) dt`` (closed form, finite or v=-inf),
* ``J_n(x) = int e^{-y^2/2} H_n(a y + b x) dy = (2b)^n sqrt(2 pi) Hbar_n(x)``
  for ``a^2 + b^2 = 1/2``,

plus a Gaussian-weight quadrature utility for the remaining y-integrals.

Everything is computed from one kernel: the orthonormal values
``u_k = c_k H_k`` with ``c_k = (2^k k! sqrt(pi))^{-1/2}``, whose three-term
recurrence is O(1)-conditioned, and log-space coefficients.  Callers that
must survive the far tails (``bounds.T_series``, the GOE density in
``randmat``) work with the damped values ``ut_k = u_k e^{-v^2/4}`` and the
tail-integral table of :func:`_tail_coefficients`.

The package's input checks live here too: every integer range goes through
:func:`_check_int` and every abscissa through :func:`_finite`, so a bad
argument raises ValueError instead of producing a silent NaN.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import ndtr

# From degree 268 on, the scale 1/c_n = (2^n n! sqrt(pi))^{1/2} of H_n
# overflows double precision.
MAX_DEGREE = 200
SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG2 = math.log(2.0)


class HermiteKind(str, Enum):
    PHYSICISTS = "physicists"   # H_{n+1} = 2x H_n - 2n H_{n-1}
    MODIFIED = "modified"       # Hbar_{n+1} = x Hbar_n - n Hbar_{n-1}


def _check_int(n, lo: int, cap, what: str) -> int:
    """n as an int in [lo, cap]; the package's one range check.

    Accepts an int, a numpy integer or an integral finite float (a JSON
    config gives 3.0); a bool, a non-integral or non-finite float, a string
    or anything else raises ValueError instead of being truncated.
    """
    integral = ((isinstance(n, (int, np.integer)) and not isinstance(n, bool))
                or (isinstance(n, float) and math.isfinite(n)
                    and n.is_integer()))
    if not (integral and lo <= n <= cap):
        raise ValueError(f"{what} must be an integer in [{lo}, {cap}], got {n!r}")
    return int(n)


def _finite(x, name: str = "x"):
    """x as a float (scalar x) or float array; ValueError unless all finite."""
    arr = np.asarray(x, dtype=float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")
    return float(arr) if arr.ndim == 0 else arr


def _check_degree(n: int) -> int:
    return _check_int(n, 0, MAX_DEGREE, "polynomial degree")


def _log_double_factorial(m: int) -> float:
    """log(m!!) for m >= -1, with (-1)!! = 0!! = 1."""
    if m <= 0:
        return 0.0
    if m % 2 == 1:            # m = 2k-1: m!! = (2k)! / (2^k k!)
        k = (m + 1) // 2
        return math.lgamma(2 * k + 1) - k * _LOG2 - math.lgamma(k + 1)
    k = m // 2                # m = 2k: m!! = 2^k k!
    return k * _LOG2 + math.lgamma(k + 1)


def _log_ck(n: int) -> float:
    """log c_n = -(1/2) log(2^n n! sqrt(pi))."""
    return -0.5 * (n * _LOG2 + math.lgamma(n + 1) + 0.5 * math.log(math.pi))


def _norm_hermites(n: int, nu: np.ndarray) -> np.ndarray:
    """u_k = c_k H_k(nu) for k = 0..n via the orthonormal recurrence."""
    u = np.empty((n + 1,) + nu.shape)
    u[0] = math.pi ** -0.25
    if n >= 1:
        u[1] = math.sqrt(2.0) * nu * u[0]
    for k in range(1, n):
        u[k + 1] = (math.sqrt(2.0 / (k + 1)) * nu * u[k]
                    - math.sqrt(k / (k + 1.0)) * u[k - 1])
    return u


@functools.lru_cache(maxsize=None)
def _tail_coefficients(n: int) -> tuple[tuple[float, ...], float]:
    """The table (A, B) of the scaled tail integral

        c_n I_n(v) = e^{-v^2/4} sum_k A_k ut_{n-1-2k}(v) + B (1 - Phi(v)),

    with ``A_k = 2^{k+1} (n-1)!!/(n-1-2k)!! c_n/c_{n-1-2k}`` for
    k = 0..(n-1)//2 and ``B = c_n I_n(-inf) = c_n 2^{n/2} (n-1)!! sqrt(2 pi)``
    for even n (0 for odd n).  Both are O(1) for every n: no overflow.
    """
    A = tuple(2.0 * math.exp(k * _LOG2 + _log_double_factorial(n - 1)
                             - _log_double_factorial(n - 1 - 2 * k)
                             + _log_ck(n) - _log_ck(n - 1 - 2 * k))
              for k in range((n - 1) // 2 + 1))
    B = 0.0
    if n % 2 == 0:
        B = math.exp(0.5 * math.log(2.0 * math.pi) + 0.5 * n * _LOG2
                     + _log_double_factorial(n - 1) + _log_ck(n))
    return A, B


def _tail_sum(n: int, ut: np.ndarray):
    """sum_k A_k ut_{n-1-2k}, the polynomial part of c_n I_n (see above).

    ``ut`` holds the caller's damped values ut_k = u_k e^{-v^2/4} for at
    least k = 0..n-1; the result is 0.0 for n = 0.
    """
    s = 0.0
    for k, a in enumerate(_tail_coefficients(n)[0]):
        s = s + a * ut[n - 1 - 2 * k]
    return s


def _eval_all(kind: HermiteKind, n: int, x) -> np.ndarray:
    """All degrees 0..n at once; shape (n+1,) + shape(x).

    Scales the orthonormal values: H_k(x) = u_k(x) / c_k and
    Hbar_k(x) = 2^{-k/2} u_k(x / sqrt 2) / c_k.
    """
    x = np.asarray(x, dtype=float)
    half = 0.0
    if kind is HermiteKind.MODIFIED:
        x = x / math.sqrt(2.0)
        half = 0.5 * _LOG2
    scale = np.exp([-_log_ck(k) - half * k for k in range(n + 1)])
    return _norm_hermites(n, x) * scale.reshape((n + 1,) + (1,) * x.ndim)


def hermite_eval(kind: HermiteKind, n: int, x):
    """Evaluate H_n(x) (physicists') or Hbar_n(x) (modified).

    Parameters
    ----------
    kind : HermiteKind
    n : int
        Degree, 0 <= n <= MAX_DEGREE.
    x : float or ndarray, finite.

    Returns
    -------
    float or ndarray matching the shape of x.
    """
    kind = HermiteKind(kind)
    n = _check_degree(n)
    vals = _eval_all(kind, n, _finite(x))[n]
    return float(vals) if np.ndim(x) == 0 else vals


def tail_integral_In(n: int, v):
    """``I_n(v) = int_v^inf e^{-t^2/2} H_n(t) dt``.

    Accepts finite v (scalar or array) or ``v = -inf`` (scalar), for which
    the full-line value ``1_{n even} 2^{n/2} (n-1)!! sqrt(2 pi)`` is returned.
    Any other non-finite v raises ValueError.
    """
    n = _check_degree(n)
    inv_cn = math.exp(-_log_ck(n))
    B = _tail_coefficients(n)[1]
    if np.ndim(v) == 0 and float(v) == -math.inf:
        return B * inv_cn

    varr = np.asarray(_finite(v, "v"), dtype=float)
    damp = np.exp(-varr * varr / 4.0)
    ut = _norm_hermites(max(n - 1, 0), varr) * damp
    # ndtr(-v) = 1 - Phi(v), accurate in both tails.
    out = (damp * _tail_sum(n, ut) + B * ndtr(-varr)) * inv_cn
    return float(out) if np.ndim(v) == 0 else out


def weighted_integral_Jn(n: int, x, a: float, b: float):
    """``J_n(x) = int e^{-y^2/2} H_n(a y + b x) dy`` for ``a^2 + b^2 = 1/2``.

    Closed form: ``(2b)^n sqrt(2 pi) Hbar_n(x)``.
    """
    n = _check_degree(n)
    if abs(a * a + b * b - 0.5) > 1e-12:
        raise ValueError("weighted_integral_Jn requires a^2 + b^2 = 1/2 "
                         f"(got {a * a + b * b!r})")
    return (2.0 * b) ** n * SQRT_2PI * hermite_eval(HermiteKind.MODIFIED, n, x)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights approximating ``int f(y) e^{-y^2/2} dy = sum w_i f(y_i)``."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float)).copy()
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 1:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        total = float(weights.sum())
        if abs(total - SQRT_2PI) > 1e-12 * SQRT_2PI:
            raise ValueError(
                f"weights sum to {total!r}, expected sqrt(2 pi); not a rule "
                "for the weight e^{-y^2/2}"
            )
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def gauss_weight_rule(n: int = 64) -> QuadratureRule:
    """n-point Gauss rule for the weight e^{-y^2/2}, exact for deg < 2n.

    Built from the e^{-t^2} Gauss-Hermite rule by the substitution
    y = sqrt(2) t.
    """
    if n < 1:
        raise ValueError("need at least one node")
    t, w = hermgauss(n)
    return QuadratureRule(math.sqrt(2.0) * t, math.sqrt(2.0) * w)


DEFAULT_RULE = gauss_weight_rule(64)


def _node_values(f, rule: QuadratureRule) -> np.ndarray:
    """f on all nodes at once, broadcast to shape (..., number of nodes)."""
    vals = np.asarray(f(rule.nodes), dtype=float)
    return np.broadcast_to(vals, np.broadcast_shapes(vals.shape,
                                                     rule.nodes.shape))


def gauss_weight_integrate(f, rule: QuadratureRule = DEFAULT_RULE):
    """Approximate ``int f(y) e^{-y^2/2} dy`` with the given rule.

    ``f`` must be vectorized: it is called once, on the ndarray of all
    nodes, and its result is broadcast to the nodes' shape (so a constant
    is accepted).  A result of shape (..., number of nodes) holds one
    integrand per leading index and gives an array of integrals of shape
    (...); otherwise the result is a float.  A non-finite integrand value
    at a node raises ValueError.
    """
    vals = _node_values(f, rule)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = rule.nodes[np.nonzero(~finite)[-1][0]]
        raise ValueError(f"integrand not finite at node {bad!r}")
    out = vals @ rule.weights
    return float(out) if out.ndim == 0 else out
