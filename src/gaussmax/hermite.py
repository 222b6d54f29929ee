"""Hermite polynomials and the weighted integrals built on them.

Two polynomial families appear throughout the package: the physicists'
polynomials ``H_n`` (weight e^{-x^2}) and the unit-variance variant
``Hbar_n`` (weight e^{-x^2/2}), related by ``Hbar_n(x) = 2^{-n/2} H_n(x/sqrt 2)``.
On top of them sit two closed-form integrals that the density bounds
consume (the y-average of R_j in :mod:`.bounds` is closed form too):

* ``I_n(v) = int_v^inf e^{-t^2/2} H_n(t) dt`` (finite v or v = -inf),
* ``J_n(x) = int e^{-y^2/2} H_n(a y + b x) dy = (2b)^n sqrt(2 pi) Hbar_n(x)``
  for ``a^2 + b^2 = 1/2``.

Everything is computed from one kernel: the orthonormal values
``u_k = c_k H_k`` with ``c_k = (2^k k! sqrt(pi))^{-1/2}``, whose three-term
recurrence is O(1)-conditioned, and log-space coefficients.  Callers that
must survive the far tails (``bounds.T_series``, the GOE density in
``randmat``) work with the damped values ``ut_k = u_k e^{-v^2/4}`` and the
tail-integral table of :func:`_tail_coefficients`.

The normal CDF Phi that these tail integrals need is here too,
:func:`_Phi`, Cephes' rational approximations of erf and erfc in NumPy,
whole arrays at a time, so that the bound, tail and GOE paths load no
SciPy; its Horner evaluator :func:`_polevl` also serves the inverse CDF of
:mod:`.streams`.

The package's input contract lives here too: every public integer passes
:func:`_check_int` and every other public number :func:`_finite`, the one
real-number check, so a bool, string, None, complex or NaN argument raises
ValueError, naming the argument, instead of being coerced or returning NaN.
:func:`_refinement_factors` and the sweep helper :func:`_by_blocks` live
here too, so that ``goe`` and the CLI's config check load neither the
bounds nor the sampler.
"""
from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

# From degree 268 on, the scale 1/c_n = (2^n n! sqrt(pi))^{1/2} of H_n
# overflows double precision.
MAX_DEGREE = 200
SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
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


def _refinement_factors(refinements) -> tuple:
    """The factors as ints >= 1, nonempty and strictly increasing, so that
    the last grid is the finest."""
    out = tuple(_check_int(k, 1, math.inf, "every refinement factor")
                for k in refinements)
    if not out or any(a >= b for a, b in zip(out, out[1:])):
        raise ValueError("refinement factors must be a nonempty, strictly "
                         "increasing sequence, so the last grid is the finest")
    return out


_FMAX = float(np.finfo(float).max)
_REAL = (int, float, np.integer, np.floating)


def _finite(x, name: str = "x", lo: float = -_FMAX, hi: float = _FMAX):
    """x as a float (scalar x) or float array; the one real-number check.

    Accepts Python and NumPy ints and floats, int and float arrays, and
    lists or tuples of them.  Anything else (a bool, str, None, complex...),
    a NaN and an entry outside [lo, hi] raise ValueError naming ``name``.
    The default bounds mean "finite"; an infinite bound admits its infinity.
    """
    for v in x if isinstance(x, (list, tuple)) else [x]:
        if isinstance(v, bool) or not (isinstance(v, _REAL) or isinstance(
                v, np.ndarray) and v.dtype.kind in "iuf"):
            raise ValueError(f"{name} must be a real number, got {v!r}")
    try:
        arr = np.asarray(x, dtype=float)
    except OverflowError:       # an int beyond the float range
        raise ValueError(f"{name} must be finite, got {x!r}") from None
    inside = (lo <= arr) & (arr <= hi)
    if not inside.all():
        span = ("finite" if (lo, hi) == (-_FMAX, _FMAX)
                else f"in [{lo:.2g}, {hi:.2g}]")
        raise ValueError(
            f"{name} must be {span}, got {float(arr[~inside].flat[0])!r}")
    return float(arr) if arr.ndim == 0 else arr


_BLOCK = 32     # values per kernel pass: bounds the memory of a sweep
_ROW_ERRORS = (ValueError, RuntimeError, ArithmeticError)


def _by_blocks(block):
    """The rows kernel that runs ``block(*args, part)``, a kernel that
    returns one result per value of its last argument, on parts of at most
    _BLOCK values: one result, or the error it raised, per value.

    A part that raises is run again one value at a time, so each row gets,
    bit for bit, the result or the error of its value alone.  This is the
    one place where a raised error becomes a row.
    """
    @functools.wraps(block)
    def rows(*args) -> list:
        *args, xs = args
        out = []
        for start in range(0, len(xs), _BLOCK):
            part = xs[start:start + _BLOCK]
            try:
                out += block(*args, part)
            except _ROW_ERRORS as e:
                out += ([e] if len(part) == 1 else
                        [r for x in part for r in rows(*args, [x])])
        return out
    return rows


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order, as np.unique
    gives them.  np.unique imports ``numpy.ma`` on first use (NumPy 2.4),
    a cost this sort and compare avoids."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _polevl(x: np.ndarray, coefs, monic: bool = False,
            out: np.ndarray | None = None) -> np.ndarray:
    """Horner's rule as Cephes' polevl (p1evl if ``monic``), op for op.
    Coefficients run from the highest power down; with ``monic`` the
    leading 1 is implied.  The sum is kept in ``out`` (not ``x``) if one is
    given, else in a new array."""
    if monic:
        acc = np.add(x, coefs[0], out=out)
    else:
        acc = np.multiply(x, coefs[0], out=out)
        acc += coefs[1]
    for c in coefs[2 - monic:]:
        acc *= x
        acc += c
    return acc


# Cephes ndtr and erfc (S. L. Moshier, 1989), the rational Chebyshev forms
# of Cody (Math. Comp. 23, 1969): erf(z) = z T(z^2)/U(z^2) for |z| < 1, and
# erfc(z) = e^{-z^2} P(z)/Q(z) for 1 <= z < 8, e^{-z^2} R(z)/S(z) for z >= 8.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
# erfc(z) is below half the smallest subnormal from z = 27.3 on, so z is
# clipped at 27.5: infinities stay finite.  The tail is computed as
# e^{64} erfc(z), a normal float, and scaled back in one rounding, so a
# subnormal Phi is rounded once.
_Z_CLIP, _LIFT = 27.5, 64.0
_HALF_DROP = 0.5 * math.exp(-_LIFT)


def _Phi(x):
    """The standard normal CDF, Phi(x) = erfc(z)/2 with z = -x/sqrt 2,
    elementwise, from Cephes' rational approximations of erf and erfc in
    NumPy (see the tables above).

    In erfc's branch, e^{-z^2} is split as e^{-m^2} e^{-(|z| - m)(|z| + m)}
    with m = |z| rounded to 1/16, so m^2 is exact and the rounding of z^2
    is not magnified by the exp.  Phi is within 2e-15 relative of
    ``0.5 * math.erfc(z)`` wherever that is a normal float; against the
    true value both carry the rounding of z, about 1e-13 relative at
    x = -37.5.  Phi underflows to 0 only where the true value is below the
    smallest subnormal (x below -38.47); +-inf give 0 and 1 and NaN gives
    NaN.  A float for scalar x, else a float array.
    """
    shape = np.shape(x)
    # The steps run in place where they can: on a sweep's long arrays, a
    # chain of fresh temporaries takes about three times as long.
    z = np.multiply(x, -_SQRT_HALF, dtype=float).reshape(-1)
    a = np.abs(z)
    np.minimum(a, _Z_CLIP, out=a)            # NaN stays NaN
    m = np.multiply(a, 16.0)
    np.round(m, out=m)
    m /= 16.0
    tail = np.multiply(m, m)
    np.subtract(_LIFT, tail, out=tail)
    np.exp(tail, out=tail)                   # e^{LIFT - m^2}
    rest = np.add(a, m)
    m -= a
    rest *= m                                # -(|z| - m)(|z| + m)
    tail *= np.exp(rest, out=rest)
    ratio = _polevl(a, _ERFC_P, out=m)      # m and rest are dead: reuse them
    ratio /= _polevl(a, _ERFC_Q, monic=True, out=rest)
    far = a >= 8.0
    if far.any():
        af = a[far]
        ratio[far] = _polevl(af, _ERFC_R) / _polevl(af, _ERFC_S, monic=True)
    tail *= ratio
    tail *= _HALF_DROP                       # erfc(|z|)/2
    out = np.subtract(1.0, tail, out=tail, where=z < 0.0)
    near = a < 1.0
    if near.any():
        zn = z[near]
        z2 = zn * zn
        out[near] = 0.5 * (1.0 - zn * _polevl(z2, _ERF_T)
                           / _polevl(z2, _ERF_U, monic=True))
    return float(out[0]) if shape == () else out.reshape(shape)


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


def _norm_hermites(n: int, nu: np.ndarray, g2: float = 1.0) -> np.ndarray:
    """p_k = g^k u_k(nu/g), u_k = c_k H_k, for k = 0..n via the orthonormal
    recurrence with its k-term times g2 = g^2: real for every real g2, the
    u_k at g2 = 1, and E u_k(a + bY) = p_k(a; 1 - 2b^2), Y ~ N(0, 1)."""
    u = np.empty((n + 1,) + nu.shape)
    u[0] = math.pi ** -0.25
    if n >= 1:
        u[1] = math.sqrt(2.0) * nu * u[0]
    for k in range(1, n):
        u[k + 1] = (math.sqrt(2.0 / (k + 1)) * nu * u[k]
                    - g2 * math.sqrt(k / (k + 1.0)) * u[k - 1])
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


def _eval_all(kind: HermiteKind, n: int, x, g2: float = 1.0) -> np.ndarray:
    """All degrees 0..n at once; shape (n+1,) + shape(x).

    Scales the orthonormal values: H_k(x) = u_k(x) / c_k and
    Hbar_k(x) = 2^{-k/2} u_k(x / sqrt 2) / c_k.  At g2 = 1 - c^2 the
    modified values are E Hbar_k(x + cY), Y ~ N(0, 1) (see
    :func:`_norm_hermites`).
    """
    x = np.asarray(x, dtype=float)
    half = 0.0
    if kind is HermiteKind.MODIFIED:
        x = x / math.sqrt(2.0)
        half = 0.5 * _LOG2
    scale = np.exp([-_log_ck(k) - half * k for k in range(n + 1)])
    return _norm_hermites(n, x, g2) * scale.reshape((n + 1,) + (1,) * x.ndim)


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
    n = _check_int(n, 0, MAX_DEGREE, "polynomial degree")
    vals = _eval_all(kind, n, _finite(x))[n]
    return _finite(vals, f"hermite_eval({kind.value!r}, {n}, {x!r})")


def tail_integral_In(n: int, v):
    """``I_n(v) = int_v^inf e^{-t^2/2} H_n(t) dt``.

    Accepts finite v (scalar or array) or ``v = -inf`` (scalar), for which
    the full-line value ``1_{n even} 2^{n/2} (n-1)!! sqrt(2 pi)`` is returned.
    Any other non-finite v raises ValueError.
    """
    n = _check_int(n, 0, MAX_DEGREE, "polynomial degree")
    inv_cn = math.exp(-_log_ck(n))
    B = _tail_coefficients(n)[1]
    if np.ndim(v) == 0 and _finite(v, "v", -math.inf) == -math.inf:
        return B * inv_cn

    varr = np.asarray(_finite(v, "v"))
    damp = np.exp(-varr * varr / 4.0)
    ut = _norm_hermites(max(n - 1, 0), varr) * damp
    # Phi(-v) = 1 - Phi(v), accurate in both tails.
    out = (damp * _tail_sum(n, ut) + B * _Phi(-varr)) * inv_cn
    return _finite(out, f"tail_integral_In({n}, {v!r})")


def weighted_integral_Jn(n: int, x, a: float, b: float):
    """``J_n(x) = int e^{-y^2/2} H_n(a y + b x) dy`` for ``a^2 + b^2 = 1/2``.

    Closed form: ``(2b)^n sqrt(2 pi) Hbar_n(x)``.
    """
    n = _check_int(n, 0, MAX_DEGREE, "polynomial degree")
    a, b = _finite(a, "a"), _finite(b, "b")
    if abs(a * a + b * b - 0.5) > 1e-12:
        raise ValueError("weighted_integral_Jn requires a^2 + b^2 = 1/2 "
                         f"(got {a * a + b * b!r})")
    return _finite((2.0 * b) ** n * SQRT_2PI
                   * hermite_eval(HermiteKind.MODIFIED, n, x),
                   f"weighted_integral_Jn({n}, {x!r}, {a!r}, {b!r})")
