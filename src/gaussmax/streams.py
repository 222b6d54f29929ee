"""Counter-based random substreams with fixed per-replicate budgets.

Monte Carlo estimators in this package must return bit-identical results no
matter how replicates are batched across calls or workers.  Each
``(seed, domain)`` pair keys an independent Philox stream, and replicate ``r``
owns a fixed window of that stream, so the values a replicate sees never
depend on which batch produced them.

Normals are produced by the inverse CDF, which consumes exactly one uniform
(one 64-bit stream word) per normal.  A rejection sampler such as the
ziggurat would consume a variable number of words and break the window
alignment.  The inverse CDF is :func:`_ndtri`, Cephes' rational
approximations in NumPy, so drawing normals loads no SciPy module.
"""
from __future__ import annotations

import numpy as np

from .hermite import _check_int, _polevl

# Domain tags keep unrelated consumers of the same user seed independent.
DOMAIN_GOE = 0x676F65          # GOE matrix draws (mc_absdet)
DOMAIN_FIELD = 0x666C64        # Gaussian-field replicates (sample_maxima)
DOMAIN_DIRECTIONS = 0x646972   # unit directions for solid-angle estimation

# Replicates one Monte Carlo estimate may ask for: the estimators keep one
# float per replicate, 80 MB per grid at the cap.
MAX_REPS = 10 ** 7

_BLOCK = 4  # uint64 words per Philox counter increment

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989).  Centre: x = sqrt(2 pi) (y + y^3 P0(y^2)/Q0(y^2)) with
# y = u - 1/2.  Tails: x = s - log(s)/s - z P(z)/Q(z) with s = sqrt(-2 log u)
# and z = 1/s.  Coefficients run from the highest power down; Q's leading 1
# is implied.
_EXPM2 = 0.13533528323661269189            # e^-2: centre/tail edge
_UPPER = 1.0 - _EXPM2                      # above it, reflect u -> 1 - u
_S2PI = 2.50662827463100050242             # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# Tail for 2 <= s < 8, i.e. e^-32 < u <= e^-2.
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# Tail for s >= 8, i.e. u <= e^-32.
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def check_seed(seed) -> int:
    """seed as an int; ValueError unless it is an integer in [0, 2^64)."""
    return _check_int(seed, 0, 2 ** 64 - 1, "seed")


def uniforms(seed: int, domain: int, start_rep: int, n_reps: int,
             per_rep: int) -> np.ndarray:
    """Uniform(0,1) draws for replicates ``start_rep .. start_rep+n_reps-1``.

    Parameters
    ----------
    seed, domain : int
        Stream key.  ``domain`` separates independent uses of one user seed.
        ``seed`` is checked by :func:`check_seed`; every seeded draw of the
        package passes here.
    start_rep, n_reps : int
        Replicate window.
    per_rep : int
        Values consumed by each replicate.  Must match across calls for the
        same (seed, domain): it determines each replicate's stream window.

    Returns
    -------
    ndarray, shape (n_reps, per_rep)
        Row ``i`` depends only on (seed, domain, start_rep+i, per_rep).
    """
    seed = check_seed(seed)
    domain = _check_int(domain, 0, 2 ** 64 - 1, "domain")
    n_reps = _check_int(n_reps, 0, 2 ** 64 - 1, "n_reps")
    per_rep = _check_int(per_rep, 1, 2 ** 64 - 1, "per_rep")
    # Round up to whole counter blocks so each replicate starts on one; the
    # first replicate's block index must fit the 64-bit counter word.
    w = _BLOCK * ((per_rep + _BLOCK - 1) // _BLOCK)
    start_rep = _check_int(start_rep, 0, (2 ** 64 - 1) // (w // _BLOCK),
                           "start_rep")
    if n_reps == 0:
        return np.empty((0, per_rep))
    bitgen = np.random.Philox(
        key=np.array([seed, domain], dtype=np.uint64),
        counter=np.array([start_rep * (w // _BLOCK), 0, 0, 0], dtype=np.uint64),
    )
    u = np.random.Generator(bitgen).random(n_reps * w)
    return u.reshape(n_reps, w)[:, :per_rep]


def normals(seed: int, domain: int, start_rep: int, n_reps: int,
            per_rep: int) -> np.ndarray:
    """Standard-normal block; inverse-CDF transform of :func:`uniforms`."""
    # A window padded to whole counter blocks is a strided view; copy it so
    # the transform can run in place on one flat buffer.
    u = np.ascontiguousarray(
        uniforms(seed, domain, start_rep, n_reps, per_rep))
    # random() can return exactly 0.0; clamp so the transform stays finite.
    np.maximum(u, 2.0 ** -54, out=u)
    _ndtri(u.reshape(-1))
    return u


def _z_ratio(z: np.ndarray, p, q) -> np.ndarray:
    """z P(z) / Q(z), the tail correction."""
    acc = _polevl(z, p)
    acc *= z
    acc /= _polevl(z, q, monic=True)
    return acc


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF of a 1-D float64 array, written into it.

    Cephes' ``ndtri`` (Moshier 1989), the algorithm SciPy's ``ndtri`` runs,
    with the same operations in the same order:
    the central rational function on (e^-2, 1 - e^-2], and on the tails the
    two rational functions in z = 1/sqrt(-2 log y), split at
    sqrt(-2 log y) = 8, with 1 - y in place of y above 1 - e^-2.  The domain
    is [2^-54, 1), the clamped stream uniforms, so there is no infinite
    branch.  Returns ``y``.

    Fidelity against SciPy, on 6.4e7 stream values: the central branch is
    bit-identical.  6.2e-5 of all values, all on the tails, differ by at
    most 6 ulp; each comes from NumPy's AVX-512 ``log``, whose last bit
    differs from the C library's, and with that dispatch disabled every
    value is bit-identical.  Like SciPy's, the result can step back by a few
    ulp between adjacent floats near the e^-2 edges; it is non-decreasing
    on inputs spaced wider than that rounding.
    """
    tail = np.flatnonzero((y <= _EXPM2) | (y > _UPPER))
    r = y[tail]
    # Centre, on every value: Q0 has no zero on the [0, 1/4] that (y - 1/2)^2
    # spans here, and the tail values are overwritten below.
    t = y - 0.5
    t2 = t * t
    acc = _polevl(t2, _P0)
    acc *= t2
    acc /= _polevl(t2, _Q0, monic=True)
    acc *= t
    acc += t
    np.multiply(acc, _S2PI, out=y)
    x = np.minimum(r, 1.0 - r)         # 1 - r is exact above 1/2
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x1 = _z_ratio(z, _P1, _Q1)
    far = x >= 8.0
    if far.any():
        x1[far] = _z_ratio(z[far], _P2, _Q2)
    lx = np.log(x)
    lx /= x
    x -= lx
    x -= x1
    r -= 0.5
    y[tail] = np.copysign(x, r, out=x)  # negative below 1/2
    return y
