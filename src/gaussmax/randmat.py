"""GOE eigenvalue density, expected |det| of shifted GOE, and its MC estimate.

The n x n Gaussian Orthogonal Ensemble (diagonal variance 1, off-diagonal
variance 1/2) has one-point eigenvalue density q_n with the expected-count
normalization ``int q_n = n``.  Writing c_k = (2^k k! sqrt(pi))^{-1/2}, the
Hermite-series form is

    e^{nu^2/2} q_n(nu) = e^{-nu^2/2} sum_{k<n} c_k^2 H_k(nu)^2
        + (1/2) sqrt(n/2) c_{n-1} c_n H_{n-1}(nu) [I_n(-inf) - 2 I_n(nu)]
        + 1_{n odd} H_{n-1}(nu) / I_{n-1}(-inf),

and the expected absolute determinant of a shifted GOE matrix follows from it:

    E |det(G_n - nu I_n)| = 2^{3/2} Gamma((n+3)/2) e^{nu^2/2} q_{n+1}(nu) / (n+1).

Direct evaluation overflows (factorials) and underflows (e^{-nu^2/2}) long
before the n <= 60 cap, so everything is computed through
w_n(nu) := e^{nu^2/2} q_n(nu) using the Hermite kernel of :mod:`.hermite`:
orthonormal values u_k = c_k H_k(nu) (three-term recurrence,
O(1)-conditioned), their damped companions u_k e^{-nu^2/4}, and the
log-space table of the tail integrals I_n, the one ``bounds.T_series`` uses,
and the in-package normal CDF of :mod:`.hermite`, so no SciPy is loaded here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .hermite import (_check_int, _finite, _norm_hermites, _Phi,
                      _tail_coefficients, _tail_sum)

MAX_SIZE = 60


def _rescaled_density(n: int, nu) -> np.ndarray:
    """w_n(nu) = e^{nu^2/2} q_n(nu), vectorized over nu."""
    nu = np.asarray(nu, dtype=float)
    u = _norm_hermites(n - 1, nu)
    ut = u * np.exp(-nu * nu / 4.0)          # ut_k = u_k e^{-nu^2/4}
    # e^{-nu^2/2} sum c_k^2 H_k^2, a running sum over k whatever the shape
    # of nu (np.sum would sum one column pairwise), so that each entry of an
    # array nu is bit for bit its value alone.
    sq = np.square(ut)
    w = sq[0]
    for k in range(1, n):
        w = w + sq[k]
    # Middle term: (1/2) sqrt(n/2) c_{n-1} c_n H_{n-1} [I_n(-inf) - 2 I_n(nu)]
    #   c_n I_n(nu)    = e^{-nu^2/4} sum_k A_k ut_{n-1-2k} + B_n (1-Phi(nu))
    #   c_n I_n(-inf)  = B_n
    B = _tail_coefficients(n)[1]
    mid = -2.0 * _tail_sum(n, ut) * ut[n - 1]
    if n % 2 == 0:
        mid = mid + u[n - 1] * B * (2.0 * _Phi(nu) - 1.0)
    w = w + 0.5 * math.sqrt(n / 2.0) * mid
    if n % 2 == 1:
        w = w + u[n - 1] / _tail_coefficients(n - 1)[1]
    return w


def goe_eigen_density(n: int, nu):
    """One-point GOE eigenvalue density q_n(nu), normalized to integrate to n.

    Parameters
    ----------
    n : int
        Matrix size, 1 <= n <= 60.
    nu : float or ndarray, finite.

    Returns
    -------
    float or ndarray
    """
    n = _check_int(n, 1, MAX_SIZE, "matrix size")
    nu_arr = np.asarray(_finite(nu, "nu"))
    out = np.exp(-nu_arr ** 2 / 2.0) * _rescaled_density(n, nu_arr)
    return _finite_at(out, nu_arr, "goe_eigen_density", n)


def expected_absdet_shifted_goe(n: int, nu):
    """E |det(G_n - nu I_n)| for an n x n GOE matrix G_n.

    Uses the identity with the size-(n+1) eigenvalue density, evaluated
    through the e^{nu^2/2}-rescaled form so large nu neither under- nor
    overflows.  Requires n <= 59 (needs the density at size n+1).
    """
    n = _check_int(n, 1, MAX_SIZE - 1, "matrix size")
    nu_arr = np.asarray(_finite(nu, "nu"))
    coef = 2.0 ** 1.5 * math.gamma((n + 3) / 2.0) / (n + 1)
    out = coef * _rescaled_density(n + 1, nu_arr)
    return _finite_at(out, nu_arr, "expected_absdet_shifted_goe", n)


def _finite_at(out: np.ndarray, nu: np.ndarray, name: str, n: int):
    """out as a float or an array, as :func:`._finite` returns it; a
    non-finite entry raises ValueError naming the first nu that gives one,
    as the call at that nu alone would."""
    bad = ~np.isfinite(out)
    if bad.any():
        raise ValueError(f"{name}({n}, {float(nu[bad][0])!r}) must be finite, "
                         f"got {float(out[bad][0])!r}")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with standard error; bit-reproducible given (seed, reps)."""

    mean: float
    stderr: float
    reps: int
    seed: int


# Matrix entries per mc_absdet batch: 32 MB of matrices at any n.
_MC_BATCH_VALUES = 1 << 22


def mc_absdet(n: int, nu: float, reps: int, seed: int) -> McEstimate:
    """MC estimate of E |det(G_n - nu I_n)| over ``reps`` independent draws,
    2 <= reps <= ``streams.MAX_REPS``.

    Replicate r consumes a fixed window of the (seed, GOE-domain) stream, so
    the estimate is bit-identical however the replicates are batched.
    """
    n = _check_int(n, 1, MAX_SIZE, "matrix size")
    nu = _finite(nu, "nu")
    reps = _check_int(reps, 2, streams.MAX_REPS, "reps")  # stderr needs 2
    per_rep = n * (n + 1) // 2
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, 1.0 / math.sqrt(2.0))
    diag = np.arange(n)
    vals = np.empty(reps)
    done = 0
    while done < reps:
        nb = min(max(1, _MC_BATCH_VALUES // (n * n)), reps - done)
        z = streams.normals(seed, streams.DOMAIN_GOE, done, nb, per_rep)
        mats = np.zeros((nb, n, n))
        mats[:, iu, ju] = z * scale
        mats[:, ju, iu] = mats[:, iu, ju]
        mats[:, diag, diag] -= nu
        with np.errstate(over="ignore"):
            vals[done:done + nb] = np.abs(np.linalg.det(mats))
        done += nb
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(reps))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(f"nu = {nu!r} makes the determinants or their "
                         "variance overflow the floats")
    return McEstimate(mean=mean, stderr=stderr, reps=reps, seed=int(seed))

