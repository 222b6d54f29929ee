"""Counter-based random substreams with fixed per-replicate budgets.

Monte Carlo estimators in this package must return bit-identical results no
matter how replicates are batched across calls or workers.  Each
``(seed, domain)`` pair keys an independent Philox stream, and replicate ``r``
owns a fixed window of that stream, so the values a replicate sees never
depend on which batch produced them.

Normals are produced by the inverse CDF, which consumes exactly one uniform
(one 64-bit stream word) per normal.  A rejection sampler such as the
ziggurat would consume a variable number of words and break the window
alignment.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# Domain tags keep unrelated consumers of the same user seed independent.
DOMAIN_GOE = 0x676F65          # GOE matrix draws (mc_absdet)
DOMAIN_FIELD = 0x666C64        # Gaussian-field replicates (sample_maxima)
DOMAIN_DIRECTIONS = 0x646972   # unit directions for solid-angle estimation

_BLOCK = 4  # uint64 words per Philox counter increment


def uniforms(seed: int, domain: int, start_rep: int, n_reps: int,
             per_rep: int) -> np.ndarray:
    """Uniform(0,1) draws for replicates ``start_rep .. start_rep+n_reps-1``.

    Parameters
    ----------
    seed, domain : int
        Stream key.  ``domain`` separates independent uses of one user seed.
        ``seed`` must be an int (not a bool) in [0, 2^64); every seeded draw
        of the package passes here, so this is its one check.
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
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if per_rep <= 0:
        raise ValueError("per_rep must be positive")
    if n_reps < 0 or start_rep < 0:
        raise ValueError("replicate indices must be nonnegative")
    if n_reps == 0:
        return np.empty((0, per_rep))
    # Round up to whole counter blocks so each replicate starts on one.
    w = _BLOCK * ((per_rep + _BLOCK - 1) // _BLOCK)
    bitgen = np.random.Philox(
        key=np.array([seed, domain], dtype=np.uint64),
        counter=np.array([start_rep * (w // _BLOCK), 0, 0, 0], dtype=np.uint64),
    )
    u = np.random.Generator(bitgen).random(n_reps * w)
    return u.reshape(n_reps, w)[:, :per_rep]


def normals(seed: int, domain: int, start_rep: int, n_reps: int,
            per_rep: int) -> np.ndarray:
    """Standard-normal block; inverse-CDF transform of :func:`uniforms`."""
    u = uniforms(seed, domain, start_rep, n_reps, per_rep)
    # random() can return exactly 0.0; clamp so ndtri stays finite.
    return ndtri(np.maximum(u, 2.0 ** -54))
