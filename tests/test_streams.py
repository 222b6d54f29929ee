"""Counter-based substreams: determinism, batching, independence."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtr, ndtri

import gaussmax.streams as streams
from gaussmax import geometry, model, randmat, simulate


def test_uniforms_shape_and_range():
    u = streams.uniforms(0, streams.DOMAIN_GOE, 0, 10, 7)
    assert u.shape == (10, 7)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_normals_deterministic_pin():
    # Frozen regression values: any change here breaks every Monte Carlo
    # reproducibility promise in the package.
    v = streams.normals(7, streams.DOMAIN_GOE, 0, 1, 3)
    np.testing.assert_allclose(
        v, [[0.38537368, -0.47720101, -0.09279683]], rtol=0, atol=5e-9)


def test_batch_invariance():
    full = streams.normals(3, streams.DOMAIN_FIELD, 0, 50, 11)
    parts = [streams.normals(3, streams.DOMAIN_FIELD, s, 10, 11)
             for s in range(0, 50, 10)]
    assert np.array_equal(full, np.vstack(parts))


def test_replicate_windows_do_not_overlap():
    # per_rep is rounded up to a whole counter block; consecutive replicates
    # must still be distinct and reproducible one-by-one.
    rows = streams.normals(5, streams.DOMAIN_GOE, 0, 4, 6)
    for r in range(4):
        one = streams.normals(5, streams.DOMAIN_GOE, r, 1, 6)
        assert np.array_equal(one[0], rows[r])
    assert not np.array_equal(rows[0], rows[1])


def test_domains_are_independent_streams():
    a = streams.normals(9, streams.DOMAIN_GOE, 0, 2, 8)
    b = streams.normals(9, streams.DOMAIN_FIELD, 0, 2, 8)
    c = streams.normals(9, streams.DOMAIN_DIRECTIONS, 0, 2, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_seeds_differ():
    a = streams.normals(1, streams.DOMAIN_GOE, 0, 2, 8)
    b = streams.normals(2, streams.DOMAIN_GOE, 0, 2, 8)
    assert not np.array_equal(a, b)


def test_normals_are_inverse_cdf_of_uniforms():
    u = streams.uniforms(11, streams.DOMAIN_FIELD, 0, 3, 5)
    z = streams.normals(11, streams.DOMAIN_FIELD, 0, 3, 5)
    np.testing.assert_allclose(ndtr(z), u, rtol=0, atol=1e-12)


def test_bad_arguments():
    with pytest.raises(ValueError):
        streams.uniforms(0, streams.DOMAIN_GOE, 0, 1, 0)
    with pytest.raises(ValueError):
        streams.uniforms(0, streams.DOMAIN_GOE, -1, 1, 3)
    assert streams.uniforms(0, streams.DOMAIN_GOE, 0, 0, 3).shape == (0, 3)


@settings(max_examples=25, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1),
       start=hst.integers(0, 1000),
       n=hst.integers(1, 8),
       per=hst.integers(1, 17))
def test_window_property(seed, start, n, per):
    """Row i of any block equals the single-replicate read at start + i."""
    block = streams.uniforms(seed, streams.DOMAIN_GOE, start, n, per)
    i = n // 2
    single = streams.uniforms(seed, streams.DOMAIN_GOE, start + i, 1, per)
    assert np.array_equal(block[i], single[0])


@pytest.mark.parametrize("call", [
    lambda s: randmat.mc_absdet(2, 0.0, 10, seed=s),
    lambda s: simulate.sample_maxima(model.make_squared_exponential(0.5),
                                     simulate.FieldGrid((1.0,), 3), 2, s),
    lambda s: geometry.polytope_g_coeffs(
        [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0], [[1.0, 1.0], 1.0]],
        reps=10, seed=s),
], ids=["mc_absdet", "sample_maxima", "polytope_g_coeffs"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5],
                         ids=["negative", "2**64", "float"])
def test_library_callers_reject_bad_seeds(call, seed):
    with pytest.raises(ValueError, match="seed"):
        call(seed)


@pytest.mark.parametrize("start, per", [(2 ** 63, 8), (2 ** 64, 1)])
def test_start_beyond_the_64_bit_counter_is_a_valueerror(start, per):
    # The first replicate's counter block start_rep * ceil(per_rep / 4)
    # must be a 64-bit word; the last one that fits still draws.
    with pytest.raises(ValueError, match="start_rep"):
        streams.uniforms(0, streams.DOMAIN_GOE, start, 1, per)
    last = streams.uniforms(0, streams.DOMAIN_GOE, start - 1, 1, per)
    assert last.shape == (1, per)


# ------------------------------------------- in-package inverse normal CDF
# SciPy's ndtri runs the same Cephes algorithm and is the oracle here.

def _clamped_stream(seed, n_reps=16_384, per_rep=64):
    """2^20 stream uniforms, clamped as streams.normals clamps them."""
    u = streams.uniforms(seed, streams.DOMAIN_FIELD, 0, n_reps, per_rep)
    return np.maximum(u, 2.0 ** -54).reshape(-1)


def _ulps(a, b):
    """Distance in units in the last place; a and b share their signs."""
    assert np.array_equal(np.signbit(a), np.signbit(b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _far_tail(n, seed):
    """Log-uniform values on [2^-54, e^-32], the x >= 8 branch, and 1 - y."""
    y = np.exp(np.random.default_rng(seed).uniform(
        np.log(2.0 ** -54), -32.0, n))
    return np.concatenate([y, 1.0 - y])


def test_ndtri_central_branch_is_bit_identical():
    y = _clamped_stream(21)
    central = (y > streams._EXPM2) & (y <= streams._UPPER)
    assert central.sum() > 700_000
    got = streams._ndtri(y.copy())
    assert np.array_equal(got[central], ndtri(y[central]))


def test_ndtri_into_its_dead_input_is_bit_identical(monkeypatch):
    # One block of stream uniforms as the sampler draws them (256 replicates
    # of 64 normals), with the far tail appended.  The reference is the
    # same transform with a new accumulator for every polynomial, as before
    # the centre's denominator was evaluated into y.
    y = np.concatenate([_clamped_stream(190, 256, 64), _far_tail(1_000, 190)])
    got = streams._ndtri(y.copy())
    polevl = streams._polevl
    monkeypatch.setattr(streams, "_polevl",
                        lambda x, coefs, monic=False, out=None:
                        polevl(x, coefs, monic))
    assert got.tobytes() == streams._ndtri(y.copy()).tobytes()


def test_ndtri_tails_within_8_ulp():
    y = np.concatenate([_clamped_stream(22), _far_tail(100_000, 22)])
    tail = (y <= streams._EXPM2) | (y > streams._UPPER)
    assert _ulps(streams._ndtri(y[tail]), ndtri(y[tail])).max() <= 8


def _edges():
    e32 = np.exp(-32.0)
    points = [2.0 ** -54, e32, streams._EXPM2, streams._UPPER, 1.0 - e32]
    out = [1.0 - 2.0 ** -53]
    for p in points:
        out += [np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)]
    return np.array(sorted(x for x in out if x >= 2.0 ** -54))


def test_ndtri_branch_edges_within_8_ulp():
    y = _edges()
    assert _ulps(streams._ndtri(y.copy()), ndtri(y)).max() <= 8


def test_ndtri_is_odd_about_one_half():
    y = np.concatenate([_clamped_stream(23, 4_096), _edges()])
    exact = (1.0 - (1.0 - y)) == y       # 1 - y loses no bits
    # Except the one pair Cephes splits: e^-2 is a tail value but 1 - e^-2
    # a central one, and the two branches differ there by 1 ulp (in SciPy
    # too).
    exact &= (y != streams._EXPM2) & (y != streams._UPPER)
    y = y[exact]
    assert y.size > 200_000
    assert np.array_equal(streams._ndtri(1.0 - y), -streams._ndtri(y.copy()))


def test_ndtri_monotone_on_sorted_input():
    # Adjacent floats near the e^-2 edges may step back by a few ulp, as in
    # SciPy; the edges themselves sit among stream values far wider apart.
    e32 = np.exp(-32.0)
    edges = [2.0 ** -54, e32, streams._EXPM2, streams._UPPER, 1.0 - e32,
             1.0 - 2.0 ** -53]
    y = np.sort(np.concatenate([_clamped_stream(24), edges,
                                _far_tail(10_000, 24)]))
    assert np.all(np.diff(streams._ndtri(y)) >= 0.0)


def test_ndtri_matches_scipy_bitwise_without_avx512_log():
    # NumPy's AVX-512 float64 log differs from the C library's in the last
    # bit.  With that dispatch off, both run the same operations on the same
    # log, so every value must agree: the coefficients and operation order
    # are pinned, and the log is the only source of difference.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:                                      # NumPy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    off = [f for f in __cpu_dispatch__ if "AVX512" in f or f == "X86_V4"]
    script = (
        "import json\n"
        "import numpy as np\n"
        "from scipy.special import ndtri\n"
        "from gaussmax import streams\n"
        "u = streams.uniforms(25, streams.DOMAIN_FIELD, 0, 16384, 64)\n"
        "y = np.maximum(u, 2.0 ** -54).reshape(-1)\n"
        "g = np.random.default_rng(25).uniform(np.log(2.0 ** -54), -32.0,"
        " 100_000)\n"
        "y = np.concatenate([y, np.exp(g), 1.0 - np.exp(g)])\n"
        "got = streams._ndtri(y.copy())\n"
        "print(json.dumps([int(y.size), int(np.sum(got != ndtri(y)))]))\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    size, differ = json.loads(proc.stdout)
    assert size >= 1_000_000
    assert differ == 0
