"""Counter-based substreams: determinism, batching, independence."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtr

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
                                     simulate.make_grid((1.0,), 3), 2, s),
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
