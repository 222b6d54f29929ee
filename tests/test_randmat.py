"""GOE eigenvalue densities and expected shifted absolute determinants."""
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

import oracles
from gaussmax import model, randmat


# ------------------------------------------------------------- densities

def test_density_n1_is_standard_normal():
    nus = np.linspace(-6.0, 6.0, 121)
    got = randmat.goe_eigen_density(1, nus)
    np.testing.assert_allclose(got, norm.pdf(nus), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_density_integrates_to_n(n):
    val, _ = integrate.quad(lambda v: randmat.goe_eigen_density(n, v),
                            -np.inf, np.inf, epsabs=1e-12, limit=300)
    assert val == pytest.approx(float(n), rel=1e-9)


def test_density_nonnegative_and_vectorized():
    nus = np.linspace(-10.0, 10.0, 201)
    for n in [1, 2, 5, 10]:
        q = randmat.goe_eigen_density(n, nus)
        assert q.shape == nus.shape
        assert np.all(q >= 0.0)


def test_density_matches_eigenvalue_histogram_n2():
    # Empirical eigenvalue histogram from an independent sampler.
    rng = np.random.default_rng(42)
    eigs = np.concatenate([
        np.linalg.eigvalsh(oracles.sample_goe_indep(2, rng))
        for _ in range(20_000)])
    edges = np.linspace(-3.0, 3.0, 25)
    counts, _ = np.histogram(eigs, edges)
    width = edges[1] - edges[0]
    for i in range(len(counts)):
        mid = 0.5 * (edges[i] + edges[i + 1])
        expect = randmat.goe_eigen_density(2, mid) * width * 20_000
        se = math.sqrt(max(expect, 1.0))
        assert abs(counts[i] - expect) < 5.0 * se + 3.0


def test_density_size_bounds():
    with pytest.raises(ValueError):
        randmat.goe_eigen_density(0, 0.0)
    with pytest.raises(ValueError):
        randmat.goe_eigen_density(randmat.MAX_SIZE + 1, 0.0)
    # the cap itself works and stays finite even far out
    v = randmat.goe_eigen_density(randmat.MAX_SIZE, 30.0)
    assert math.isfinite(v) and v >= 0.0


# ------------------------------------------------- expected |determinant|

@pytest.mark.parametrize("nu", [-2.0, -1.0, 0.0, 0.7, 1.5, 3.0])
def test_absdet_n1_closed_form(nu):
    got = randmat.expected_absdet_shifted_goe(1, nu)
    assert got == pytest.approx(oracles.absdet_n1_closed(nu), abs=1e-12)


@pytest.mark.parametrize("n,nu", [(2, 0.0), (2, 1.0), (3, -0.5), (3, 2.0)])
def test_absdet_small_n_against_independent_mc(n, nu):
    want = randmat.expected_absdet_shifted_goe(n, nu)
    mean, se = oracles.mc_absdet_indep(n, nu, 40_000, seed=1234)
    assert abs(mean - want) < 3.5 * se


def test_absdet_large_nu_asymptote():
    # For nu -> inf the determinant stops changing sign, so E|det| converges
    # to E det(G - nu I); at n = 2 that expectation is nu^2 - 1/2 exactly
    # (E g12^2 = 1/2), and for general n it is nu^n + O(nu^{n-2}).
    v2 = randmat.expected_absdet_shifted_goe(2, 40.0)
    assert v2 == pytest.approx(40.0 ** 2 - 0.5, rel=1e-10)
    v4 = randmat.expected_absdet_shifted_goe(4, 40.0)
    assert v4 == pytest.approx(40.0 ** 4, rel=5e-3)
    assert v4 >= 0.99 * 40.0 ** 4


def test_absdet_vectorized_and_even_in_nu_when_symmetric():
    nus = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    v = randmat.expected_absdet_shifted_goe(3, nus)
    assert v.shape == nus.shape
    # the GOE is symmetric in law under nu -> -nu
    np.testing.assert_allclose(v, v[::-1], rtol=1e-12)


# ------------------------------------------------------------ Monte Carlo

def test_mc_absdet_reproducible():
    a = randmat.mc_absdet(3, 0.5, 5_000, seed=7)
    b = randmat.mc_absdet(3, 0.5, 5_000, seed=7)
    assert a == b
    c = randmat.mc_absdet(3, 0.5, 5_000, seed=8)
    assert c.mean != a.mean


def test_mc_absdet_is_independent_of_the_batch_budget(monkeypatch):
    want = randmat.mc_absdet(4, 0.3, 1_000, seed=5)
    # 37 replicates per batch at n = 4, the last batch partial
    monkeypatch.setattr(randmat, "_MC_BATCH_VALUES", 37 * 16 + 5)
    assert randmat.mc_absdet(4, 0.3, 1_000, seed=5) == want
    monkeypatch.setattr(randmat, "_MC_BATCH_VALUES", 1)   # one per batch
    assert randmat.mc_absdet(4, 0.3, 1_000, seed=5) == want


def test_mc_absdet_matches_analytic():
    est = randmat.mc_absdet(2, 1.0, 60_000, seed=3)
    want = randmat.expected_absdet_shifted_goe(2, 1.0)
    assert abs(est.mean - want) < 3.0 * est.stderr


def test_sample_goe_moments():
    rng = np.random.default_rng(0)
    mats = np.stack([randmat.sample_goe(3, rng) for _ in range(30_000)])
    assert np.allclose(mats, np.transpose(mats, (0, 2, 1)))
    var_diag = mats[:, 0, 0].var()
    var_off = mats[:, 0, 1].var()
    assert var_diag == pytest.approx(1.0, abs=0.03)
    assert var_off == pytest.approx(0.5, abs=0.02)


def test_conditional_hessian_moments():
    # Hessian | {level x, flat gradient}: mean 2 rho' x I, Var(diag)
    # = 12 rho'' - 4 rho'^2, Var(offdiag) = 4 rho'', Cov(diag_i, diag_j)
    # = 4 (rho'' - rho'^2).
    m = model.make_rational(0.8, 1.0)  # gamma < 1, so the diag covariance != 0
    x = 1.3
    rng = np.random.default_rng(5)
    mats = np.stack([randmat.conditional_hessian_sample(m, 3, x, rng)
                     for _ in range(40_000)])
    rp, rpp = m.rho1_0, m.rho2_0
    mean = mats.mean(axis=0)
    np.testing.assert_allclose(mean, 2.0 * rp * x * np.eye(3), atol=0.08)
    d0 = mats[:, 0, 0]
    d1 = mats[:, 1, 1]
    off = mats[:, 0, 1]
    assert d0.var() == pytest.approx(12.0 * rpp - 4.0 * rp * rp, rel=0.05)
    assert off.var() == pytest.approx(4.0 * rpp, rel=0.05)
    assert np.cov(d0, d1)[0, 1] == pytest.approx(4.0 * (rpp - rp * rp),
                                                 rel=0.12)


def test_mc_absdet_argument_checks():
    with pytest.raises(ValueError):
        randmat.mc_absdet(3, 0.0, 1, seed=0)
    with pytest.raises(ValueError):
        randmat.mc_absdet(0, 0.0, 100, seed=0)
