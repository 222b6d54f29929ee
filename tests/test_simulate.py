"""Grid construction, exact field sampling, and the bound-validation harness."""
import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import oracles
from gaussmax import simulate, streams
from gaussmax.model import make_rational, make_squared_exponential, normalized
from gaussmax.simulate import (FieldGrid, covariance_cholesky, sample_maxima,
                               validate_bound)

SQ = make_squared_exponential(0.5)
RAT = make_rational(0.8, 1.0)


def ranks(factors):
    """The normals per replicate along each factor: its column count."""
    return tuple(F.shape[1] for F in factors)


class TestMakeGrid:
    def test_shapes_and_ordering(self):
        g = FieldGrid((2.0, 3.0), (4, 5))
        assert g.sides == (2.0, 3.0)
        assert g.resolution == (4, 5)
        assert g.count == 20
        assert g.points.shape == (20, 2)
        # lexicographic by axis index: first axis varies slowest
        assert np.allclose(g.points[:5, 0], 0.0)
        assert np.allclose(g.points[:5, 1], np.linspace(0.0, 3.0, 5))
        assert np.allclose(g.points[5:10, 0], 2.0 / 3.0)

    def test_scalar_resolution_broadcasts(self):
        g = FieldGrid((1.0, 2.0), 3)
        assert g.resolution == (3, 3)
        assert g.count == 9

    def test_endpoints_and_vertices_present(self):
        g = FieldGrid((1.5, 0.5), (4, 3))
        pts = {tuple(np.round(p, 12)) for p in g.points}
        for vx in [(0.0, 0.0), (0.0, 0.5), (1.5, 0.0), (1.5, 0.5)]:
            assert vx in pts

    def test_resolution_one_degenerates_to_origin(self):
        g = FieldGrid((5.0,), 1)
        assert g.points.shape == (1, 1)
        assert g.points[0, 0] == 0.0

    def test_axis_spacing_is_uniform(self):
        g = FieldGrid((2.0,), 9)
        diffs = np.diff(g.points[:, 0])
        assert np.allclose(diffs, diffs[0])
        assert g.points[0, 0] == 0.0 and g.points[-1, 0] == 2.0

    def test_point_cap_enforced(self):
        with pytest.raises(ValueError, match="coarsen"):
            FieldGrid((1.0, 1.0), (101, 101))
        # exactly at the cap is fine
        assert FieldGrid((1.0, 1.0), 100).count == 10_000

    @pytest.mark.parametrize("sides,res", [
        ((), 3),
        ((-1.0,), 3),
        ((float("inf"),), 3),
        ((float("nan"),), 3),
        ((1.0,), 0),
        ((1.0,), (2, 2)),
    ])
    def test_rejects_bad_arguments(self, sides, res):
        with pytest.raises(ValueError):
            FieldGrid(sides, res)

    def test_resolution_must_be_integral(self):
        with pytest.raises(ValueError, match="resolution"):
            FieldGrid((1.0, 1.0), 2.7)
        with pytest.raises(ValueError, match="resolution"):
            FieldGrid((1.0, 1.0), (3, 2.7))
        assert FieldGrid((1.0, 1.0), 3.0) == FieldGrid((1.0, 1.0), (3, 3))

    def test_points_are_read_only(self):
        g = FieldGrid((1.0,), 4)
        with pytest.raises(ValueError):
            g.points[0, 0] = 7.0

    def test_points_follow_from_sides_and_resolution(self):
        with pytest.raises(TypeError):
            FieldGrid(sides=(1.0,), resolution=(3,), points=np.zeros((3, 1)))
        g = FieldGrid((1.0, 2.0), 3)
        assert g == FieldGrid((1.0, 2.0), (3, 3))
        assert np.array_equal(g.points, FieldGrid((1.0, 2.0), 3).points)


class TestCovarianceCholesky:
    @pytest.mark.parametrize("res", [5, 10, 25])
    def test_reconstructs_covariance(self, res):
        g = FieldGrid((1.0,), res)
        f = covariance_cholesky(SQ, g)
        (L,) = f
        t = g.points[:, 0]
        cov = np.asarray(SQ.rho((t[:, None] - t[None, :]) ** 2))
        err = np.abs(L @ L.T - cov).max()
        assert err <= 1e-12
        assert np.allclose(np.diag(cov), 1.0)

    def test_degenerate_model_raises(self):
        # Pointwise-valid correlations that are not positive definite as a
        # covariance on the grid must fail the factor's certificate loudly.
        # The smallest eigenvalue is -2.7 on 60 points of [0, 12], but only
        # -7.5e-8 on 10 points of [0, 1], where a diagonal jitter of 1e-7
        # would hide it.
        bump = oracles.make_bump_model(0.6, 0.5)
        for g in (FieldGrid((12.0,), 60), FieldGrid((1.0,), 10)):
            with pytest.raises(ValueError, match="not positive definite"):
                covariance_cholesky(bump, g)


class TestKroneckerFactor:
    """Certified pivoted-Cholesky factors: per axis for separable
    covariances, one of the dense covariance otherwise."""

    @pytest.mark.parametrize("m,sides,res", [
        (SQ, (1.0, 2.0), (6, 9)),
        (SQ, (1.0, 1.0), (25, 25)),
        (normalized(make_squared_exponential(3.0))[0], (0.5, 1.0, 0.7),
         (4, 3, 5)),
        (RAT, (1.0, 1.0), (25, 25)),
        (RAT, (2.0,), 40),
        (oracles.make_bump_model(0.6, 0.5), (1.0, 1.0), (3, 3)),
        # Full rank, so the pivots fill several blocks of 256: rank 900 of
        # the rational model at a spacing near its correlation length, and
        # rank 600 on a 1-D grid.
        (make_rational(1.0, 1.0), (30.0, 30.0), (30, 30)),
        (SQ, (600.0,), 600),
    ])
    def test_reconstructs_dense_covariance(self, m, sides, res):
        # One factor: every entry of C - F F^T is certified to 1e-12.  With
        # d > 1 per-axis factors, (C_1 + E_1) ⊗ ... ⊗ (C_d + E_d) - C, with
        # every |E_i| entry at most 1e-12, has entries within d * 1e-12 to
        # first order, and the separability check admits 1e-12 more.
        g = FieldGrid(sides, res)
        f = covariance_cholesky(m, g)
        sizes = [len(F) for F in f]
        assert sizes in (list(g.resolution), [g.count])
        kron = np.ones((1, 1))
        for F, n in zip(f, sizes):
            assert F.ndim == 2 and F.shape[0] == n and 1 <= F.shape[1] <= n
            kron = np.kron(kron, F @ F.T)
        cov = oracles.grid_covariance_direct(m, g.points)
        err = np.abs(kron - cov).max()
        d = len(f)
        assert err <= (d + (d > 1)) * 1e-12

    @pytest.mark.parametrize("m,sides,res,sizes", [
        (SQ, (1.0, 1.0), (5, 6), (5, 6)),
        (normalized(make_squared_exponential(3.0))[0], (1.0, 1.0), (4, 4),
         (4, 4)),
        (SQ, (1.0, 1.0, 1.0), (2, 3, 4), (2, 3, 4)),
        (SQ, (1.0, 1.0, 1.0), (1, 3, 4), (1, 3, 4)),
        (RAT, (1.0, 1.0), (5, 6), (30,)),
        (oracles.make_bump_model(0.6, 0.5), (1.0, 1.0), (3, 3), (9,)),
        (SQ, (1.0,), 7, (7,)),            # one axis: its axis factor
        (SQ, (1.0, 1.0), (1, 7), (1, 7)),  # per axis, the first of one point
        (RAT, (1.0,), 7, (7,)),           # every 1-D grid is separable
        (RAT, (1.0, 1.0), (1, 7), (1, 7)),
    ])
    def test_which_path(self, m, sides, res, sizes):
        # The separability check alone picks per-axis factors or one factor
        # of the dense covariance.
        f = covariance_cholesky(m, FieldGrid(sides, res))
        assert tuple(len(L) for L in f) == sizes

    def test_equals_dense_kronecker_product(self):
        # The axis-by-axis products equal z @ (F_1 ⊗ F_2)^T up to rounding,
        # for z of prod(ranks) normals per replicate.
        g = FieldGrid((1.0, 1.5), (7, 5))
        f = covariance_cholesky(SQ, g)
        dense = np.kron(*f)
        z = streams.normals(4, streams.DOMAIN_FIELD, 0, 300,
                            math.prod(ranks(f)))
        want = (z @ dense.T).max(axis=1)
        got = sample_maxima(SQ, g, 300, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_agrees_in_law_with_dense_oracle(self):
        # Independent streams (seeds 21 and 22), two-sample KS on maxima.
        g = FieldGrid((1.0, 1.5), (6, 8))
        assert len(covariance_cholesky(SQ, g)) == 2
        kron = sample_maxima(SQ, g, 4000, 21)
        dense = oracles.sample_maxima_dense(SQ, g.points, 4000, 22)
        assert stats.ks_2samp(kron, dense).pvalue > 1e-3
        for u in (0.5, 1.5, 2.5):
            pk, pd = np.mean(kron > u), np.mean(dense > u)
            se = math.sqrt((pk * (1 - pk) + pd * (1 - pd)) / 4000)
            assert abs(pk - pd) < 4.0 * se + 1e-12

    @pytest.mark.parametrize("m,res,seeds", [
        pytest.param(SQ, 25, (31, 32), id="25"),
        pytest.param(SQ, 50, (31, 32), id="50"),
        pytest.param(RAT, 25, (33, 34), id="rational-25"),
    ])
    def test_agrees_in_law_with_dense_oracle_on_bench_grids(self, m, res,
                                                            seeds):
        g = FieldGrid((1.0, 1.0), res)
        low_rank = sample_maxima(m, g, 2000, seeds[0])
        dense = oracles.sample_maxima_dense(m, g.points, 2000, seeds[1])
        assert stats.ks_2samp(low_rank, dense).pvalue > 1e-3

    @pytest.mark.parametrize("res", [25, 50, 100])
    def test_ranks_stay_small_on_fine_grids(self, res):
        f = covariance_cholesky(SQ, FieldGrid((1.0, 1.0), res))
        assert all(1 <= r <= 9 for r in ranks(f))

    def test_indefinite_axis_covariance_raises(self):
        # Unit diagonal, |entries| <= 1, but v^T C v = -2.4 at v = (1, -1, 1).
        c = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValueError, match="not positive definite"):
            simulate._pivoted_cholesky(c)

    def test_indefinite_past_the_first_block_raises(self):
        # 298 unit pivots fill one block of 256 and part of the next.  The
        # last two diagonal entries, 1e-13, are below the pivoting threshold,
        # and their off-diagonal entry 1e-9 makes c indefinite there.
        c = np.eye(300)
        c[298, 298] = c[299, 299] = 1e-13
        c[298, 299] = c[299, 298] = 1e-9
        with pytest.raises(ValueError, match="not positive definite"):
            simulate._pivoted_cholesky(c)

    def test_draws_prod_ranks_normals_per_replicate(self, monkeypatch):
        calls = []
        normals = streams.normals

        def recording(seed, domain, start_rep, n_reps, per_rep):
            calls.append(per_rep)
            return normals(seed, domain, start_rep, n_reps, per_rep)

        monkeypatch.setattr(streams, "normals", recording)
        g = FieldGrid((1.0, 1.0), (25, 50))
        f = covariance_cholesky(SQ, g)
        sample_maxima(SQ, g, 300, 1)
        assert calls == [math.prod(ranks(f))] * 2
        assert math.prod(ranks(f)) < g.count // 10

    @pytest.mark.parametrize("m,sides,res,digest", [
        pytest.param(
            RAT, (1.0, 1.5), (6, 5),
            "6439db7fd74859c1efe2dbb5d003352c7dd6317eb389af19010990c944f417e0",
            id="rational-6x5"),
        pytest.param(
            SQ, (2.0,), 9,
            "a2d2fc22f694bffc29d4066ed8a2c7bc381e9598c6a05c2637f8c3f3b529e3c8",
            id="sqexp-9"),
    ])
    def test_sampler_bits_pinned(self, m, sides, res, digest):
        # Digests retaken when the dense jitter-ladder Cholesky was deleted
        # and every grid got a pivoted-Cholesky factor.  Both grids have
        # full rank (30 and 9), but the factor's columns now follow the
        # pivot order instead of a lower-triangular L, so a non-separable
        # model and a 1-D grid moved their bits once.  They pin them now.
        mx = sample_maxima(m, FieldGrid(sides, res), 300, 4)
        assert hashlib.sha256(mx.tobytes()).hexdigest() == digest

    def test_prefix_and_batch_invariant_on_2d_grid(self):
        g = FieldGrid((1.0, 2.0), (13, 7))
        assert len(covariance_cholesky(SQ, g)) == 2
        long = sample_maxima(SQ, g, 600, 5)
        assert np.array_equal(sample_maxima(SQ, g, 257, 5), long[:257])
        assert np.array_equal(sample_maxima(SQ, g, 256, 5), long[:256])
        assert np.array_equal(sample_maxima(SQ, g, 3, 5), long[:3])

    def test_bit_identical_across_blas_threads(self):
        # The squared exponential on 25 x 25 (per-axis factors) and the
        # rational model on 40 x 40 (one factor of the dense covariance).
        script = (
            "import hashlib\n"
            "from gaussmax import model, simulate\n"
            "for m, res in ((model.make_squared_exponential(0.5), 25),\n"
            "               (model.make_rational(0.8, 1.0), 40)):\n"
            "    g = simulate.FieldGrid((1.0, 1.0), (res, res))\n"
            "    mx = simulate.sample_maxima(m, g, 600, 3)\n"
            "    print(hashlib.sha256(mx.tobytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.path.dirname(os.path.dirname(
                           simulate.__file__)))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        here = [hashlib.sha256(sample_maxima(
                    m, FieldGrid((1.0, 1.0), (res, res)), 600, 3).tobytes())
                .hexdigest() for m, res in ((SQ, 25), (RAT, 40))]
        assert digests == [here] * 2


class TestSampleMaxima:
    def test_bitwise_deterministic(self):
        g = FieldGrid((1.0, 1.0), 5)
        a = sample_maxima(SQ, g, 137, 42)
        b = sample_maxima(SQ, g, 137, 42)
        assert np.array_equal(a, b)

    def test_prefix_consistent_across_reps(self):
        # replicate r is a pure function of (seed, grid, r): growing the run
        # must extend, not reshuffle
        g = FieldGrid((1.5,), 2)
        short = sample_maxima(SQ, g, 300, 5)
        long = sample_maxima(SQ, g, 500, 5)
        assert np.array_equal(short, long[:300])
        # across the internal 256-row batch boundary too
        assert np.array_equal(sample_maxima(SQ, g, 257, 5)[:256],
                              sample_maxima(SQ, g, 256, 5))

    def test_seed_sensitivity(self):
        g = FieldGrid((1.0,), 3)
        assert not np.array_equal(sample_maxima(SQ, g, 50, 1),
                                  sample_maxima(SQ, g, 50, 2))

    def test_rejects_nonpositive_reps(self):
        g = FieldGrid((1.0,), 2)
        with pytest.raises(ValueError):
            sample_maxima(SQ, g, 0, 1)

    def test_rejects_reps_past_the_cap(self):
        g = FieldGrid((1.0,), 2)
        with pytest.raises(ValueError, match="reps must be an integer"):
            sample_maxima(SQ, g, streams.MAX_REPS + 1, 1)

    def test_single_point_marginal_is_standard_normal(self):
        g = FieldGrid((1.0,), 1)
        mx = sample_maxima(SQ, g, 10_000, 2024)
        ks = stats.kstest(mx, "norm")
        assert ks.pvalue > 1e-3
        assert abs(float(np.mean(mx))) < 4.0 / math.sqrt(10_000)

    def test_two_point_joint_law(self):
        # max of a correlated pair: P(max <= u) = Phi_2(u, u; rho)
        g = FieldGrid((1.5,), 2)
        rho = float(SQ.rho(1.5 ** 2))
        mx = sample_maxima(SQ, g, 20_000, 77)
        mvn = stats.multivariate_normal(mean=[0.0, 0.0],
                                        cov=[[1.0, rho], [rho, 1.0]])
        for u in (0.5, 1.5):
            emp = float(np.mean(mx <= u))
            tgt = float(mvn.cdf([u, u]))
            se = math.sqrt(tgt * (1.0 - tgt) / 20_000)
            assert abs(emp - tgt) < 4.0 * se

    def test_subgrid_maximum_never_exceeds_full(self):
        # the same draw restricted to a subset of points has a smaller max;
        # grid maxima therefore underestimate the continuous maximum
        g = FieldGrid((2.0,), 9)
        f = covariance_cholesky(SQ, g)
        z = streams.normals(7, streams.DOMAIN_FIELD, 0, 200, f[0].shape[1])
        vals = z @ f[0].T
        sub = vals[:, ::2]  # every other point = the coarse 5-point grid
        assert np.all(sub.max(axis=1) <= vals.max(axis=1))
        assert np.any(sub.max(axis=1) < vals.max(axis=1))


def _whole_block_maxima(factors, reps, seed):
    """The block loop the shared, sliced pass replaced: each factor applied
    to the whole zero-padded block along its axis, then the maximum."""
    ranks_ = ranks(factors)
    out = np.empty(reps)
    for done in range(0, reps, simulate._BATCH_ROWS):
        nb = min(simulate._BATCH_ROWS, reps - done)
        z = np.zeros((simulate._BATCH_ROWS, math.prod(ranks_)))
        z[:nb] = streams.normals(seed, streams.DOMAIN_FIELD, done, nb,
                                 math.prod(ranks_))
        vals = z.reshape(simulate._BATCH_ROWS, *ranks_)
        for axis, f in enumerate(factors, start=1):
            vals = np.moveaxis(np.moveaxis(vals, axis, -1) @ f.T, -1, axis)
        out[done:done + nb] = vals.reshape(simulate._BATCH_ROWS, -1)[
            :nb].max(axis=1)
    return out


class TestSharedBlockPass:
    @staticmethod
    def _count_normals(monkeypatch):
        calls, normals = [], streams.normals

        def recording(seed, domain, start_rep, n_reps, per_rep):
            calls.append((start_rep, per_rep))
            return normals(seed, domain, start_rep, n_reps, per_rep)

        monkeypatch.setattr(streams, "normals", recording)
        return calls

    @pytest.mark.parametrize("res,refinements,grid_ranks", [
        pytest.param(25, (1, 2), [(8, 8), (8, 8)], id="equal-ranks"),
        pytest.param(4, (1, 4), [(4, 4), (8, 8)], id="unequal-ranks"),
    ])
    def test_equals_each_grid_sampled_alone(self, monkeypatch, res,
                                            refinements, grid_ranks):
        grids = simulate._refined_grids(FieldGrid((1.0, 1.0), res),
                                        refinements)
        factor_sets = [covariance_cholesky(SQ, g) for g in grids.values()]
        assert [ranks(f) for f in factor_sets] == grid_ranks
        products = sorted({math.prod(r) for r in grid_ranks})
        alone = [sample_maxima(SQ, g, 300, 6) for g in grids.values()]
        calls = self._count_normals(monkeypatch)
        shared = simulate._sample_grids(factor_sets, 300, 6)
        assert [a.tobytes() for a in alone] == [s.tobytes() for s in shared]
        # one draw per block of 256 replicates per distinct prod(ranks)
        assert calls == [(start, p) for start in (0, 256) for p in products]

    def test_validate_draws_once_per_block(self, monkeypatch):
        # Both grids have ranks (8, 8): one draw per block serves both.
        calls = self._count_normals(monkeypatch)
        validate_bound(SQ, FieldGrid((1.0, 1.0), 25), (1.0,), 300, 6, (1, 2))
        assert calls == [(0, 64), (256, 64)]

    @pytest.mark.parametrize("sides,res", [
        pytest.param((1.0, 1.0), (100, 100), id="100x100"),
        pytest.param((1.0, 1.5), (97, 61), id="97x61"),
        pytest.param((1.0, 1.0, 1.0), (20, 10, 10), id="20x10x10"),
    ])
    def test_sliced_reduction_equals_whole_block(self, sides, res):
        g = FieldGrid(sides, res)
        f = covariance_cholesky(SQ, g)
        assert len(f) == len(res)
        if g.count == 10_000:
            assert simulate._SLICE_VALUES // g.count == 3     # rows per slice
        # a full block and a zero-padded partial one
        assert (sample_maxima(SQ, g, 300, 8).tobytes()
                == _whole_block_maxima(f, 300, 8).tobytes())

    def test_dense_factor_bits_pinned(self):
        # One factor of the dense covariance is one product over the whole
        # block: its bits depend on the row count, and a slice of
        # _SLICE_VALUES values at 225 points would hold fewer than 256 rows.
        g = FieldGrid((1.0, 1.0), 15)
        f = covariance_cholesky(make_rational(1.0, 1.0), g)
        assert ranks(f) == (159,)
        assert simulate._SLICE_VALUES // g.count < simulate._BATCH_ROWS
        mx = sample_maxima(make_rational(1.0, 1.0), g, 300, 4)
        assert hashlib.sha256(mx.tobytes()).hexdigest() == (
            "550c40559acceb44b20861b0554ee1ad7993f6c937ef35a1578eb83595a8aebc")


class TestValidateBound:
    def _report(self, **kw):
        grid = FieldGrid((1.0, 1.0), 8)
        args = dict(m=SQ, grid=grid, u_values=(1.0, 2.0),
                    reps=500, seed=11, refinements=(1, 2))
        args.update(kw)
        return validate_bound(**args)

    def test_verdicts_and_structure(self):
        rep = self._report()
        assert rep.u_values == (1.0, 2.0)
        assert len(rep.empirical) == 2
        assert len(rep.empirical_by_refinement) == 2
        assert all(len(row) == 2 for row in rep.empirical_by_refinement)
        assert rep.empirical == rep.empirical_by_refinement[-1]
        assert rep.refinement_factors == (1, 2)
        assert len(rep.notes) == 3     # the grid-bias note, one per grid
        assert all(v in ("bound_respected", "inconclusive") for v in rep.verdicts)
        # this configuration demonstrably respects the bound
        assert rep.verdicts == ("bound_respected", "bound_respected")

    def test_verdict_rule_recomputes(self):
        rep = self._report()
        for e, pb, v in zip(rep.empirical, rep.pbar_tails, rep.verdicts):
            expect = "bound_respected" if e.mean - 3.0 * e.stderr <= pb \
                else "inconclusive"
            assert v == expect

    def test_deterministic(self):
        assert self._report() == self._report()

    def test_low_threshold_saturates(self):
        rep = self._report(u_values=(-5.0,), reps=100, refinements=(1,))
        assert rep.empirical[0].mean == 1.0
        assert rep.pbar_tails[0] >= 1.0
        assert rep.verdicts[0] == "bound_respected"

    def test_stderr_is_binomial(self):
        rep = self._report()
        for e in rep.empirical:
            assert e.stderr == pytest.approx(
                math.sqrt(e.mean * (1.0 - e.mean) / e.reps), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            self._report(reps=1)
        with pytest.raises(ValueError):
            self._report(reps=streams.MAX_REPS + 1)
        with pytest.raises(ValueError):
            self._report(u_values=())
        with pytest.raises(ValueError):
            self._report(refinements=(0,))
        with pytest.raises(ValueError):
            self._report(refinements=())

    def test_refinements_must_be_integral(self):
        with pytest.raises(ValueError, match="refinement"):
            self._report(refinements=(1, 2.7))
        base = dict(grid=FieldGrid((1.0,), 4), u_values=(1.0,), reps=20)
        assert (self._report(refinements=(1, 3.0), **base)
                == self._report(refinements=(1, 3), **base))

    @pytest.mark.parametrize("refinements", [(4, 1), (1, 2, 2), (2, 1, 4)])
    def test_refinements_must_increase(self, refinements):
        # The verdicts score the last grid, which must be the finest.
        with pytest.raises(ValueError, match="strictly increasing"):
            self._report(refinements=refinements)

    def test_grid_past_the_cap_raises_before_any_factor(self, monkeypatch):
        # 40 x 40 refined by 3 is 14,400 points: no coarser grid is factored
        # and sampled before that is found.
        calls, factor = [], simulate.covariance_cholesky

        def spy(m, grid):
            calls.append(grid.resolution)
            return factor(m, grid)

        monkeypatch.setattr(simulate, "covariance_cholesky", spy)
        with pytest.raises(ValueError, match="sampling cap"):
            self._report(grid=FieldGrid((1.0, 1.0), 40), refinements=(1, 2, 3))
        assert calls == []

    def test_notes_document_grid_bias(self):
        rep = self._report()
        assert rep.notes
        assert "underestimate" in rep.notes[0]

    def test_notes_name_per_axis_ranks(self):
        assert self._report().notes[1:] == tuple(
            f"refinement x{k}: factors of rank (8, 8), covariance entries "
            "within 1e-12" for k in (1, 2))
        # a non-separable model has one factor of the dense covariance
        notes = self._report(m=RAT, reps=100).notes
        assert len(notes) == 3
        for k, note in zip((1, 2), notes[1:]):
            r = ranks(covariance_cholesky(RAT, FieldGrid((1.0, 1.0), 8 * k)))
            assert len(r) == 1 and note == (
                f"refinement x{k}: factors of rank {r}, covariance entries "
                "within 1e-12")

    def test_json_dict_shape(self):
        rep = self._report()
        d = dataclasses.asdict(rep)     # what the CLI emits
        assert set(d) == {"u_values", "empirical", "pbar_tails", "pE_tails",
                          "verdicts", "refinement_factors",
                          "empirical_by_refinement", "notes"}
        assert d["u_values"] == (1.0, 2.0)
        assert d["empirical"][0]["reps"] == 500
        assert len(d["empirical_by_refinement"]) == 2

    def test_refined_grid_estimates_dominate_coarse(self):
        # more grid points -> larger maxima -> weakly larger tails, up to
        # Monte Carlo noise; allow 2 se.  Both grids have per-axis ranks
        # (8, 8), so they read the same normals (common random numbers),
        # but the two factors map them to different fields.
        rep = self._report(reps=2000)
        coarse, fine = rep.empirical_by_refinement
        for c, f in zip(coarse, fine):
            assert f.mean >= c.mean - 2.0 * (c.stderr + f.stderr)
