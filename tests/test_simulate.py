"""Grid construction, exact field sampling, and the bound-validation harness."""
import math

import numpy as np
import pytest
from scipy import stats

import oracles
from gaussmax import simulate, streams
from gaussmax.model import make_rational, make_squared_exponential
from gaussmax.simulate import (CholeskyFactor, FieldGrid, covariance_cholesky,
                               make_grid, sample_maxima, validate_bound)

SQ = make_squared_exponential(0.5)
RAT = make_rational(0.8, 1.0)


class TestMakeGrid:
    def test_shapes_and_ordering(self):
        g = make_grid((2.0, 3.0), (4, 5))
        assert g.sides == (2.0, 3.0)
        assert g.resolution == (4, 5)
        assert g.count == 20
        assert g.points.shape == (20, 2)
        # lexicographic by axis index: first axis varies slowest
        assert np.allclose(g.points[:5, 0], 0.0)
        assert np.allclose(g.points[:5, 1], np.linspace(0.0, 3.0, 5))
        assert np.allclose(g.points[5:10, 0], 2.0 / 3.0)

    def test_scalar_resolution_broadcasts(self):
        g = make_grid((1.0, 2.0), 3)
        assert g.resolution == (3, 3)
        assert g.count == 9

    def test_endpoints_and_vertices_present(self):
        g = make_grid((1.5, 0.5), (4, 3))
        pts = {tuple(np.round(p, 12)) for p in g.points}
        for vx in [(0.0, 0.0), (0.0, 0.5), (1.5, 0.0), (1.5, 0.5)]:
            assert vx in pts

    def test_resolution_one_degenerates_to_origin(self):
        g = make_grid((5.0,), 1)
        assert g.points.shape == (1, 1)
        assert g.points[0, 0] == 0.0

    def test_axis_spacing_is_uniform(self):
        g = make_grid((2.0,), 9)
        diffs = np.diff(g.points[:, 0])
        assert np.allclose(diffs, diffs[0])
        assert g.points[0, 0] == 0.0 and g.points[-1, 0] == 2.0

    def test_point_cap_enforced(self):
        with pytest.raises(ValueError, match="coarsen"):
            make_grid((1.0, 1.0), (101, 101))
        # exactly at the cap is fine
        assert make_grid((1.0, 1.0), 100).count == 10_000

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
            make_grid(sides, res)

    def test_points_are_read_only(self):
        g = make_grid((1.0,), 4)
        with pytest.raises(ValueError):
            g.points[0, 0] = 7.0

    def test_fieldgrid_shape_validation(self):
        with pytest.raises(ValueError):
            FieldGrid(sides=(1.0,), resolution=(3,), points=np.zeros((2, 1)))


class TestCovarianceCholesky:
    @pytest.mark.parametrize("res", [5, 10, 25])
    def test_reconstructs_covariance(self, res):
        g = make_grid((1.0,), res)
        f = covariance_cholesky(SQ, g)
        t = g.points[:, 0]
        cov = np.asarray(SQ.rho((t[:, None] - t[None, :]) ** 2))
        err = np.abs(f.L @ f.L.T - cov).max()
        assert err <= f.jitter + 1e-10
        assert np.allclose(np.diag(cov), 1.0)

    def test_lower_triangular(self):
        g = make_grid((1.0, 1.0), 5)
        f = covariance_cholesky(RAT, g)
        assert np.allclose(f.L, np.tril(f.L))
        assert np.all(np.diag(f.L) > 0.0)

    def test_flag_threshold(self):
        eye = np.eye(2)
        assert CholeskyFactor(L=eye, jitter=0.0).flagged is False
        assert CholeskyFactor(L=eye, jitter=1e-9).flagged is False
        assert CholeskyFactor(L=eye, jitter=1e-8).flagged is True

    def test_degenerate_model_raises(self):
        # pointwise-valid correlation that is not positive definite as a
        # covariance on a wide grid: the jitter ladder must give up loudly
        bump = oracles.make_bump_model(0.6, 0.5)
        g = make_grid((12.0,), 60)
        with pytest.raises(ValueError, match="not positive definite"):
            covariance_cholesky(bump, g)


class TestSampleMaxima:
    def test_bitwise_deterministic(self):
        g = make_grid((1.0, 1.0), 5)
        a = sample_maxima(SQ, g, 137, 42)
        b = sample_maxima(SQ, g, 137, 42)
        assert np.array_equal(a, b)

    def test_prefix_consistent_across_reps(self):
        # replicate r is a pure function of (seed, grid, r): growing the run
        # must extend, not reshuffle
        g = make_grid((1.5,), 2)
        short = sample_maxima(SQ, g, 300, 5)
        long = sample_maxima(SQ, g, 500, 5)
        assert np.array_equal(short, long[:300])
        # across the internal 256-row batch boundary too
        assert np.array_equal(sample_maxima(SQ, g, 257, 5)[:256],
                              sample_maxima(SQ, g, 256, 5))

    def test_seed_sensitivity(self):
        g = make_grid((1.0,), 3)
        assert not np.array_equal(sample_maxima(SQ, g, 50, 1),
                                  sample_maxima(SQ, g, 50, 2))

    def test_precomputed_factor_matches(self):
        g = make_grid((1.0, 1.0), 4)
        f = covariance_cholesky(SQ, g)
        assert np.array_equal(sample_maxima(SQ, g, 64, 9, factor=f),
                              sample_maxima(SQ, g, 64, 9))

    def test_rejects_nonpositive_reps(self):
        g = make_grid((1.0,), 2)
        with pytest.raises(ValueError):
            sample_maxima(SQ, g, 0, 1)

    def test_single_point_marginal_is_standard_normal(self):
        g = make_grid((1.0,), 1)
        mx = sample_maxima(SQ, g, 10_000, 2024)
        ks = stats.kstest(mx, "norm")
        assert ks.pvalue > 1e-3
        assert abs(float(np.mean(mx))) < 4.0 / math.sqrt(10_000)

    def test_two_point_joint_law(self):
        # max of a correlated pair: P(max <= u) = Phi_2(u, u; rho)
        g = make_grid((1.5,), 2)
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
        g = make_grid((2.0,), 9)
        f = covariance_cholesky(SQ, g)
        z = streams.normals(7, streams.DOMAIN_FIELD, 0, 200, g.count)
        vals = z @ f.L.T
        sub = vals[:, ::2]  # every other point = the coarse 5-point grid
        assert np.all(sub.max(axis=1) <= vals.max(axis=1))
        assert np.any(sub.max(axis=1) < vals.max(axis=1))


class TestValidateBound:
    def _report(self, **kw):
        grid = make_grid((1.0, 1.0), 8)
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
        assert len(rep.jitters) == 2
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
        assert self._report().to_json_dict() == self._report().to_json_dict()

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
            self._report(u_values=())
        with pytest.raises(ValueError):
            self._report(refinements=(0,))
        with pytest.raises(ValueError):
            self._report(refinements=())

    def test_notes_document_grid_bias(self):
        rep = self._report()
        assert rep.notes
        assert "underestimate" in rep.notes[0]

    def test_csv_round_trip(self):
        rep = self._report()
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "u,emp_mean,emp_stderr,pbar_tail,pE_tail,verdict"
        assert len(lines) == 1 + len(rep.u_values)
        for i, line in enumerate(lines[1:]):
            u, mean, se, pbar, pE, verdict = line.split(",")
            assert float(u) == rep.u_values[i]
            assert float(mean) == rep.empirical[i].mean
            assert float(se) == rep.empirical[i].stderr
            assert float(pbar) == rep.pbar_tails[i]
            assert float(pE) == rep.pE_tails[i]
            assert verdict == rep.verdicts[i]

    def test_json_dict_shape(self):
        rep = self._report()
        d = rep.to_json_dict()
        assert set(d) == {"u_values", "empirical", "pbar_tails", "pE_tails",
                          "verdicts", "refinement_factors",
                          "empirical_by_refinement", "jitters", "notes"}
        assert d["u_values"] == [1.0, 2.0]
        assert d["empirical"][0]["reps"] == 500
        assert len(d["empirical_by_refinement"]) == 2

    def test_refined_grid_estimates_dominate_coarse(self):
        # more grid points -> pathwise larger maxima -> weakly larger tails,
        # up to Monte Carlo noise (same reps but different draws); allow 2 se
        rep = self._report(reps=2000)
        coarse, fine = rep.empirical_by_refinement
        for c, f in zip(coarse, fine):
            assert f.mean >= c.mean - 2.0 * (c.stderr + f.stderr)
