import dataclasses
import math

import numpy as np
import pytest

from fbst import DensityEstimate, DomainError, DrawsError, PosteriorSample, \
    fbst, kde_eval, kde_fit, silverman_bandwidth
from fbst.density import trapezoid_weights


def sample_of(draws, label="x"):
    return PosteriorSample(draws=draws, label=label)


class TestPosteriorSample:
    def test_basic_fields(self):
        sample = PosteriorSample(draws=np.arange(40.0), label="delta")
        assert sample.n == 40
        assert sample.label == "delta"

    def test_rejects_short_samples(self):
        with pytest.raises(DrawsError):
            PosteriorSample(draws=np.arange(29.0), label="x")

    def test_rejects_non_finite(self):
        draws = np.arange(40.0)
        draws[7] = np.nan
        with pytest.raises(DrawsError, match="7"):
            PosteriorSample(draws=draws, label="x")

    def test_rejects_empty_label(self):
        with pytest.raises(DrawsError):
            PosteriorSample(draws=np.arange(40.0), label="")

    def test_draws_are_immutable(self):
        sample = PosteriorSample(draws=np.arange(40.0), label="x")
        with pytest.raises(ValueError):
            sample.draws[0] = 99.0

    def test_owns_its_draws(self):
        source = np.random.default_rng(41).normal(0.3, 1.0, 2_000)
        kept = source.copy()
        sample = PosteriorSample(draws=source, label="x")
        before = [fbst(sample, 0.0, 1, 0, estimator=e)
                  for e in ("grid", "monte_carlo")]
        source *= 3.0
        source += 1.0
        assert np.array_equal(sample.draws, kept)
        assert [fbst(sample, 0.0, 1, 0, estimator=e)
                for e in ("grid", "monte_carlo")] == before


    def test_compares_and_hashes_by_identity(self):
        draws = np.arange(40.0)
        a = PosteriorSample(draws=draws, label="x")
        b = PosteriorSample(draws=draws, label="x")
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


class TestSilvermanBandwidth:
    def test_two_point_formula(self):
        draws = np.repeat([0.0, 1.0], 15)
        sd = np.std(draws, ddof=1)
        expected = 0.9 * min(sd, 1.0 / 1.34) * 30.0 ** (-0.2)
        assert silverman_bandwidth(sample_of(draws)) \
            == pytest.approx(expected, rel=1e-12)

    def test_standard_normal_scale(self):
        rng = np.random.default_rng(11)
        draws = rng.standard_normal(10_000)
        expected = 0.9 * 10_000 ** (-0.2)
        assert silverman_bandwidth(sample_of(draws)) == pytest.approx(expected, rel=0.10)

    def test_constant_draws_error(self):
        with pytest.raises(DrawsError):
            silverman_bandwidth(sample_of(np.full(50, 3.25)))

    def test_zero_iqr_falls_back_to_sd(self):
        draws = np.concatenate((np.zeros(98), [-1.0, 1.0]))
        sd = float(draws.std(ddof=1))
        expected = 0.9 * sd * 100 ** (-0.2)
        assert silverman_bandwidth(sample_of(draws)) == pytest.approx(expected, rel=1e-12)


class TestKdeFit:
    def test_two_kernel_hand_computation(self):
        est = kde_fit(sample_of(np.repeat([-1.0, 1.0], 15)), bandwidth=1.0)
        phi_one = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert kde_eval(est, 0.0) == pytest.approx(phi_one, abs=1e-4)
        assert est.grid[0] == pytest.approx(-4.0)
        assert est.grid[-1] == pytest.approx(4.0)

    def test_large_sample_peak_height(self):
        rng = np.random.default_rng(23)
        est = kde_fit(sample_of(rng.standard_normal(1_000_000) + 1.0))
        target = 1.0 / math.sqrt(2.0 * math.pi)
        assert kde_eval(est, 1.0) == pytest.approx(target, rel=0.02)
        assert est.mode_location == pytest.approx(1.0, abs=0.05)

    def test_symmetric_draws_give_symmetric_estimate(self):
        rng = np.random.default_rng(3)
        half = rng.standard_normal(2_000) + 0.5
        draws = np.concatenate((half, -half))
        est = kde_fit(sample_of(draws))
        assert est.values == pytest.approx(est.values[::-1], abs=1e-12)
        assert est.grid == pytest.approx(-est.grid[::-1], abs=1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(17)
        draws = rng.standard_normal(3_000)
        base = kde_fit(sample_of(draws))
        for shift in (-3.0, 2.5, 10.0):
            moved = kde_fit(sample_of(draws + shift))
            assert moved.bandwidth == pytest.approx(base.bandwidth, rel=1e-12)
            assert moved.grid == pytest.approx(base.grid + shift, abs=1e-9)
            assert moved.values == pytest.approx(base.values, abs=1e-12)

    @pytest.mark.parametrize("seed,n", [(1, 200), (2, 5_000), (3, 80_000)])
    def test_normalization(self, seed, n):
        rng = np.random.default_rng(seed)
        draws = rng.gamma(3.0, 2.0, n)
        est = kde_fit(sample_of(draws))
        assert 0.99 <= trapezoid_weights(est.grid, est.values).sum() <= 1.001
        assert np.all(est.values >= 0)

    @pytest.mark.parametrize("mu,sigma,seed", [(0.0, 1.0, 46), (3.0, 0.5, 49)])
    def test_consistency_against_true_density(self, mu, sigma, seed):
        rng = np.random.default_rng(seed)
        est = kde_fit(sample_of(rng.normal(mu, sigma, 100_000)))
        center = (est.grid >= mu - 2 * sigma) & (est.grid <= mu + 2 * sigma)
        xs = est.grid[center]
        truth = np.exp(-0.5 * ((xs - mu) / sigma) ** 2) \
            / (sigma * math.sqrt(2.0 * math.pi))
        sup_err = np.max(np.abs(est.values[center] - truth))
        assert sup_err < 0.02 / (sigma * math.sqrt(2.0 * math.pi))

    def test_mode_fields_consistent(self):
        rng = np.random.default_rng(9)
        est = kde_fit(sample_of(rng.standard_normal(1_000)))
        assert est.mode_density == est.values.max()
        assert kde_eval(est, est.mode_location) == est.mode_density

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            kde_fit(sample_of(np.arange(50.0)), grid_size=64)

    def test_bad_bandwidth(self):
        for bandwidth in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="bandwidth must be positive and finite"):
                kde_fit(sample_of(np.arange(50.0)), bandwidth=bandwidth)

    def test_custom_grid_size(self):
        est = kde_fit(sample_of(np.arange(50.0)), grid_size=256)
        assert est.grid.size == 256

    @pytest.mark.parametrize("draws,grid_size,step", [
        (np.random.default_rng(50).gamma(2.0, 1.5, 50), 1024, 1),
        (np.random.default_rng(16421).gamma(2.0, 1.5, 16421), 1024, 1),
        (np.random.default_rng(300).gamma(2.0, 1.5, 300), 70_000, 97),
        (np.random.default_rng(3).standard_t(3, 20_000), 1024, 1),
    ], ids=["gamma-50", "gamma-16421", "gamma-300-wide-grid", "student_t3-20000"])
    def test_matches_exact_sum_of_capped_terms(self, draws, grid_size, step):
        # Oracle: the correctly rounded sum of all n kernel terms, each with
        # the fit's own arithmetic (squared scaled distance capped at 80).
        sample = sample_of(draws)
        est = kde_fit(sample, grid_size=grid_size)
        h = silverman_bandwidth(sample)
        assert np.array_equal(est.grid, np.linspace(
            draws.min() - 3.0 * h, draws.max() + 3.0 * h, grid_size))
        norm = draws.size * h * math.sqrt(2.0 * math.pi)
        worst = 0.0
        for node in range(0, grid_size, step):
            z = est.grid[node] / h - draws / h
            exact = math.fsum(np.exp(np.minimum(z * z, 80.0) * -0.5)) / norm
            worst = max(worst, abs(est.values[node] - exact) / exact)
        assert worst <= 1e-14


class TestFitMemo:
    @pytest.fixture()
    def sample(self):
        rng = np.random.default_rng(29)
        return PosteriorSample(draws=rng.standard_normal(3_000), label="theta")

    def test_repeat_call_returns_same_fit(self, sample):
        assert kde_fit(sample) is kde_fit(sample)

    def test_slot_holds_only_latest_fit(self, sample):
        first = kde_fit(sample)
        for kwargs in ({"grid_size": 256}, {"bandwidth": 0.2}):
            newer = kde_fit(sample, **kwargs)
            assert newer is not first
            key, held = sample._latest_fit[0]
            assert held is newer
            assert key == (kwargs.get("bandwidth"), kwargs.get("grid_size", 1024))
            assert kde_fit(sample, **kwargs) is newer
        again = kde_fit(sample)
        assert again is not first
        assert np.array_equal(again.values, first.values)

    def test_same_fit_as_fresh_sample(self, sample):
        est, fresh = kde_fit(sample), kde_fit(sample_of(sample.draws))
        assert fresh is not est
        assert np.array_equal(est.grid, fresh.grid)
        assert np.array_equal(est.values, fresh.values)
        assert est.bandwidth == fresh.bandwidth

    def test_failed_fit_stores_nothing(self):
        draws = np.append(np.random.default_rng(50).standard_normal(50_000), 1e4)
        sample = PosteriorSample(draws=draws, label="stray")
        for _ in range(2):
            with pytest.raises(DomainError, match="density integrates to"):
                kde_fit(sample)
            assert sample._latest_fit == [None]

    def test_repr_and_replace(self, sample):
        est = kde_fit(sample)
        assert repr(sample) == f"PosteriorSample(draws={sample.draws!r}, label='theta')"
        renamed = dataclasses.replace(sample, label="delta")
        assert renamed.label == "delta"
        assert np.array_equal(renamed.draws, sample.draws)
        assert renamed._latest_fit == [None]
        assert kde_fit(renamed) is not est
        assert kde_fit(sample) is est


class TestKdeEval:
    @pytest.fixture()
    def est(self):
        rng = np.random.default_rng(31)
        return kde_fit(sample_of(rng.standard_normal(500)))

    def test_node_evaluation_exact(self, est):
        for i in (0, 100, 400, est.grid.size - 1):
            assert kde_eval(est, float(est.grid[i])) == est.values[i]

    def test_midpoint_is_mean_of_neighbors(self, est):
        mid = 0.5 * (est.grid[10] + est.grid[11])
        expected = 0.5 * (est.values[10] + est.values[11])
        assert kde_eval(est, float(mid)) == pytest.approx(expected, rel=1e-12)

    def test_outside_grid_is_zero(self, est):
        assert kde_eval(est, float(est.grid[-1]) + 1.0) == 0.0
        assert kde_eval(est, float(est.grid[0]) - 1.0) == 0.0

    def test_vectorized(self, est):
        out = kde_eval(est, np.array([0.0, 100.0]))
        assert out.shape == (2,)
        assert out[1] == 0.0


class TestDensityEstimateValidation:
    def _args(self):
        grid = np.linspace(-4.0, 4.0, 200)
        values = np.exp(-0.5 * grid ** 2) / math.sqrt(2.0 * math.pi)
        peak = int(np.argmax(values))
        return grid, values, float(grid[peak]), float(values[peak])

    def test_valid_construction(self):
        grid, values, loc, dens = self._args()
        est = DensityEstimate(grid=grid, values=values, bandwidth=0.1,
                              mode_location=loc, mode_density=dens)
        assert est.mode_density == dens

    def test_rejects_unsorted_grid(self):
        grid, values, loc, dens = self._args()
        bad = grid.copy()
        bad[5] = bad[4]
        with pytest.raises(DomainError):
            DensityEstimate(grid=bad, values=values, bandwidth=0.1,
                            mode_location=loc, mode_density=dens)

    def test_rejects_negative_values(self):
        grid, values, loc, dens = self._args()
        bad = values.copy()
        bad[0] = -1e-3
        with pytest.raises(DomainError):
            DensityEstimate(grid=grid, values=bad, bandwidth=0.1,
                            mode_location=loc, mode_density=dens)

    def test_rejects_bad_normalization(self):
        grid, values, loc, dens = self._args()
        with pytest.raises(DomainError):
            DensityEstimate(grid=grid, values=values * 2.0, bandwidth=0.1,
                            mode_location=loc, mode_density=dens * 2.0)

    def test_rejects_inconsistent_mode(self):
        grid, values, loc, dens = self._args()
        with pytest.raises(DomainError):
            DensityEstimate(grid=grid, values=values, bandwidth=0.1,
                            mode_location=loc + 0.001, mode_density=dens)
