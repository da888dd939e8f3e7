import math

import numpy as np
import pytest

from fbst import DomainError, TTestData, fbst, ttest_metropolis
from ground_truth import (PRIOR_SCALE, analytic_evalue_flat, brute_force_evalue,
                          cauchy_pdf, flat_pdf, normal_pdf)

# frozen output of a one-off 10^7-step run of brute_force_evalue on the
# standard-normal density with a standard-Cauchy reference and null at 2
CAUCHY_REF_PIN = 0.9544997361042172


class TestAnalyticEvalue:
    def test_null_at_mean(self):
        assert analytic_evalue_flat(1.0, 2.0, 1.0) == 0.0

    def test_one_sigma(self):
        assert analytic_evalue_flat(0.0, 1.0, 1.0) \
            == pytest.approx(0.6826894921370859, abs=1e-12)

    def test_ninety_five_percent(self):
        assert analytic_evalue_flat(2.0, 0.5, 2.0 + 1.96 * 0.5) \
            == pytest.approx(0.95, abs=1e-4)

    def test_sigma_validation(self):
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="sigma must be positive"):
                analytic_evalue_flat(0.0, sigma, 1.0)


class TestBruteForceEvalue:
    def test_null_at_mode_is_zero(self):
        assert brute_force_evalue(normal_pdf(0.0, 1.0), flat_pdf, 0.0,
                                  -10.0, 10.0, 200_000) == 0.0

    def test_flat_reference_matches_analytic(self):
        value = brute_force_evalue(normal_pdf(1.0, 1.0), flat_pdf, 0.0,
                                   -9.0, 11.0, 1_000_000)
        assert value == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-4)

    def test_cauchy_reference_pinned_run(self):
        value = brute_force_evalue(normal_pdf(0.0, 1.0), cauchy_pdf(0.0, 1.0), 2.0,
                                   -40.0, 40.0, 10_000_000)
        assert value == pytest.approx(CAUCHY_REF_PIN, abs=1e-9)

    @pytest.mark.parametrize("mu,sigma,null", [
        (0.5, 1.0, 0.0), (2.0, 0.7, 0.5), (-1.0, 2.0, 1.0),
    ])
    def test_agrees_with_analytic_oracle(self, mu, sigma, null):
        value = brute_force_evalue(normal_pdf(mu, sigma), flat_pdf, null,
                                   mu - 12 * sigma, mu + 12 * sigma, 400_000)
        expected = analytic_evalue_flat(mu, sigma, null)
        assert value == pytest.approx(expected, abs=1e-4)

    def test_step_floor(self):
        with pytest.raises(DomainError):
            brute_force_evalue(normal_pdf(0.0, 1.0), flat_pdf, 0.0,
                               -10.0, 10.0, 50_000)

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, -2.0), (math.nan, 1.0)])
    def test_empty_range(self, lo, hi):
        with pytest.raises(DomainError, match="empty integration range"):
            brute_force_evalue(normal_pdf(0.0, 1.0), flat_pdf, 0.0, lo, hi, 100_000)


class TestTTestMetropolis:
    def test_identical_groups_concentrate_at_zero(self):
        rng = np.random.default_rng(13)
        group = rng.standard_normal(500)
        data = TTestData(group1=group, group2=group.copy())
        sample = ttest_metropolis(data, PRIOR_SCALE, 100_000, seed=2)
        result = fbst(sample, 0.0, 3, 2)
        assert result.e_value_against < 0.3

    def test_example_chain_in_band(self, example_chain):
        result = fbst(example_chain, 0.0, 3, 2)
        assert 0.5 <= result.e_value_against <= 0.99

    def test_large_n_accumulates_evidence(self):
        rng = np.random.default_rng(5)
        data = TTestData(group1=rng.normal(0.0, 1.7, 300),
                         group2=rng.normal(0.8, 3.0, 300))
        sample = ttest_metropolis(data, PRIOR_SCALE, 100_000, seed=1)
        assert fbst(sample, 0.0, 3, 2).e_value_against > 0.99

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(29)
        data = TTestData(group1=rng.normal(0.0, 1.0, 25),
                         group2=rng.normal(0.3, 1.0, 25))
        a = ttest_metropolis(data, PRIOR_SCALE, 100_000, seed=12)
        b = ttest_metropolis(data, PRIOR_SCALE, 100_000, seed=12)
        assert np.array_equal(a.draws, b.draws)
        c = ttest_metropolis(data, PRIOR_SCALE, 100_000, seed=13)
        assert not np.array_equal(a.draws, c.draws)

    def test_burn_in_discarded(self):
        rng = np.random.default_rng(29)
        data = TTestData(group1=rng.normal(0.0, 1.0, 25),
                         group2=rng.normal(0.3, 1.0, 25))
        sample = ttest_metropolis(data, PRIOR_SCALE, 100_000, seed=3)
        assert sample.n == 90_000
        assert sample.label == "delta"

    def test_iteration_floor(self):
        data = TTestData(group1=[0.0, 1.0], group2=[0.5, 1.5])
        with pytest.raises(DomainError):
            ttest_metropolis(data, PRIOR_SCALE, 50_000, seed=1)

    def test_prior_scale_validation(self):
        data = TTestData(group1=[0.0, 1.0], group2=[0.5, 1.5])
        with pytest.raises(DomainError):
            ttest_metropolis(data, 0.0, 100_000, seed=1)

    @pytest.mark.parametrize("prior_scale", [math.nan, math.inf])
    def test_nonfinite_prior_scale_is_rejected_before_sampling(self, prior_scale):
        data = TTestData(group1=[0.0, 1.0], group2=[0.5, 1.5])
        with pytest.raises(DomainError, match="prior scale must be positive and finite"):
            ttest_metropolis(data, prior_scale, 100_000, seed=1)

    def test_zero_pooled_variance(self):
        data = TTestData(group1=[1.0, 1.0], group2=[2.0, 2.0])
        with pytest.raises(DomainError, match="zero pooled variance"):
            ttest_metropolis(data, PRIOR_SCALE, 100_000, seed=1)

    def test_data_validation(self):
        with pytest.raises(DomainError):
            TTestData(group1=[1.0], group2=[0.0, 1.0])
        with pytest.raises(DomainError):
            TTestData(group1=[0.0, math.inf], group2=[0.0, 1.0])
