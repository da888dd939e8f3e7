import math

import numpy as np
import pytest

from fbst import (DensityFamily, DimensionError, DomainError, FbstResult,
                  PosteriorSample, ReferenceFunction, ReferenceFunctionError,
                  SurpriseFunction, TangentialRegion, chisq_cdf,
                  chisq_quantile, evalue_grid, evalue_mc, fbst, kde_eval,
                  kde_fit, pvalue_evalue, standardized_evalue, surprise_fit,
                  tangential_region)
from fbst.oracle import SEV_FIXTURES

PRIOR_SCALE = math.sqrt(2.0) / 2.0


def normal_sample(mu=1.0, sigma=1.0, n=100_000, seed=8, label="theta"):
    rng = np.random.default_rng(seed)
    return PosteriorSample(draws=rng.normal(mu, sigma, n), label=label)


class TestReferenceFunction:
    def test_flat_evaluates_to_one(self):
        ref = ReferenceFunction.flat()
        assert ref.evaluate(3.7) == 1.0
        assert ref.evaluate(np.array([0.0, 5.0])) == pytest.approx([1.0, 1.0])
        assert ref.descriptor == "flat"

    def test_parametric_matches_family(self):
        fam = DensityFamily.cauchy(0.0, 0.7071)
        ref = ReferenceFunction.from_family(fam)
        assert ref.evaluate(0.0) == pytest.approx(1.0 / (math.pi * 0.7071))
        assert ref.descriptor == "cauchy:location=0,scale=0.7071"

    def test_tabulated_interpolates_inside(self):
        ref = ReferenceFunction.from_table([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert ref.evaluate(0.5) == pytest.approx(2.0)
        assert ref.descriptor == "table"

    def test_tabulated_errors_outside(self):
        ref = ReferenceFunction.from_table([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ReferenceFunctionError):
            ref.evaluate(1.5)

    def test_tabulated_rejects_nonpositive_values(self):
        with pytest.raises(ReferenceFunctionError):
            ReferenceFunction.from_table([0.0, 1.0], [1.0, 0.0])

    def test_table_descriptor_names_source(self):
        ref = ReferenceFunction.from_table([0.0, 1.0], [1.0, 1.0], source="r.csv")
        assert ref.descriptor == "table:r.csv"


class TestSurpriseFit:
    def test_flat_reference_recovers_posterior(self):
        est = kde_fit(normal_sample(n=2_000))
        s = surprise_fit(est, ReferenceFunction.flat(), 0.0)
        assert np.array_equal(s.values, est.values)
        assert s.s_star == kde_eval(est, 0.0)
        assert 0.0 <= s.relative_null_ratio <= 1.0

    def test_posterior_equal_to_reference_is_flat_surprise(self):
        est = kde_fit(normal_sample(n=2_000))
        ref = ReferenceFunction.from_table(est.grid, est.values)
        s = surprise_fit(est, ref, 0.0)
        assert s.values == pytest.approx(np.ones_like(s.values), rel=1e-12)
        assert s.s_star == pytest.approx(1.0, rel=1e-9)

    def test_example_refit_cauchy_surprise_exceeds_one_at_null(self, example_chain):
        est = kde_fit(example_chain)
        ref = ReferenceFunction.from_family(
            DensityFamily.cauchy(0.0, PRIOR_SCALE))
        s = surprise_fit(est, ref, 0.0)
        assert s.s_star > 1.0

    def test_reference_vanishing_at_null(self):
        est = kde_fit(normal_sample(mu=0.0, sigma=0.05, n=2_000))
        ref = ReferenceFunction.from_family(DensityFamily.normal(0.0, 0.05))
        with pytest.raises(ReferenceFunctionError):
            surprise_fit(est, ref, 40.0)

    def test_table_not_covering_grid(self):
        est = kde_fit(normal_sample(n=2_000))
        ref = ReferenceFunction.from_table([-0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ReferenceFunctionError):
            surprise_fit(est, ref, 0.0)

    def test_null_outside_grid_gives_zero_ratio(self):
        est = kde_fit(normal_sample(n=2_000))
        s = surprise_fit(est, ReferenceFunction.flat(), 50.0)
        assert s.s_star == 0.0
        assert s.relative_null_ratio == 0.0


class TestTangentialRegion:
    def test_null_at_mode_gives_empty_region(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), est.mode_location)
        region = tangential_region(s)
        assert not region.member_mask.any()
        assert region.interval_list == ()

    def test_far_null_makes_everything_member(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), 1e6)
        region = tangential_region(s)
        assert region.member_mask.all()
        assert len(region.interval_list) == 1

    def test_interior_null_gives_single_interval(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), 0.0)
        region = tangential_region(s)
        assert len(region.interval_list) == 1
        lo, hi = region.interval_list[0]
        assert lo <= est.mode_location <= hi

    def test_strict_inequality_excludes_ties(self):
        s = SurpriseFunction(grid=np.array([0.0, 1.0, 2.0, 3.0]),
                             values=np.array([1.0, 2.0, 2.0, 3.0]),
                             s_star=2.0, null_value=0.0,
                             s0_posterior_density=0.5, mode_surprise=3.0,
                             relative_null_ratio=0.5)
        region = tangential_region(s)
        assert region.member_mask.tolist() == [False, False, False, True]

    def test_mask_and_intervals_agree(self):
        grid = np.arange(5.0)
        mask = np.array([False, True, True, False, True])
        region = TangentialRegion.from_mask(mask, grid)
        assert region.interval_list == ((1.0, 2.0), (4.0, 4.0))
        # the lone member node 4 makes an interval but no segment
        assert region.member_segments.tolist() == [False, True, False, False]


class TestEvalueEstimators:
    def test_empty_region_gives_zero(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), est.mode_location)
        assert evalue_grid(est, tangential_region(s)) == 0.0

    def test_full_region_gives_one(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), 1e6)
        assert evalue_grid(est, tangential_region(s)) == 1.0

    def test_normal_posterior_oracle(self):
        sample = normal_sample(mu=1.0, n=200_000, seed=12)
        est = kde_fit(sample)
        s = surprise_fit(est, ReferenceFunction.flat(), 0.0)
        region = tangential_region(s)
        expected = math.erf(1.0 / math.sqrt(2.0))
        assert evalue_grid(est, region) == pytest.approx(expected, abs=0.01)
        assert evalue_mc(sample, s) == pytest.approx(expected, abs=0.01)

    def test_mc_zero_when_nothing_exceeds(self):
        sample = normal_sample(n=5_000)
        est = kde_fit(sample)
        s = surprise_fit(est, ReferenceFunction.flat(), est.mode_location)
        assert evalue_mc(sample, s) == 0.0

    def test_mc_one_when_null_surprise_is_zero(self):
        sample = normal_sample(n=5_000)
        est = kde_fit(sample)
        s = surprise_fit(est, ReferenceFunction.flat(), 1e6)
        assert evalue_mc(sample, s) == 1.0

    def test_region_must_match_grid(self):
        est = kde_fit(normal_sample(n=2_000))
        region = TangentialRegion.from_mask(np.array([True, False]),
                                            np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            evalue_grid(est, region)


class TestPvalueEvalue:
    def test_null_at_mode_gives_one(self):
        assert pvalue_evalue(1.0, 3, 2) == 1.0

    def test_vanishing_ratio_limit(self):
        assert pvalue_evalue(1e-300, 3, 2) < 1e-12

    def test_example1_fixture(self):
        # inverting the printed p-value 0.1461029 at k=3, h=2 gives this ratio
        assert pvalue_evalue(0.347761892566, 3, 2) \
            == pytest.approx(0.1461029, abs=1e-4)

    def test_does_not_depend_on_reference(self, example_chain):
        est = kde_fit(example_chain)
        flat = surprise_fit(est, ReferenceFunction.flat(), 0.0)
        cauchy = surprise_fit(
            est, ReferenceFunction.from_family(
                DensityFamily.cauchy(0.0, PRIOR_SCALE)), 0.0)
        assert flat.relative_null_ratio == cauchy.relative_null_ratio
        assert pvalue_evalue(flat.relative_null_ratio, 3, 2) \
            == pvalue_evalue(cauchy.relative_null_ratio, 3, 2)

    @pytest.mark.parametrize("ratio", [0.0, -0.2, 1.1])
    def test_ratio_domain(self, ratio):
        with pytest.raises(DomainError):
            pvalue_evalue(ratio, 3, 2)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            pvalue_evalue(0.5, 2, 2)


class TestStandardizedEvalue:
    @pytest.mark.parametrize("ev,k,h,expected", SEV_FIXTURES)
    def test_printed_fixtures(self, ev, k, h, expected):
        _, sev = standardized_evalue(ev, k, h)
        assert sev == pytest.approx(expected, rel=1e-3)

    def test_boundary_continuity(self):
        assert standardized_evalue(0.0, 3, 2) == (0.0, 1.0)
        assert standardized_evalue(1.0, 3, 2) == (1.0, 0.0)

    def test_complement_structure(self):
        sev_against, sev = standardized_evalue(0.77, 5, 3)
        assert sev_against + sev == pytest.approx(1.0, abs=1e-15)
        assert sev_against \
            == pytest.approx(chisq_cdf(chisq_quantile(0.77, 5), 2), abs=1e-14)

    def test_monotone_nonincreasing_in_evalue(self):
        grid = np.linspace(0.001, 0.999, 999)
        sevs = [standardized_evalue(float(ev), 3, 2)[1] for ev in grid]
        assert all(b <= a + 1e-14 for a, b in zip(sevs, sevs[1:]))

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            standardized_evalue(0.5, 3, 3)
        with pytest.raises(DimensionError):
            standardized_evalue(0.5, 3, -1)

    def test_evalue_domain(self):
        with pytest.raises(DomainError):
            standardized_evalue(1.2, 3, 2)


class TestFbst:
    def test_normal_posterior_closed_form(self):
        sample = normal_sample(mu=1.0, n=200_000, seed=21)
        result = fbst(sample, 0.0, 3, 2)
        expected = math.erf(1.0 / math.sqrt(2.0))
        assert result.e_value_against == pytest.approx(expected, abs=0.01)
        computed = standardized_evalue(result.e_value_against, 3, 2)
        assert result.sev_against == computed[0]
        assert result.sev == computed[1]

    def test_null_at_mode(self):
        sample = normal_sample(n=50_000, seed=5)
        mode = kde_fit(sample).mode_location
        result = fbst(sample, mode, 3, 2)
        assert result.e_value_against < 1e-3
        assert result.sev > 0.9
        assert result.p_value == 1.0

    def test_far_null_ceiling(self):
        sample = normal_sample(n=50_000, seed=6)
        result = fbst(sample, 1e4, 3, 2)
        assert result.e_value_against >= 1.0 - 1e-6
        assert result.p_value == 0.0
        assert result.sev == 0.0

    def test_example_refit_band(self, example_chain):
        result = fbst(example_chain, 0.0, 3, 2)
        assert 0.75 <= result.e_value_against <= 0.91

    def test_complementarity_exact(self):
        for seed, null in ((1, 0.0), (2, 0.7), (3, -1.3), (4, 2.2)):
            result = fbst(normal_sample(n=10_000, seed=seed), null, 3, 2)
            assert result.e_value_against + result.e_value_in_favor == 1.0

    def test_monotone_evidence_in_displacement(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal(30_000)
        evs = []
        for mu in np.arange(0.0, 3.25, 0.25):
            sample = PosteriorSample(draws=base + mu, label="theta")
            evs.append(fbst(sample, 0.0, 3, 2).e_value_against)
        assert all(b >= a - 1e-9 for a, b in zip(evs, evs[1:]))

    def test_default_reference_is_flat(self):
        sample = normal_sample(n=10_000)
        assert fbst(sample, 0.0, 3, 2).reference_descriptor == "flat"

    def test_monte_carlo_estimator_recorded(self):
        sample = normal_sample(n=10_000)
        result = fbst(sample, 0.0, 3, 2, estimator="monte_carlo")
        assert result.estimator == "monte_carlo"

    def test_unknown_estimator(self):
        with pytest.raises(DomainError):
            fbst(normal_sample(n=10_000), 0.0, 3, 2, estimator="exact")

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            fbst(normal_sample(n=10_000), 0.0, 2, 2)


class TestFbstResultInvariants:
    def _fields(self):
        sev_against, sev = standardized_evalue(0.7, 3, 2)
        return dict(e_value_against=0.7, e_value_in_favor=0.3, p_value=0.4,
                    sev_against=sev_against, sev=sev, dim_theta=3, dim_null=2,
                    null_value=0.0, reference_descriptor="flat",
                    estimator="grid", mode_location=0.5, mode_density=0.4,
                    relative_null_ratio=0.6)

    def test_accepts_consistent_fields(self):
        assert FbstResult(**self._fields()).e_value_against == 0.7

    def test_rejects_broken_complementarity(self):
        fields = self._fields() | {"e_value_in_favor": 0.31}
        with pytest.raises(DomainError):
            FbstResult(**fields)

    def test_rejects_out_of_range_probability(self):
        fields = self._fields() | {"p_value": 1.5}
        with pytest.raises(DomainError):
            FbstResult(**fields)

    def test_rejects_bad_dimensions(self):
        fields = self._fields() | {"dim_null": 3}
        with pytest.raises(DimensionError):
            FbstResult(**fields)
