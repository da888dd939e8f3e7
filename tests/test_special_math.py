import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from fbst import DensityFamily, DomainError, ReferenceFunction, chisq_cdf, \
    chisq_pdf, chisq_quantile, density_eval, reg_lower_incomplete_gamma, \
    special_math

FAMILIES = [DensityFamily.normal(0.3, 1.7), DensityFamily.cauchy(-1.0, 0.7071),
            DensityFamily.student_t(0.0, 1.0, 7.0)]
ROUND_TRIPS = [pytest.param(lambda x: pickle.loads(pickle.dumps(x)), id="pickle"),
               pytest.param(copy.deepcopy, id="deepcopy"),
               pytest.param(copy.copy, id="copy")]

# frozen against a 50-digit arbitrary-precision series evaluation
GAMMA_P_PINS = [
    (0.25, 0.75, 0.899936513284498218),
    (0.5, 1e-8, 0.000112837916333424871),
    (0.5, 0.25, 0.520499877813046538),
    (1.5, 2.5, 0.828202855703266865),
    (2.0, 3.0, 0.800851726528544228),
    (3.5, 40.0, 0.999999999999986225),
    (5.0, 2.0, 0.0526530173437111567),
    (5.0, 12.0, 0.992399609318933005),
    (17.5, 17.0, 0.483766800643960766),
    (50.0, 40.0, 0.0703350666593949544),
    (50.0, 65.0, 0.976487602190191324),
    (100.0, 100.0, 0.513298798279148665),
    (200.0, 170.0, 0.0134185800902117849),
    (200.0, 245.0, 0.998621574775436847),
]


class TestRegLowerIncompleteGamma:
    def test_lower_limit(self):
        assert reg_lower_incomplete_gamma(1.0, 0.0) == 0.0

    def test_exponential_closed_form(self):
        assert reg_lower_incomplete_gamma(1.0, math.log(2.0)) \
            == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("a,x,expected", GAMMA_P_PINS)
    def test_pinned_values(self, a, x, expected):
        assert reg_lower_incomplete_gamma(a, x) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 200)
        ps = [reg_lower_incomplete_gamma(2.5, x) for x in xs]
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert ps[0] == 0.0
        assert ps[-1] < 1.0

    def test_saturates_at_one(self):
        assert reg_lower_incomplete_gamma(3.0, 500.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5)])
    def test_domain_errors(self, a, x):
        with pytest.raises(DomainError):
            reg_lower_incomplete_gamma(a, x)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 4.0, 25.0])
    def test_loops_bit_equal_to_abs_tests(self, a):
        """Both loops decide as the abs()-based tests did: same values, bit for bit."""
        xs = [1e-8, 0.1, 0.5 * (a + 1.0), a, a + 1.0 - 1e-9, a + 1.0,
              a + 1.0 + 1e-9, 1.5 * (a + 1.0), a + 10.0, 4.0 * a + 40.0]
        for x in xs:
            assert reg_lower_incomplete_gamma(a, x) == _abs_tested_gamma_p(a, x), x


def _abs_tested_gamma_p(a, x):
    """P(a, x) by the series and continued-fraction loops with abs() tests."""
    eps, fpmin = 1e-15, 1e-300
    if x < a + 1.0:
        ap, total = a, 1.0 / a
        term = total
        for _ in range(500):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * eps:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    b = x + 1.0 - a
    c, d = 1.0 / fpmin, 1.0 / b
    h = d
    for i in range(1, 501):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < fpmin:
            d = fpmin
        c = b + an / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return 1.0 - math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


class TestChisqCdf:
    def test_at_origin(self):
        assert chisq_cdf(0.0, 3.0) == 0.0

    def test_df2_closed_form_point(self):
        assert chisq_cdf(2.0 * math.log(2.0), 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_example1_fixture(self):
        assert chisq_cdf(5.0341, 3.0) == pytest.approx(0.8305998, abs=1e-4)

    def test_df2_closed_form_sweep(self):
        for x in np.linspace(0.0, 40.0, 81):
            assert chisq_cdf(x, 2.0) == pytest.approx(1.0 - math.exp(-x / 2.0),
                                                      abs=1e-12)

    def test_df1_erf_sweep(self):
        for x in np.linspace(0.0, 40.0, 81):
            assert chisq_cdf(x, 1.0) == pytest.approx(math.erf(math.sqrt(x / 2.0)),
                                                      abs=1e-12)

    @pytest.mark.parametrize("df", [0.5, 1, 2, 3, 7, 8, 50])
    def test_monotone_into_unit_interval(self, df):
        xs = np.linspace(0.0, 200.0, 300)
        ps = [chisq_cdf(x, df) for x in xs]
        assert ps[0] == 0.0
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert all(0.0 <= p <= 1.0 for p in ps)
        # strictly below 1 wherever the upper tail is representable
        assert all(chisq_cdf(x, df) < 1.0 for x in np.linspace(0.0, 40.0, 50))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chisq_cdf(-1.0, 3.0)
        with pytest.raises(DomainError):
            chisq_cdf(1.0, 0.0)


class TestChisqQuantile:
    def test_zero_quantile(self):
        assert chisq_quantile(0.0, 5.0) == 0.0

    def test_df2_analytic_inverse(self):
        assert chisq_quantile(0.5, 2.0) == pytest.approx(2.0 * math.log(2.0),
                                                         abs=1e-10)

    def test_example1_roundtrip(self):
        assert chisq_cdf(chisq_quantile(0.8306, 3.0), 3.0) \
            == pytest.approx(0.8306, abs=1e-10)

    @pytest.mark.parametrize("df", [1, 2, 3, 7, 8, 50])
    def test_roundtrip_grid(self, df):
        for p in np.arange(0.001, 0.9995, 0.007):
            p = float(p)
            err = abs(chisq_cdf(chisq_quantile(p, df), df) - p)
            assert err < 1e-10, f"p={p} df={df} err={err}"

    def test_extreme_tails(self):
        for p in (1e-9, 1e-4, 0.9999, 1.0 - 1e-9):
            assert chisq_cdf(chisq_quantile(p, 3.0), 3.0) \
                == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("df", [1, 2, 3, 8])
    @pytest.mark.parametrize("p", [1e-12, 1e-9, 1e-6])
    def test_small_p_relative_accuracy(self, p, df):
        x = chisq_quantile(p, df)
        assert x > 0.0
        assert abs(chisq_cdf(x, df) / p - 1.0) <= 1e-12

    @pytest.mark.parametrize("df", [1, 3, 8])
    def test_few_cdf_evaluations(self, df, monkeypatch):
        calls = []

        def counted(x, d):
            calls.append(x)
            return chisq_cdf(x, d)

        monkeypatch.setattr(special_math, "chisq_cdf", counted)
        ps = np.arange(0.001, 0.999, 0.007)
        for p in ps:
            special_math.chisq_quantile(float(p), df)
        assert len(calls) / ps.size <= 6.0

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(DomainError):
            chisq_quantile(p, 3.0)


class TestChisqPdf:
    def test_matches_cdf_derivative(self):
        x, df, eps = 4.0, 3.0, 1e-6
        numeric = (chisq_cdf(x + eps, df) - chisq_cdf(x - eps, df)) / (2 * eps)
        assert chisq_pdf(x, df) == pytest.approx(numeric, rel=1e-6)

    def test_negative_is_zero(self):
        assert chisq_pdf(-1.0, 3.0) == 0.0


class TestDensityFamily:
    def test_standard_cauchy_mode(self):
        assert density_eval(DensityFamily.cauchy(0.0, 1.0), 0.0) \
            == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_normal_mode(self):
        assert density_eval(DensityFamily.normal(0.0, 2.5), 0.0) \
            == pytest.approx(1.0 / (2.5 * math.sqrt(2.0 * math.pi)), abs=1e-15)

    def test_vectorized_matches_scalar(self):
        fam = DensityFamily.student_t(1.0, 2.0, 5.0)
        xs = np.array([-3.0, 0.0, 1.0, 4.5])
        vec = density_eval(fam, xs)
        assert vec == pytest.approx([density_eval(fam, float(x)) for x in xs])

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_normalization(self, fam):
        scale = fam.params.get("sd") or fam.params.get("scale")
        center = fam.params.get("mean") or fam.params.get("location") or 0.0
        xs = np.linspace(center - 40.0 * scale, center + 40.0 * scale, 400_001)
        values = density_eval(fam, xs)
        assert np.all(values >= 0)
        mass = np.trapezoid(values, xs)
        # Cauchy tails hold ~1.1% of mass beyond 40 scale units; the
        # spec-level 1e-6 normalization check applies to the others
        tol = 0.02 if fam.family == "cauchy" else 1e-6
        assert mass == pytest.approx(1.0, abs=tol)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            DensityFamily("triangular", {})
        with pytest.raises(DomainError):
            DensityFamily("normal", {"mean": 0.0})
        with pytest.raises(DomainError):
            DensityFamily.normal(0.0, -1.0)
        with pytest.raises(DomainError):
            DensityFamily.student_t(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            DensityFamily.cauchy(math.nan, 1.0)

    @pytest.mark.parametrize("roundtrip", ROUND_TRIPS)
    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.family)
    def test_round_trip_keeps_read_only_equal_params(self, fam, roundtrip):
        twin = roundtrip(fam)
        assert twin == fam and dict(twin.params) == dict(fam.params)
        with pytest.raises(TypeError):
            twin.params["df"] = -2.0
        ref = ReferenceFunction.from_family(fam)
        ref_twin = roundtrip(ref)
        assert ref_twin.family == fam and ref_twin.descriptor == ref.descriptor
        xs = np.linspace(-5.0, 5.0, 11)
        assert np.array_equal(ref_twin.evaluate(xs), density_eval(fam, xs))

    @pytest.mark.parametrize("fam", [DensityFamily.normal(0.0, 1e-300),
                                     DensityFamily.cauchy(0.0, 1e-300),
                                     DensityFamily.student_t(0.0, 1e-300, 3.0)],
                             ids=lambda f: f.family)
    def test_tiny_scale_is_zero_off_center_without_warning(self, fam):
        xs = np.linspace(-2.0, 2.0, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = density_eval(fam, xs)
            center = density_eval(fam, 0.0)
        assert np.all(np.delete(values, 4) == 0.0)
        assert values[4] == center and 0.0 < center < math.inf
