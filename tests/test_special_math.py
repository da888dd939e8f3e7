import copy
import hashlib
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from fbst import DensityFamily, DomainError, ReferenceFunction, chisq_cdf, \
    chisq_pdf, chisq_quantile, density_eval, special_math

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


def reg_lower_incomplete_gamma(a, x):
    """P(a, x) = F_2a(2x): halving is exact, so the chi-square CDF gives P bit for bit."""
    return chisq_cdf(2.0 * x, 2.0 * a)


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


class TestChisqSf:
    XS = [0.0, *np.geomspace(1e-3, 1400.0, 120)]

    def test_df1_erfc_to_1400(self):
        for x in self.XS:
            assert special_math.chisq_sf(x, 1.0) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0)), rel=1e-12, abs=0.0)

    def test_df2_exp_to_1400(self):
        for x in self.XS:
            assert special_math.chisq_sf(x, 2.0) == pytest.approx(
                math.exp(-x / 2.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df", [0.5, 1, 2, 3, 7, 50])
    def test_one_minus_cdf_below_the_fraction_and_near_it_above(self, df):
        for x in np.linspace(0.0, df + 2.0 + 60.0, 400):
            tail, rest = special_math.chisq_sf(x, df), 1.0 - chisq_cdf(x, df)
            if x / 2.0 < df / 2.0 + 1.0:
                assert tail == rest  # the same bits as before the upper tail
            else:
                assert abs(tail - rest) <= 1.2e-16
                assert chisq_cdf(x, df) == 1.0 - tail  # P from the same Q

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            special_math.chisq_sf(-1.0, 3.0)
        with pytest.raises(DomainError):
            special_math.chisq_sf(5.0, 0.0)


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

    # At df = 2 the bracket starts at x = 62, where F = 1 - exp(-31), so it
    # doubles only for p above 1 - 3.4e-14: this p reaches that branch.
    def test_near_one_matches_the_df2_closed_form(self):
        p = 1.0 - 1e-14
        assert chisq_quantile(p, 2.0) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-9)

    # the other rows of the near-one table: 50-digit values of the upper-tail
    # inverse at q = 1 - p, and for df = 3 the closed form
    # Q(x) = erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2)
    @pytest.mark.parametrize("p,df,expected", [
        (1.0 - 1e-15, 2.0, 69.079151984681764033),
        (1.0 - 1e-14, 3.0, 68.274612538651647873),
        (1.0 - 1e-15, 3.0, 72.944138671129390748),
    ])
    def test_near_one_rows(self, p, df, expected):
        x = chisq_quantile(p, df)
        assert x == pytest.approx(expected, rel=1e-12)
        if df == 3.0:
            upper = math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
            assert upper / (1.0 - p) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("df", [0.5, 1, 2, 3, 8, 30, 1000])
    @pytest.mark.parametrize("q", [9.9e-5, 1e-8, 1e-12, 2 ** -53])
    def test_upper_tail_round_trip(self, q, df):
        x = chisq_quantile(1.0 - q, df)
        q = 1.0 - (1.0 - q)  # the upper tail the call was given
        assert special_math.chisq_sf(x, df) / q == pytest.approx(1.0, rel=1e-12)

    # recorded before the upper-tail inversion, from a grid drawn with
    # default_rng(2718) plus rows near both ends; each 1 - p is at least 1e-4
    @pytest.mark.parametrize("p,df,expected", [
        (0.2651852080904956, 1, 0.11473652622279107),
        (0.0076099478193862365, 1, 9.096962488451611e-05),
        (0.8649440558948897, 3, 5.560646570121897),
        (0.5867328048305722, 8, 8.209612316485721),
        (0.14093480742575418, 3, 0.7597620149206336),
        (0.3334830328672533, 30, 26.16824009448741),
        (0.25658002625578086, 1, 0.10714348382485187),
        (0.184283086532611, 5, 2.235328339071995),
        (0.2004792509784401, 1, 0.06449943667546668),
        (0.3542546801291314, 30, 26.57005645585956),
        (0.8903469324737047, 2, 4.420867657787084),
        (0.5513059838123615, 12, 11.962524765473349),
        (0.12447597383279138, 1, 0.024537898207415858),
        (0.8034007469779649, 3, 4.682244290537927),
        (0.7676073242519879, 12, 15.167711764188043),
        (0.188029030023672, 3, 0.9556937868309936),
        (0.16456562078508796, 2, 0.3596069495347304),
        (0.3606574461454766, 1, 0.21960303303753248),
        (0.08554068839572186, 1, 0.011538102320530902),
        (0.1611697969553716, 2, 0.3514939463158157),
        (1e-12, 3, 2.417987942718026e-08),
        (1e-09, 8, 0.02495550624836611),
        (0.99, 1, 6.634896601021213),
        (0.9995, 30, 62.161852869180684),
        (0.9998, 2, 17.034386382832693),
        (0.9998, 12, 37.29607541480983),
    ])
    def test_lower_path_unchanged(self, p, df, expected):
        assert chisq_quantile(p, df) == expected


class TestChisqPdf:
    def test_matches_cdf_derivative(self):
        x, df, eps = 4.0, 3.0, 1e-6
        numeric = (chisq_cdf(x + eps, df) - chisq_cdf(x - eps, df)) / (2 * eps)
        assert chisq_pdf(x, df) == pytest.approx(numeric, rel=1e-6)

    def test_negative_is_zero(self):
        assert chisq_pdf(-1.0, 3.0) == 0.0

    @pytest.mark.parametrize("df,expected", [(1.0, math.inf), (2.0, 0.5), (3.0, 0.0)])
    def test_at_zero(self, df, expected):
        assert chisq_pdf(0.0, df) == expected


CHISQ_FUNCTIONS = {"pdf": chisq_pdf, "cdf": chisq_cdf, "sf": special_math.chisq_sf,
                   "quantile": chisq_quantile}


@pytest.mark.parametrize("name", list(CHISQ_FUNCTIONS))
@pytest.mark.parametrize("first,df", [(math.nan, 3.0), (math.inf, 3.0), (-math.inf, 3.0),
                                      (0.5, math.nan), (0.5, math.inf)])
def test_nan_or_infinite_argument_is_a_domain_error(name, first, df):
    """A NaN fails every ordered comparison, so each check must be one a NaN fails."""
    with pytest.raises(DomainError):
        CHISQ_FUNCTIONS[name](first, df)


@pytest.mark.parametrize("name", ["cdf", "sf", "quantile"])
def test_subnormal_df_is_a_domain_error(name):
    # df / 2 rounds to zero, where the series and the fraction are undefined
    with pytest.raises(DomainError, match="degrees of freedom must be positive and finite"):
        CHISQ_FUNCTIONS[name](0.5, 5e-324)


class TestDfLimit:
    """Up to MAX_DF each call agrees with an independent implementation to 1e-10
    relative to the smaller tail; past it each one is a DomainError."""

    @pytest.mark.parametrize("name", list(CHISQ_FUNCTIONS))
    @pytest.mark.parametrize("df", [10_000.5, 1e5, 1e17, 10 ** 20, 10 ** 400],
                             ids=["10000.5", "1e5", "1e17", "int1e20", "int1e400"])
    def test_past_the_limit_is_a_domain_error(self, name, df):
        with pytest.raises(DomainError, match=re.escape(f"at most 10000, got {df}")):
            CHISQ_FUNCTIONS[name](0.5, df)

    @pytest.mark.parametrize("df", [special_math.MAX_DF, special_math.MAX_DF - 0.5])
    def test_both_loops_converge_at_the_limit(self, df):
        # both loops are longest at x/2 = df/2 + 1, where the series hands over
        for x in (df + 2.0 - 1e-9, df + 2.0, df, df + 2.0 + math.sqrt(2.0 * df)):
            tail = special_math.chisq_sf(x, df)
            assert 0.0 < tail < 1.0 and chisq_cdf(x, df) < 1.0
        assert 0.0 < chisq_quantile(0.5, df) < df

    def test_an_unconverged_loop_raises(self, monkeypatch):
        monkeypatch.setattr(special_math, "_ITMAX", 5)
        with pytest.raises(DomainError, match="series did not converge at df = 50"):
            chisq_cdf(49.0, 50.0)
        with pytest.raises(DomainError, match="fraction did not converge at df = 50"):
            chisq_cdf(60.0, 50.0)

    def test_converged_values_keep_their_bits(self):
        """pdf, both tails and both quantile branches over a seeded grid with df up
        to 5000, where every loop converged before the limit: the digest was
        recorded from the code before it."""
        rng = np.random.default_rng(2810)
        out = []
        for df, z, p in zip(10.0 ** rng.uniform(math.log10(0.5), math.log10(5000.0), 300),
                            rng.uniform(-12.0, 12.0, 300), rng.uniform(0.0, 1.0, 300)):
            df, p = float(df), float(p)
            x = abs(df + float(z) * math.sqrt(2.0 * df))
            q = 1.0 - 10.0 ** -(1.0 + 14.0 * p)  # the upper-tail branch from 1 - p = 0.1
            out += [chisq_pdf(x, df), chisq_cdf(x, df), special_math.chisq_sf(x, df),
                    chisq_quantile(p, df), chisq_quantile(q, df)]
        assert hashlib.sha256(np.array(out).tobytes()).hexdigest() == \
            "512d95644870e58bb591fb291229528bf55abb551d6e0dcb1e3a1e5a21a618e3"

    def test_matches_scipy_up_to_the_limit(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        rng = np.random.default_rng(5)
        for df in [0.5, 1.0, 2.0, 3.0, 50.0, 1000.0, 10_000.0,
                   *10.0 ** rng.uniform(math.log10(0.5), 4.0, 60)]:
            df = float(df)
            for z in (*np.linspace(-10.0, 10.0, 21), 20.0, 40.0):
                x = df + z * math.sqrt(2.0 * df)
                if x <= 0:
                    continue
                lower, upper = chi2.cdf(x, df), chi2.sf(x, df)
                ours = chisq_cdf(x, df) if lower <= upper else special_math.chisq_sf(x, df)
                assert abs(ours - min(lower, upper)) <= 1e-10 * min(lower, upper), (x, df)
                assert chisq_pdf(x, df) == pytest.approx(chi2.pdf(x, df), rel=1e-10)
            for p in (1e-12, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-6):
                assert chisq_quantile(p, df) == pytest.approx(chi2.ppf(p, df), rel=1e-10)
        for df in (10_000.5, 1e5, 1e17):
            with pytest.raises(DomainError):
                chisq_cdf(df, df)


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
        mass = float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(xs)))
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
