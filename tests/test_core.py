import copy
import math
import pickle
import random
import sys
import threading
import warnings

import numpy as np
import pytest

from fbst import core
from fbst import (DensityEstimate, DensityFamily, DimensionError, DomainError,
                  FbstResult, PosteriorSample, ReferenceFunction,
                  ReferenceFunctionError, SurpriseFunction, chisq_cdf,
                  chisq_quantile, evalue_grid, evalue_mc, fbst, kde_eval,
                  kde_fit, pvalue_evalue, standardized_evalue, surprise_fit)
from fbst.oracle import SEV_FIXTURES

PRIOR_SCALE = math.sqrt(2.0) / 2.0


def normal_sample(mu=1.0, sigma=1.0, n=100_000, seed=8, label="theta"):
    rng = np.random.default_rng(seed)
    return PosteriorSample(draws=rng.normal(mu, sigma, n), label=label)


def hand_surprise(values, s_star):
    """A surprise function over a uniform posterior on the grid 0, 1, 2, ..."""
    grid = np.arange(float(len(values)))
    flat = np.full(grid.size, 1.0 / (grid[-1] - grid[0]))
    posterior = DensityEstimate(grid=grid, values=flat, bandwidth=1.0)
    return SurpriseFunction(posterior=posterior, values=np.asarray(values, dtype=float),
                            s_star=s_star, null_value=0.0,
                            s0_posterior_density=float(flat[0]))


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

    @pytest.mark.parametrize("value", [math.sqrt(0.5), 1.0 / 3.0, 2.5, 1e-7, 0.0])
    def test_descriptor_reads_back_exactly(self, value):
        fam = DensityFamily.student_t(location=value, scale=value or 1.0, df=value or 3.0)
        text = ReferenceFunction.from_family(fam).descriptor
        pairs = dict(pair.split("=") for pair in text.split(":", 1)[1].split(","))
        assert {name: float(number) for name, number in pairs.items()} == fam.params

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

    def test_source_without_table_is_rejected(self):
        with pytest.raises(DomainError, match="'r.csv' has no table"):
            ReferenceFunction(source="r.csv")

    def test_descriptor_follows_family_or_table(self):
        ref = ReferenceFunction(family=DensityFamily.cauchy(0, 1))
        assert ref.descriptor == "cauchy:location=0,scale=1"
        assert ref.evaluate(0.0) == pytest.approx(1.0 / math.pi)
        assert ReferenceFunction().descriptor == "flat"
        with pytest.raises(DomainError, match="not both"):
            ReferenceFunction(family=DensityFamily.cauchy(0, 1),
                              grid=[0.0, 1.0], values=[1.0, 1.0])


PARSED_FAMILIES = {
    "flat": None,
    "normal": DensityFamily.normal(1.5, 2.5),
    "cauchy": DensityFamily.cauchy(0.0, PRIOR_SCALE),  # the scale prints via repr
    "student_t": DensityFamily.student_t(0.25, 1.0 / 3.0, 4.0),
    "negative_zero_mean": DensityFamily.normal(-0.0, 1.0),
}


class TestReferenceParse:
    @pytest.mark.parametrize("name", list(PARSED_FAMILIES))
    def test_parse_inverts_descriptor(self, name):
        fam = PARSED_FAMILIES[name]
        ref = ReferenceFunction.flat() if fam is None else ReferenceFunction.from_family(fam)
        parsed = ReferenceFunction.parse(ref.descriptor)
        assert parsed.descriptor == ref.descriptor
        grid = np.linspace(-6.0, 6.0, 1001)
        assert parsed.evaluate(grid).tobytes() == ref.evaluate(grid).tobytes()
        # a test with the parsed reference reads the table the original left
        sample = normal_sample(n=5_000)
        fbst(sample, 0.3, 3, 2, reference=ref)
        est = kde_fit(sample)
        kept = est._surprise_tables
        assert fbst(sample, 0.7, 3, 2, reference=parsed) == \
            fbst(normal_sample(n=5_000), 0.7, 3, 2, reference=ref)
        assert est._surprise_tables is kept and len(kept) == 1

    def test_descriptor_details_survive(self):
        cauchy = ReferenceFunction.from_family(PARSED_FAMILIES["cauchy"]).descriptor
        assert cauchy == "cauchy:location=0,scale=0.7071067811865476"
        zero = ReferenceFunction.parse("normal:mean=-0,sd=1").family.params["mean"]
        assert math.copysign(1.0, zero) == -1.0
        assert ReferenceFunction.parse("flat") is ReferenceFunction.flat()
        spaced = ReferenceFunction.parse("normal: sd = 2 ,mean=0,")
        assert spaced.descriptor == "normal:mean=0,sd=2"

    @pytest.mark.parametrize("text,problem", [
        ("normal:mean=0,sd=1,sd=0.5", "parameter 'sd' is given twice"),
        ("normal:mean=0,sd=1,mean=0", "parameter 'mean' is given twice"),
        ("cauchy:scale", "parameter 'scale' is not key=value"),
        ("normal:mean=zero,sd=1", "could not convert string to float: 'zero'"),
        ("normal:mean=0,sd=-1", "parameter 'sd' must be positive, got -1.0"),
        ("normal:mean=0", "family 'normal' takes parameters ['mean', 'sd'], got ['mean']"),
        ("gamma:shape=2", "unknown density family 'gamma'"),
        ("table:r.csv", "a table is read from its file by io.load_reference_table"),
    ])
    def test_parse_rejects_with_the_cause(self, text, problem):
        with pytest.raises(DomainError) as err:
            ReferenceFunction.parse(text)
        assert str(err.value) == f"bad reference descriptor {text!r}: {problem}"


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

    def test_values_must_match_posterior_grid(self):
        est = kde_fit(normal_sample(n=2_000))
        with pytest.raises(DomainError, match="do not match the posterior grid"):
            SurpriseFunction(posterior=est, values=est.values[:-1], s_star=0.1,
                             null_value=0.0, s0_posterior_density=0.1)


TINY_SCALE_FAMILIES = [DensityFamily.normal(0.0, 1e-300),
                       DensityFamily.cauchy(0.0, 1e-300),
                       DensityFamily.student_t(0.0, 1e-300, 3.0)]


def _references():
    """One reference of each kind; the table covers a N(1, 1) sample's grid."""
    grid = np.linspace(-8.0, 10.0, 2001)
    return {
        "flat": ReferenceFunction.flat(),
        "normal": ReferenceFunction.from_family(DensityFamily.normal(0.0, 2.5)),
        "cauchy": ReferenceFunction.from_family(DensityFamily.cauchy(0.0, PRIOR_SCALE)),
        "student_t": ReferenceFunction.from_family(DensityFamily.student_t(0.0, 1.0, 3.0)),
        "table": ReferenceFunction.from_table(grid, np.exp(-0.5 * (grid / 2.5) ** 2),
                                              "r.csv"),
    }


class TestSurpriseTables:
    """A fit keeps p / r per reference; tests on it match fresh fits bit for bit."""

    NULLS = (-0.4, 0.3, 1.0, 1.8, 2.9)
    ROUNDTRIPS = {"pickle": [lambda x, p=p: pickle.loads(pickle.dumps(x, p))
                             for p in range(pickle.HIGHEST_PROTOCOL + 1)],
                  "deepcopy": [copy.deepcopy]}

    @pytest.mark.parametrize("estimator", ["grid", "monte_carlo"])
    @pytest.mark.parametrize("name", [*_references(), "cauchy_rebuilt"])
    def test_kept_fit_matches_fresh_computation(self, name, estimator):
        ref = _references()[name.removesuffix("_rebuilt")]
        # "cauchy_rebuilt" builds an equal Cauchy reference anew for every call
        rebuilt = name.endswith("_rebuilt")
        own = (lambda: _references()["cauchy"]) if rebuilt else (lambda: ref)
        sample = normal_sample(n=5_000)
        est = kde_fit(sample)
        for _ in range(2):  # the second pass reads the kept table
            for null in self.NULLS:
                kept = fbst(sample, null, 3, 2, reference=own(), estimator=estimator)
                fresh = fbst(normal_sample(n=5_000), null, 3, 2, reference=ref,
                             estimator=estimator)
                assert kept == fresh
                s = surprise_fit(est, own(), null)
                assert np.array_equal(s.values, est.values / ref.evaluate(est.grid))
        key = ref if name == "table" else ref.descriptor  # a table by identity
        assert [held for held, _ in est._surprise_tables] == [key]

    def test_default_reference_shares_the_flat_table(self):
        sample = normal_sample(n=5_000)
        flat = ReferenceFunction.flat()
        fbst(sample, 0.3, 3, 2)
        kept = kde_fit(sample)._surprise_tables
        assert fbst(sample, 0.7, 3, 2, reference=flat) == \
            fbst(sample, 0.7, 3, 2, reference=ReferenceFunction())
        assert kde_fit(sample)._surprise_tables is kept
        assert [key for key, _ in kept] == [flat.descriptor]

    def test_flat_is_one_instance_and_descriptors_are_kept(self):
        flat = ReferenceFunction.flat()
        assert flat is ReferenceFunction.flat()
        for ref in _references().values():
            assert ref.descriptor is ref.descriptor

    def test_tables_with_one_source_keep_their_own_values(self):
        grid = np.linspace(-8.0, 10.0, 2001)
        wide, narrow = (ReferenceFunction.from_table(
            grid, np.exp(-0.5 * (grid / sd) ** 2), "r.csv") for sd in (2.5, 1.5))
        assert wide.descriptor == narrow.descriptor
        sample = normal_sample(n=5_000)
        kept = [fbst(sample, 0.2, 3, 2, reference=ref)
                for ref in (wide, narrow, wide, narrow)]
        fresh = [fbst(normal_sample(n=5_000), 0.2, 3, 2, reference=ref)
                 for ref in (wide, narrow)]
        assert kept[0].e_value_against != kept[1].e_value_against
        assert kept == fresh * 2

    def test_vanishing_reference_raises_each_call_and_stores_nothing(self):
        sample = normal_sample(n=5_000)
        fbst(sample, 0.5, 3, 2)
        est = kde_fit(sample)
        kept = est._surprise_tables
        ref = ReferenceFunction.from_family(DensityFamily.normal(0.0, 0.04))
        for estimator in ("grid", "monte_carlo", "grid"):
            with pytest.raises(ReferenceFunctionError, match="vanishes on the grid"):
                fbst(sample, 0.5, 3, 2, reference=ref, estimator=estimator)
            assert est._surprise_tables is kept

    def test_keeps_at_most_the_bound_newest_first(self):
        est = kde_fit(normal_sample(n=2_000))
        refs = [ReferenceFunction.from_family(DensityFamily.normal(1.0, 2.0 + i / 1000))
                for i in range(1_000)]
        for ref in refs:
            surprise_fit(est, ref, 0.5)
        assert [key for key, _ in est._surprise_tables] == \
            [ref.descriptor for ref in refs[::-1][:core._KEPT_TABLES]]
        again = surprise_fit(est, refs[0], 0.5)  # dropped, so tabulated anew
        assert np.array_equal(again.values, est.values / refs[0].evaluate(est.grid))
        assert len(est._surprise_tables) == core._KEPT_TABLES

    @pytest.mark.parametrize("kind", list(ROUNDTRIPS))
    def test_tested_sample_survives_a_round_trip(self, kind):
        refs = _references()
        sample = normal_sample(n=5_000)
        names = ("cauchy", "table", "student_t", "flat")
        calls = [(null, name, estimator) for null in self.NULLS for name in names
                 for estimator in ("grid", "monte_carlo")]
        before = [fbst(sample, null, 3, 2, reference=refs[name], estimator=estimator)
                  for null, name, estimator in calls]
        for roundtrip in self.ROUNDTRIPS[kind]:
            loaded = roundtrip(sample)
            est = kde_fit(loaded)
            assert est is loaded._latest_fit[1]
            kept = est._surprise_tables
            held = {getattr(key, "descriptor", key): key for key, _ in kept}
            assert sorted(held) == sorted(refs[name].descriptor for name in names)
            own = {**refs, "table": held[refs["table"].descriptor], None: None}
            assert own["table"] is not refs["table"]  # the loaded copy of the table
            # the caller's flat and family references, the default one and the
            # loaded table find the loaded tables, so they tabulate nothing
            for name in ("flat", "cauchy", "student_t", None, "table"):
                assert fbst(loaded, 0.7, 3, 2, reference=own[name]) == \
                    fbst(sample, 0.7, 3, 2, reference=refs.get(name))
                assert est._surprise_tables is kept
            # the caller's table is matched only as itself, so it tabulates anew
            fbst(loaded, 0.7, 3, 2, reference=refs["table"])
            assert [key for key, _ in est._surprise_tables] == \
                [refs["table"]] + [key for key, _ in kept][:core._KEPT_TABLES - 1]
            for refs_used in (own, refs):
                assert [fbst(loaded, null, 3, 2, reference=refs_used[name],
                             estimator=estimator)
                        for null, name, estimator in calls] == before
            with pytest.raises(ValueError, match="read-only"):
                loaded.draws[:] += 5.0

    def test_threads_on_one_sample_agree_with_a_serial_run(self):
        refs = list(_references().values())  # one more than a fit keeps
        calls = [(null, ref, estimator) for null in self.NULLS[:3] for ref in refs
                 for estimator in ("grid", "monte_carlo")]
        serial_sample = normal_sample(n=5_000)
        serial = [fbst(serial_sample, null, 3, 2, reference=ref, estimator=estimator)
                  for null, ref, estimator in calls]
        shared = normal_sample(n=5_000)
        mismatches, errors = [], []

        def run(seed):
            order = list(range(len(calls)))
            random.Random(seed).shuffle(order)
            try:
                for _ in range(3):
                    for i in order:
                        null, ref, estimator = calls[i]
                        got = fbst(shared, null, 3, 2, reference=ref, estimator=estimator)
                        if got != serial[i]:
                            mismatches.append(i)
            except Exception as err:  # reported below, on the test's thread
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert len(kde_fit(shared)._surprise_tables) <= core._KEPT_TABLES

    @pytest.mark.parametrize("fam", TINY_SCALE_FAMILIES, ids=lambda f: f.family)
    def test_tiny_scale_reference_names_the_cause(self, fam):
        ref = ReferenceFunction.from_family(fam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReferenceFunctionError, match="vanishes on the grid"):
                fbst(normal_sample(n=5_000), 0.5, 3, 2, reference=ref)


class TestTangentialRegion:
    def test_null_at_mode_gives_empty_region(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), est.mode_location)
        assert not s.member_mask.any()
        assert s.interval_list == ()

    def test_far_null_makes_everything_member(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), 1e6)
        assert s.member_mask.all()
        assert len(s.interval_list) == 1

    def test_interior_null_gives_single_interval(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), 0.0)
        assert len(s.interval_list) == 1
        lo, hi = s.interval_list[0]
        assert lo <= est.mode_location <= hi

    def test_strict_inequality_excludes_ties(self):
        s = hand_surprise([1.0, 2.0, 2.0, 3.0], s_star=2.0)
        assert s.member_mask.tolist() == [False, False, False, True]
        assert s.mode_surprise == 3.0

    def test_mask_and_intervals_agree(self):
        s = hand_surprise([0.0, 1.0, 1.0, 0.0, 1.0], s_star=0.5)
        assert s.member_mask.tolist() == [False, True, True, False, True]
        assert s.interval_list == ((1.0, 2.0), (4.0, 4.0))
        # the lone member node 4 makes an interval but no segment
        assert s.member_segments.tolist() == [False, True, False, False]


class TestEvalueEstimators:
    def test_empty_region_gives_zero(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), est.mode_location)
        assert evalue_grid(s) == 0.0

    def test_full_region_gives_one(self):
        est = kde_fit(normal_sample(n=5_000))
        s = surprise_fit(est, ReferenceFunction.flat(), 1e6)
        assert evalue_grid(s) == 1.0

    def test_normal_posterior_oracle(self):
        sample = normal_sample(mu=1.0, n=200_000, seed=12)
        est = kde_fit(sample)
        s = surprise_fit(est, ReferenceFunction.flat(), 0.0)
        expected = math.erf(1.0 / math.sqrt(2.0))
        assert evalue_grid(s) == pytest.approx(expected, abs=0.01)
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


def mc_unsorted(sample, s):
    """The MC e-value as the mean over the draws in their own order."""
    surprise = np.interp(sample.draws, s.grid, s.values, left=0.0, right=0.0)
    return float(np.mean(surprise > s.s_star))


class TestSortedMcCount:
    """evalue_mc counts sorted draws by piece, bit-equal to the unsorted mean."""

    @pytest.fixture(scope="class")
    def fitted(self):
        sample = normal_sample(mu=0.5, n=30_000, seed=21)
        return sample, kde_fit(sample)

    @pytest.mark.parametrize("null", [-1.0, 0.2, 1.7, "node 600"])
    def test_draws_on_grid_nodes(self, fitted, null):
        _, est = fitted
        if null == "node 600":  # s* is then the surprise of the draws at that node
            null = float(est.grid[600])
        s = surprise_fit(est, ReferenceFunction.flat(), null)
        on_nodes = PosteriorSample(draws=np.tile(est.grid, 3), label="nodes")
        assert evalue_mc(on_nodes, s) == mc_unsorted(on_nodes, s)

    def test_draws_outside_the_grid(self, fitted):
        sample, est = fitted
        s = surprise_fit(est, ReferenceFunction.flat(), 1.2)
        wide = PosteriorSample(draws=np.concatenate(
            (sample.draws, est.grid[0] - np.arange(1.0, 500.0),
             est.grid[-1] + np.arange(1.0, 500.0))), label="wide")
        assert evalue_mc(wide, s) == mc_unsorted(wide, s)

    @pytest.mark.parametrize("quantile", [0.05, 0.3, 0.6, 0.9])
    def test_metropolis_chain_with_repeats(self, example_chain, quantile):
        assert np.unique(example_chain.draws).size < example_chain.n
        est = kde_fit(example_chain)
        null = float(np.quantile(example_chain.draws, quantile))
        s = surprise_fit(est, ReferenceFunction.from_family(
            DensityFamily.cauchy(0.0, PRIOR_SCALE)), null)
        assert evalue_mc(example_chain, s) == mc_unsorted(example_chain, s)

    def test_zero_null_surprise(self, fitted):
        sample, est = fitted
        s = surprise_fit(est, ReferenceFunction.flat(), 1e6)
        assert s.s_star == 0.0
        assert evalue_mc(sample, s) == mc_unsorted(sample, s) == 1.0

    @pytest.mark.parametrize("n", [1_000, 1 << 16, (1 << 16) + 77, 3 * (1 << 16) - 5])
    def test_sizes_around_the_piece(self, n):
        sample = normal_sample(mu=0.0, n=n, seed=n)
        est = kde_fit(sample)
        for null in (-0.4, 0.1, 1.3):
            s = surprise_fit(est, ReferenceFunction.flat(), null)
            ev = evalue_mc(sample, s)
            assert type(ev) is float
            assert ev == mc_unsorted(sample, s)


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

    @pytest.mark.parametrize("k,h", [(1, 0), (3, 2), (8, 7)])
    def test_zero_evalue_is_exact(self, k, h):
        assert standardized_evalue(0.0, k, h) == (0.0, 1.0)

    def test_complement_structure(self):
        sev_against, sev = standardized_evalue(0.77, 5, 3)
        assert sev_against + sev == pytest.approx(1.0, abs=1e-15)
        assert sev_against \
            == pytest.approx(chisq_cdf(chisq_quantile(0.77, 5), 2), abs=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_no_null_dimension_is_identity(self, k):
        for ev in (1e-9, 0.05, 0.3, 0.8305998, 0.99, 1.0 - 1e-12):
            assert standardized_evalue(ev, k, 0) == (ev, 1.0 - ev)

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

    def test_scalar_sharp_null_sev_is_evalue(self):
        result = fbst(normal_sample(n=20_000, seed=23), 0.4, 1, 0)
        assert result.sev_against == result.e_value_against
        assert result.sev == result.e_value_in_favor

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

    @pytest.mark.parametrize("null", [math.nan, math.inf, -math.inf])
    def test_non_finite_null_fails_before_the_fit(self, null):
        sample = normal_sample(n=10_000)
        with pytest.raises(DomainError, match="null value must be finite"):
            fbst(sample, null, 3, 2)
        assert sample._latest_fit is None


class TestIntegerDimensions:
    @pytest.mark.parametrize("k,h", [(3.5, 2), (3, 2.0), ("3", 2), (3, None)])
    def test_dimensions_must_be_integers(self, k, h):
        sample = normal_sample(n=2_000)
        for call in (lambda: fbst(sample, 0.0, k, h),
                     lambda: pvalue_evalue(0.5, k, h),
                     lambda: standardized_evalue(0.5, k, h)):
            with pytest.raises(DimensionError, match="dimensions must be integers"):
                call()

    def test_non_integer_grid_size_is_a_domain_error(self):
        with pytest.raises(DomainError, match="grid_size must be an integer, got 1000.7"):
            fbst(normal_sample(n=2_000), 0.0, 3, 2, grid_size=1000.7)

    def test_numpy_integers_keep_the_result(self):
        sample = normal_sample(n=2_000)
        plain = fbst(sample, 0.0, 3, 2, grid_size=1024)
        numpy = fbst(sample, 0.0, np.int64(3), np.int32(2), grid_size=np.int64(1024))
        assert numpy == plain


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


def test_public_names_resolve():
    import fbst
    for name in fbst.__all__:
        assert hasattr(fbst, name), name
    for gone in ("TangentialRegion", "tangential_region"):
        assert not hasattr(fbst, gone)
        assert not hasattr(fbst.core, gone)
