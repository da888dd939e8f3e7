import copy
import gc
import math
import pickle
import random
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from fbst import core
from fbst import (DensityEstimate, DensityFamily, DimensionError, DomainError,
                  FbstError, FbstResult, PosteriorSample, ReferenceFunction,
                  ReferenceFunctionError, SurpriseFunction, chisq_cdf,
                  chisq_quantile, evalue_grid, evalue_mc, fbst, fbst_pipeline,
                  kde_eval, kde_fit, pvalue_evalue, standardized_evalue, surprise_fit)
from ground_truth import PRIOR_SCALE, SEV_FIXTURES


def normal_sample(mu=1.0, sigma=1.0, n=100_000, seed=8, label="theta"):
    rng = np.random.default_rng(seed)
    return PosteriorSample(draws=rng.normal(mu, sigma, n), label=label)


def kept_fit(sample):
    """The fit `fbst` keeps for a sample."""
    return core._latest_fits[sample][1]


def kept_tables(fit):
    """The ((key, p / r), ...) tables `surprise_fit` keeps for a fit, newest first."""
    return core._surprise_tables[fit]


def hand_surprise(values, s_star):
    """A surprise function over a uniform posterior on the grid 0, 1, 2, ..."""
    grid = np.arange(float(len(values)))
    flat = np.full(grid.size, 1.0 / (grid[-1] - grid[0]))
    posterior = DensityEstimate(grid=grid, values=flat, bandwidth=1.0, sample=None)
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
        ref = ReferenceFunction(grid=[0.0, 1.0, 2.0], values=[1.0, 3.0, 5.0])
        assert ref.evaluate(0.5) == pytest.approx(2.0)
        assert ref.descriptor == "table"

    def test_tabulated_errors_outside(self):
        ref = ReferenceFunction(grid=[0.0, 1.0], values=[1.0, 1.0])
        with pytest.raises(ReferenceFunctionError):
            ref.evaluate(1.5)

    def test_tabulated_rejects_nonpositive_values(self):
        with pytest.raises(ReferenceFunctionError):
            ReferenceFunction(grid=[0.0, 1.0], values=[1.0, 0.0])

    def test_table_descriptor_names_source(self):
        ref = ReferenceFunction(grid=[0.0, 1.0], values=[1.0, 1.0], source="r.csv")
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
        est = kept_fit(sample)
        kept = kept_tables(est)
        assert fbst(sample, 0.7, 3, 2, reference=parsed) == \
            fbst(normal_sample(n=5_000), 0.7, 3, 2, reference=ref)
        assert kept_fit(sample) is est
        assert kept_tables(est) is kept and len(kept) == 1

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
        ("table:r.csv", "a table is read from its file by io.load_reference"),
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
        ref = ReferenceFunction(grid=est.grid, values=est.values)
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
        ref = ReferenceFunction(grid=[-0.5, 0.5], values=[1.0, 1.0])
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

    def test_null_density_above_the_mode_is_rejected(self):
        est = kde_fit(normal_sample(n=2_000))
        with pytest.raises(DomainError, match=r"relative null ratio 2\.0 outside \[0, 1\]"):
            SurpriseFunction(posterior=est, values=est.values, s_star=0.1, null_value=0.0,
                             s0_posterior_density=2.0 * est.mode_density)


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
        "table": ReferenceFunction(grid=grid, values=np.exp(-0.5 * (grid / 2.5) ** 2),
                                   source="r.csv"),
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
        fbst(sample, self.NULLS[0], 3, 2, reference=own(), estimator=estimator)
        est = kept_fit(sample)
        for _ in range(2):  # the second pass reads the kept table
            for null in self.NULLS:
                kept = fbst(sample, null, 3, 2, reference=own(), estimator=estimator)
                fresh = fbst(normal_sample(n=5_000), null, 3, 2, reference=ref,
                             estimator=estimator)
                assert kept == fresh
                s = surprise_fit(est, own(), null)
                assert np.array_equal(s.values, est.values / ref.evaluate(est.grid))
        key = ref if name == "table" else ref.descriptor  # a table by identity
        assert kept_fit(sample) is est
        assert [held for held, _ in kept_tables(est)] == [key]

    def test_default_reference_shares_the_flat_table(self):
        sample = normal_sample(n=5_000)
        flat = ReferenceFunction.flat()
        fbst(sample, 0.3, 3, 2)
        est = kept_fit(sample)
        kept = kept_tables(est)
        assert fbst(sample, 0.7, 3, 2, reference=flat) == \
            fbst(sample, 0.7, 3, 2, reference=ReferenceFunction())
        assert kept_fit(sample) is est
        assert kept_tables(est) is kept
        assert [key for key, _ in kept] == [flat.descriptor]

    def test_flat_is_one_instance_and_descriptors_are_kept(self):
        flat = ReferenceFunction.flat()
        assert flat is ReferenceFunction.flat()
        for ref in _references().values():
            assert ref.descriptor is ref.descriptor

    def test_tables_with_one_source_keep_their_own_values(self):
        grid = np.linspace(-8.0, 10.0, 2001)
        wide, narrow = (ReferenceFunction(
            grid=grid, values=np.exp(-0.5 * (grid / sd) ** 2), source="r.csv")
            for sd in (2.5, 1.5))
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
        est = kept_fit(sample)
        kept = kept_tables(est)
        ref = ReferenceFunction.from_family(DensityFamily.normal(0.0, 0.04))
        for estimator in ("grid", "monte_carlo", "grid"):
            with pytest.raises(ReferenceFunctionError, match="vanishes on the grid"):
                fbst(sample, 0.5, 3, 2, reference=ref, estimator=estimator)
            assert kept_fit(sample) is est
            assert kept_tables(est) is kept

    def test_reference_too_small_for_the_posterior_vanishes(self):
        """A positive reference so small that p / r overflows the floats is refused
        as vanishing, with no numpy warning on the way, and leaves no table."""
        grid = np.linspace(-8.0, 10.0, 2001)
        tiny = ReferenceFunction(grid=grid,
                                 values=np.where(np.abs(grid - 1.0) < 0.5, 1e-320, 1.0))
        est = kde_fit(normal_sample(n=5_000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReferenceFunctionError,
                               match=r"^reference function vanishes on the grid near 0\.50"):
                surprise_fit(est, tiny, 0.0)
        assert est not in core._surprise_tables

    def test_keeps_at_most_the_bound_newest_first(self):
        est = kde_fit(normal_sample(n=2_000))
        refs = [ReferenceFunction.from_family(DensityFamily.normal(1.0, 2.0 + i / 1000))
                for i in range(1_000)]
        for ref in refs:
            surprise_fit(est, ref, 0.5)
        assert [key for key, _ in kept_tables(est)] == \
            [ref.descriptor for ref in refs[::-1][:core._KEPT_TABLES]]
        again = surprise_fit(est, refs[0], 0.5)  # dropped, so tabulated anew
        assert np.array_equal(again.values, est.values / refs[0].evaluate(est.grid))
        assert len(kept_tables(est)) == core._KEPT_TABLES

    @pytest.mark.parametrize("kind", list(ROUNDTRIPS))
    def test_tested_sample_survives_a_round_trip(self, kind, monkeypatch):
        """A loaded or copied sample carries no kept fit or tables: it fits once
        and tabulates each reference once, with every result bit-equal."""
        refs = _references()
        sample = normal_sample(n=5_000)
        names = ("cauchy", "table", "student_t", "flat")
        calls = [(null, name, estimator) for null in self.NULLS for name in names
                 for estimator in ("grid", "monte_carlo")]
        before = [fbst(sample, null, 3, 2, reference=refs[name], estimator=estimator)
                  for null, name, estimator in calls]
        est = kept_fit(sample)
        fits, tabulated = [], []
        fit, evaluate = core.kde_fit, ReferenceFunction.evaluate

        def counted_fit(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        def counted_evaluate(ref, theta):
            if np.ndim(theta):  # the grid, tabulated; the null is a scalar
                tabulated.append(ref)
            return evaluate(ref, theta)

        monkeypatch.setattr(core, "kde_fit", counted_fit)
        monkeypatch.setattr(ReferenceFunction, "evaluate", counted_evaluate)
        for roundtrip in self.ROUNDTRIPS[kind]:
            loaded = roundtrip(sample)
            assert loaded not in core._latest_fits
            fits.clear()
            tabulated.clear()
            after = [fbst(loaded, null, 3, 2, reference=refs[name], estimator=estimator)
                     for null, name, estimator in calls]
            assert len(fits) == 1
            assert sorted(map(id, tabulated)) == sorted(id(refs[name]) for name in names)
            assert repr(after) == repr(before)  # bit for bit
            assert kept_fit(loaded).draws is loaded.draws
            assert kept_fit(sample) is est
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
        assert len(kept_tables(kept_fit(shared))) <= core._KEPT_TABLES

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
        assert s.values.max() == 3.0

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
        assert evalue_mc(s) == pytest.approx(expected, abs=0.01)

    def test_mc_zero_when_nothing_exceeds(self):
        sample = normal_sample(n=5_000)
        est = kde_fit(sample)
        s = surprise_fit(est, ReferenceFunction.flat(), est.mode_location)
        assert evalue_mc(s) == 0.0

    def test_mc_one_when_null_surprise_is_zero(self):
        sample = normal_sample(n=5_000)
        est = kde_fit(sample)
        s = surprise_fit(est, ReferenceFunction.flat(), 1e6)
        assert evalue_mc(s) == 1.0


class TestTestsRunOnTheFit:
    """A test runs on the fitted density it is handed: the fit holds the sample's
    own draws, not the sample, and a tabulated density has no draws to count."""

    def test_fit_keeps_no_reference_to_its_sample(self):
        # a fit that held its sample would keep it alive from core's map of kept
        # fits, of which it is a value: 2*10^5-draw samples would then pile up.
        # Dropping the sample frees it, its fit and their entries in both maps at
        # once, with no garbage collector
        gc.disable()
        try:
            sample = normal_sample(n=20_000)
            for estimator in core.ESTIMATORS:
                fbst(sample, 0.3, 1, 0, estimator=estimator)
            refs = weakref.ref(sample), weakref.ref(kept_fit(sample))
            maps = core._latest_fits, core._surprise_tables
            assert [refs[0]() in maps[0], refs[1]() in maps[1]] == [True, True]
            sizes = [len(kept) for kept in maps]
            del sample
            assert [ref() for ref in refs] == [None, None]
            assert [len(kept) for kept in maps] == [size - 1 for size in sizes]
        finally:
            gc.enable()

    def test_tabulated_density_runs_the_grid_test_and_refuses_monte_carlo(self):
        grid = np.linspace(-8.0, 8.0, 2001)
        table = DensityEstimate(grid, np.exp(-0.5 * grid * grid) / math.sqrt(2.0 * math.pi),
                                bandwidth=0.1, sample=None)
        assert table.draws is None
        result, surprise = fbst_pipeline(table, 1.0, 1, 0)
        assert result.e_value_against == pytest.approx(math.erf(1.0 / math.sqrt(2.0)),
                                                       abs=0.005)
        message = "^the Monte Carlo e-value needs the draws the density was fitted to$"
        with pytest.raises(DomainError, match=message):
            fbst_pipeline(table, 1.0, 1, 0, estimator="monte_carlo")
        with pytest.raises(DomainError, match=message):
            evalue_mc(surprise)


def with_draws(est, sample):
    """est's density fitted, as it were, to another sample's draws."""
    return DensityEstimate(grid=est.grid, values=est.values, bandwidth=est.bandwidth,
                           sample=sample)


def mc_unsorted(sample, s):
    """The MC e-value as the mean over the draws in their own order."""
    surprise = np.interp(sample.draws, s.grid, s.values, left=0.0, right=0.0)
    return float(np.mean(surprise > s.s_star))


def mc_full_sort(sample, s):
    """The MC e-value as counted over one sorted copy of every draw."""
    surprise = np.interp(np.sort(sample.draws), s.grid, s.values, left=0.0, right=0.0)
    return int(np.count_nonzero(surprise > s.s_star)) / sample.n


def mc_by_piece(sample, s, piece=1 << 16):
    """The MC e-value as np.interp on each sorted piece of every draw: a frozen
    copy of evalue_mc before it counted decided segments from the level set."""
    draws, count = sample.draws, 0
    for start in range(0, draws.size, piece):
        piece_draws = np.sort(draws[start:start + piece])
        surprise = np.interp(piece_draws, s.grid, s.values, left=0.0, right=0.0)
        count += int(np.count_nonzero(surprise > s.s_star))
    return count / draws.size


MC_POSTERIORS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "gamma3": lambda rng, n: rng.gamma(3.0, 1.0, n),
    "mixture": lambda rng, n: np.where(rng.random(n) < 0.5, rng.normal(-1.5, 0.35, n),
                                       rng.normal(1.5, 0.35, n)),
    "student_t3": lambda rng, n: rng.standard_t(3, n),
    "integers": lambda rng, n: rng.integers(0, 5, n).astype(float),
    "hundredths": lambda rng, n: np.round(rng.standard_normal(n), 2),
}
MC_REFERENCES = ("flat", "cauchy:location=0,scale=1", "normal:mean=0,sd=2")


class TestLevelSetMcCount:
    """evalue_mc counts the draws of segments wholly above or below s* without
    interpolating them, with the count of interpolating every draw."""

    @pytest.mark.parametrize("n", [1_000, 70_001, 200_000])
    @pytest.mark.parametrize("posterior", list(MC_POSTERIORS))
    def test_posteriors_references_and_nulls(self, posterior, n):
        rng = np.random.default_rng(n)
        sample = PosteriorSample(draws=MC_POSTERIORS[posterior](rng, n), label=posterior)
        est = kde_fit(sample)
        nulls = [*np.quantile(sample.draws, [0.01, 0.1, 0.3, 0.5, 0.8, 0.97]),
                 est.grid[-1] + 1.0]  # off the grid: s* = 0
        tested = 0
        for descriptor in MC_REFERENCES:
            reference = ReferenceFunction.parse(descriptor)
            for null in nulls:
                try:
                    s = surprise_fit(est, reference, float(null))
                except ReferenceFunctionError:  # a normal reference may vanish on the grid
                    continue
                assert evalue_mc(s) == mc_by_piece(sample, s)
                tested += 1
        assert tested >= 14

    # the reference's pieces of 1000 draws are below the 1024 grid nodes, where
    # np.interp computes each slope per draw instead of once per call
    @pytest.mark.parametrize("piece", [1000, 1 << 16])
    def test_crafted_surprise_tables(self, piece):
        """Ends a few ulps from s*, a table flat at s*, finite values whose slopes
        overflow, infinite values, and draws on, next to and between the nodes."""
        rng = np.random.default_rng(31)
        grid = np.linspace(-3.1, 4.7, 1024)  # steps that round, unlike 0, 1, 2, ...
        flat = np.full(grid.size, 1.0 / (grid[-1] - grid[0]))
        draws = np.concatenate((rng.uniform(grid[0], grid[-1], 150_000), grid, grid,
                                np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                                0.5 * (grid[1:] + grid[:-1]), [-5.0, 6.0]))
        sample = PosteriorSample(draws=draws, label="crafted")
        posterior = DensityEstimate(grid=grid, values=flat, bandwidth=1.0, sample=sample)
        for _ in range(12):
            s_star = float(rng.random())
            ulps = s_star + rng.integers(-2, 3, grid.size) * np.spacing(s_star)
            steep = s_star + rng.random(grid.size) * 10.0 ** rng.uniform(-2, 3)
            huge = rng.random(grid.size) * 1e308
            infinite = huge.copy()
            infinite[rng.integers(grid.size, size=4)] = np.inf
            for values in (np.full(grid.size, s_star), ulps,
                           np.where(np.arange(grid.size) % 2 == 0, steep, ulps),
                           huge, infinite):
                s = SurpriseFunction(posterior=posterior, values=values, s_star=s_star,
                                     null_value=0.0, s0_posterior_density=float(flat[0]))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    ev = evalue_mc(s)
                assert ev == mc_by_piece(sample, s, piece)


class TestSortedMcCount:
    """evalue_mc counts one sorted copy of the draws, bit-equal to the unsorted mean."""

    @pytest.fixture(scope="class")
    def fitted(self):
        sample = normal_sample(mu=0.5, n=30_000, seed=21)
        return sample, kde_fit(sample)

    @pytest.mark.parametrize("null", [-1.0, 0.2, 1.7, "node 600"])
    def test_draws_on_grid_nodes(self, fitted, null):
        _, est = fitted
        if null == "node 600":  # s* is then the surprise of the draws at that node
            null = float(est.grid[600])
        on_nodes = PosteriorSample(draws=np.tile(est.grid, 3), label="nodes")
        s = surprise_fit(with_draws(est, on_nodes), ReferenceFunction.flat(), null)
        assert evalue_mc(s) == mc_unsorted(on_nodes, s)

    def test_draws_outside_the_grid(self, fitted):
        sample, est = fitted
        wide = PosteriorSample(draws=np.concatenate(
            (sample.draws, est.grid[0] - np.arange(1.0, 500.0),
             est.grid[-1] + np.arange(1.0, 500.0))), label="wide")
        s = surprise_fit(with_draws(est, wide), ReferenceFunction.flat(), 1.2)
        assert evalue_mc(s) == mc_unsorted(wide, s)

    @pytest.mark.parametrize("quantile", [0.05, 0.3, 0.6, 0.9])
    def test_metropolis_chain_with_repeats(self, example_chain, quantile):
        assert np.unique(example_chain.draws).size < example_chain.n
        est = kde_fit(example_chain)
        null = float(np.quantile(example_chain.draws, quantile))
        s = surprise_fit(est, ReferenceFunction.from_family(
            DensityFamily.cauchy(0.0, PRIOR_SCALE)), null)
        assert evalue_mc(s) == mc_unsorted(example_chain, s)

    def test_zero_null_surprise(self, fitted):
        sample, est = fitted
        s = surprise_fit(est, ReferenceFunction.flat(), 1e6)
        assert s.s_star == 0.0
        assert evalue_mc(s) == mc_unsorted(sample, s) == 1.0

    # sizes around the 2^16-draw pieces that evalue_mc once sorted one by one
    @pytest.mark.parametrize("n", [1_000, 1 << 16, (1 << 16) + 77, 3 * (1 << 16) - 5])
    def test_sizes_around_the_piece(self, n):
        sample = normal_sample(mu=0.0, n=n, seed=n)
        est = kde_fit(sample)
        for null in (-0.4, 0.1, 1.3):
            s = surprise_fit(est, ReferenceFunction.flat(), null)
            ev = evalue_mc(s)
            assert type(ev) is float
            assert ev == mc_unsorted(sample, s)

    # a piece of 1000 draws is below the 1024 grid nodes, where np.interp
    # computes each slope per draw instead of once per call
    @pytest.mark.parametrize("piece", [1000, 1 << 16])
    @pytest.mark.parametrize("seed", [3, 17, 40, 58])
    def test_pieces_sorted_alone_equal_one_full_sort(self, piece, seed):
        sample = normal_sample(mu=0.2, sigma=1.3, n=70_001, seed=seed)
        est = kde_fit(sample)
        for null in (-1.1, 0.4, 2.0):
            s = surprise_fit(est, ReferenceFunction.flat(), null)
            assert evalue_mc(s) == mc_full_sort(sample, s) == mc_by_piece(sample, s, piece)


class TestPvalueEvalue:
    def test_null_at_mode_gives_one(self):
        assert pvalue_evalue(1.0, 3, 2) == 1.0

    def test_vanishing_ratio_limit(self):
        assert pvalue_evalue(1e-300, 3, 2) < 1e-12

    def test_upper_tail_keeps_relative_accuracy(self):
        # P(chi2_1 > 80) = erfc(sqrt(40)), far below the float spacing at 1
        assert pvalue_evalue(math.exp(-40.0), 1, 0) == pytest.approx(
            math.erfc(math.sqrt(40.0)), rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("ev,k,h", [(0.9999989665589362, 11, 5), (1.0 - 2.0 ** -40, 3, 2),
                                        (1.0 - 1e-5, 12, 1), (0.99995, 2, 1),
                                        (1.0 - 3e-12, 7, 6), (0.99988, 12, 11),
                                        (0.999, 12, 11), (0.9995, 8, 7), (0.99, 12, 11)])
    def test_small_sev_keeps_its_relative_accuracy(self, ev, k, h):
        """Near ev = 1, sev is Q_{k-h}(Q_k^{-1}(1 - ev)), to 1e-12 of 50-digit mpmath,
        also where 1 - ev is above 1e-4 and the quantile inverts the lower tail."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            def upper(df, x):
                return mpmath.gammainc(mpmath.mpf(df) / 2, x / 2, mpmath.inf,
                                       regularized=True)
            favor = mpmath.mpf(1.0 - ev)  # exact: the e-value in favor that fbst reports
            x = mpmath.findroot(lambda x: upper(k, x) - favor, chisq_quantile(ev, k))
            truth = upper(k - h, x)
        sev = standardized_evalue(ev, k, h)[1]
        assert abs(sev - truth) <= 1e-12 * truth


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
        assert sample not in core._latest_fits

    def test_fits_once_per_key(self, monkeypatch):
        """The sample keeps one fit, keyed by (bandwidth, grid_size); a fit that
        raises keeps nothing, so the next call fits again."""
        calls = []
        fit = core.kde_fit

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(core, "kde_fit", counted)
        refs = _references()
        sample = normal_sample(n=5_000)
        for null in TestSurpriseTables.NULLS:
            for name in ("flat", "cauchy", "table"):
                for estimator in core.ESTIMATORS:
                    fbst(sample, null, 3, 2, reference=refs[name], estimator=estimator)
        assert len(calls) == 1
        fbst(sample, 0.3, 3, 2, grid_size=256)
        assert len(calls) == 2
        fbst(sample, 0.3, 3, 2)
        assert len(calls) == 3
        with pytest.raises(DomainError, match="grid_size must be an integer, got 1024.0$"):
            fbst(sample, 0.3, 3, 2, grid_size=1024.0)  # equal to the kept key, yet refused
        assert len(calls) == 3
        draws = np.append(np.random.default_rng(50).standard_normal(50_000), 1e4)
        stray = PosteriorSample(draws=draws, label="stray")
        for count in (4, 5):
            with pytest.raises(DomainError, match="density integrates to"):
                fbst(stray, 0.3, 3, 2)
            assert len(calls) == count
            assert stray not in core._latest_fits


class TestEvalueProperties:
    """Seeded properties of the e-value, with bounds measured before they were set."""

    @pytest.mark.parametrize("seed", [0, 1, 11])
    def test_evalue_falls_only_where_the_fit_rises(self, seed):
        """As the null moves out from the mode, 4 sd each way in 401 steps, the
        grid e-value never decreases across a step where the fitted density at
        the null does not rise.  The fit of 10^5 N(0, 1) draws is not unimodal:
        its tails carry small bumps, and seed 11's top has two peaks, so the
        e-value does fall, by up to 0.011, and only across such a rise."""
        sample = normal_sample(mu=0.0, n=100_000, seed=seed)
        fit = kde_fit(sample)
        steps = np.linspace(0.0, 4.0 * float(np.std(sample.draws)), 401)
        for side in (1.0, -1.0):
            nulls = fit.mode_location + side * steps
            evs = np.array([fbst(sample, x, 1, 0).e_value_against for x in nulls])
            rises = np.diff([kde_eval(fit, x) for x in nulls]) > 0
            assert np.all((np.diff(evs) >= 0) | rises)
            assert evs[0] == 0.0

    @pytest.mark.parametrize("estimator", core.ESTIMATORS)
    def test_pvalue_is_bit_equal_across_references(self, estimator):
        """The p-value reads the fit at the null and at its mode, not r: the flat,
        Cauchy, normal and table references give it bit for bit, as they move the
        e-value."""
        refs = _references()
        sample = normal_sample(n=20_000, seed=3)
        for null in (-0.4, 0.3, 1.0, 1.8, 2.9):
            results = [fbst(sample, null, 3, 2, reference=refs[name], estimator=estimator)
                       for name in ("flat", "cauchy", "normal", "table")]
            assert len({result.p_value.hex() for result in results}) == 1, null
            assert len({result.e_value_against for result in results}) > 1, null

    @pytest.mark.parametrize("a,b,bound", [(2.0, -1.0, 1e-12), (0.25, 3.0, 1e-12),
                                           (1e3, 1e3, 1e-12), (-1.5, 0.5, 1e-5)])
    def test_affine_map_of_draws_and_null(self, a, b, bound):
        """ev(a x + b, a null + b) = ev(x, null) on Gamma(3, 1) draws.  Measured:
        a positive map moves either estimator by at most 2.2e-16, and the
        reflection moves the grid e-value by up to 2.2e-7."""
        draws = np.random.default_rng(12).gamma(3.0, 1.0, 50_000)
        base = PosteriorSample(draws=draws, label="theta")
        moved = PosteriorSample(draws=a * draws + b, label="theta")
        estimators = ("grid",) if a < 0 else ("grid", "monte_carlo")
        for null in (1.5, 4.0, 6.5):
            for estimator in estimators:
                ev = fbst(base, null, 1, 0, estimator=estimator).e_value_against
                ev_moved = fbst(moved, a * null + b, 1, 0,
                                estimator=estimator).e_value_against
                assert abs(ev_moved - ev) <= bound, (null, estimator)


class TestExtremeScale:
    """Draws at the ends of the float range, or whose spread the grid cannot
    resolve at their magnitude, fail with an FbstError that names the cause and
    the remedy, and no numpy warning on the way; a resolvable offset answers."""

    NORMAL = np.random.default_rng(0).standard_normal(10_000)
    CASES = {
        "times-1e300": (NORMAL * 1e300, 0.0, r"density peak 3\.9\d*e-301 lies outside "
                                             r"\[2\^-500, 2\^500\]: rescale the draws"),
        "times-1e-300": (NORMAL * 1e-300, 0.0, r"density peak 3\.9\d*e\+299 lies outside "
                                               r"\[2\^-500, 2\^500\]: rescale the draws"),
        "times-1e307": (NORMAL * 1e307, 0.0, r"kernel normalisation n \* h \* sqrt\(2 pi\) "
                                             r"overflows at bandwidth 1\.4\d*e\+306: rescale "
                                             r"the draws and the null"),
        "1e15-plus": (1e15 + NORMAL, 1e15, r"cannot resolve draws of magnitude 1e\+15 "
                                           r"spread over 7\.375: subtract a constant"),
        "1e8-plus-1e-8": (1e8 + 1e-8 * NORMAL, 1e8, r"cannot resolve draws of magnitude "
                                                    r"1e\+08 spread over 7\.4\d*e-08"),
        "1e-300-plus-1e-309": (1e-300 + 1e-309 * NORMAL, 1e-300,  # n * h overflows p
                               r"density integrates to inf, outside \[0\.99, 1\.001\]"),
    }

    @pytest.mark.parametrize("estimator", core.ESTIMATORS)
    @pytest.mark.parametrize("case", list(CASES))
    def test_fails_with_the_cause(self, case, estimator):
        draws, null, message = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FbstError, match=message):
                fbst(PosteriorSample(draws=draws, label="theta"), null, 3, 2,
                     estimator=estimator)

    @pytest.mark.parametrize("estimator", core.ESTIMATORS)
    def test_bandwidth_far_below_the_draws(self, estimator):
        # the draws divided by the bandwidth would overflow, with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^bandwidth 0\.05 is too small for draws "
                                                  r"of magnitude 3\.8994\d*e\+307$"):
                fbst(PosteriorSample(draws=self.NORMAL * 1e307, label="theta"), 0.0, 3, 2,
                     estimator=estimator, bandwidth=0.05)

    @pytest.mark.parametrize("offset", [1e6, 1e9])
    def test_a_resolvable_offset_still_answers(self, offset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fbst(PosteriorSample(draws=offset + self.NORMAL, label="theta"),
                          offset + 1.0, 3, 2)
        assert 0.0 <= result.p_value <= 1.0 and 0.0 <= result.sev <= 1.0
        assert result.e_value_against == pytest.approx(math.erf(1.0 / math.sqrt(2.0)),
                                                       abs=0.02)


class TestAnyFiniteDraws:
    """A seeded fuzz over magnitudes 10^+-300, offsets up to 1e15 spreads, ties,
    near-discrete, duplicated and stray values, and n from 30 to 5,000: each case
    answers, with every field in [0, 1], or raises an FbstError that names one of
    the known causes, and no case warns on the way."""

    CAUSES = ("all draws are identical", "the grid cannot resolve draws",
              "density peak", "density integrates to",
              "kernel normalisation n * h * sqrt(2 pi) overflows",
              "reference function vanishes")

    @staticmethod
    def case(seed):
        rng = np.random.default_rng(seed)
        n = int(10 ** rng.uniform(math.log10(30), math.log10(5_000)))
        shape = [lambda: rng.standard_normal(n), lambda: rng.standard_t(2, n),
                 lambda: rng.gamma(2.0, 1.0, n),
                 lambda: rng.integers(0, rng.integers(1, 6), n) * 1.0,  # ties
                 lambda: rng.integers(0, 4, n) + 10.0 ** rng.uniform(-14, -3)
                 * rng.standard_normal(n),  # near-discrete
                 lambda: np.repeat(rng.standard_normal(n // 10 + 1), 10)[:n],
                 lambda: np.append(rng.standard_normal(n - 1), 10.0 ** rng.uniform(1, 6))]
        x = shape[seed % len(shape)]()
        x = x + rng.choice([0.0, 1.0]) * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 15)
        exponent = rng.uniform(-300, 300) if rng.uniform() < 0.4 else rng.uniform(-20, 20)
        draws = x * (10.0 ** exponent / (np.max(np.abs(x)) or 1.0))
        spread = float(np.ptp(draws)) / 4.0
        null = float(draws[rng.integers(n)] + rng.standard_normal() * spread)
        sd = max(spread * 10.0 ** rng.uniform(-3, 1), 1e-300)
        reference = (ReferenceFunction.from_family(DensityFamily.normal(null, sd))
                     if rng.uniform() < 0.3 else None)
        return draws, null, reference

    def test_answers_or_names_the_cause(self):
        answered = 0
        for seed in range(300):
            draws, null, reference = self.case(seed)
            for estimator in core.ESTIMATORS:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        result = fbst(PosteriorSample(draws=draws, label="theta"), null,
                                      3, 2, reference=reference, estimator=estimator)
                    except FbstError as err:
                        assert any(cause in str(err) for cause in self.CAUSES), (seed, err)
                        continue
                fields = (result.e_value_against, result.e_value_in_favor, result.p_value,
                          result.sev_against, result.sev, result.relative_null_ratio)
                assert all(0.0 <= field <= 1.0 for field in fields), (seed, result)
                answered += 1
        assert answered >= 200  # 332 of 600 answer at these seeds


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
    assert len(set(fbst.__all__)) == len(fbst.__all__)
    for gone in ("TangentialRegion", "tangential_region", "reg_lower_incomplete_gamma"):
        assert not hasattr(fbst, gone)
        assert not hasattr(fbst.core, gone)
    assert not hasattr(fbst.special_math, "reg_lower_incomplete_gamma")
    assert not hasattr(fbst.density, "trapezoid_weights")
    assert not hasattr(fbst.SurpriseFunction, "mode_surprise")
    assert not hasattr(fbst, "write_result")
    assert not hasattr(fbst.io, "write_result")
    for gone in ("to_dict", "from_dict"):
        assert not hasattr(fbst.ResultDocument, gone)
    for gone in ("load_reference_table", "SUMMARY_HEADER"):
        assert not hasattr(fbst.io, gone)
    assert not hasattr(fbst.ReferenceFunction, "from_table")
    for gone in ("brute_force_evalue", "random_walk_metropolis", "analytic_evalue_flat"):
        assert not hasattr(fbst, gone)
        assert not hasattr(fbst.oracle, gone)
    assert not hasattr(fbst.oracle, "SEV_FIXTURES")
