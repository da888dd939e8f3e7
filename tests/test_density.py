import copy
import dataclasses
import math
import os
import pickle
import sys
import threading
import tracemalloc
import warnings
from collections.abc import Mapping

import numpy as np
import pytest

from fbst import DensityEstimate, DensityFamily, DomainError, DrawsError, \
    PosteriorSample, ReferenceFunction, SurpriseFunction, TTestData, \
    evalue_grid, fbst, kde_eval, kde_fit, silverman_bandwidth
from fbst import core, density


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

    def test_compares_and_hashes_by_identity(self):
        draws = np.arange(40.0)
        a = PosteriorSample(draws=draws, label="x")
        b = PosteriorSample(draws=draws, label="x")
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


def _normal_table():
    grid = np.linspace(-6.0, 6.0, 401)
    return [grid, np.exp(-0.5 * grid ** 2) / math.sqrt(2.0 * math.pi)]


def _surprise(values):
    """Surprise against the flat reference r = 2 at the null 1.0."""
    posterior = DensityEstimate(*_normal_table(), bandwidth=0.1, sample=None)
    s0 = kde_eval(posterior, 1.0)
    return SurpriseFunction(posterior=posterior, values=values, s_star=s0 / 2.0,
                            null_value=1.0, s0_posterior_density=s0)


# (build the record from the caller's inputs, make those inputs, what it reports)
RECORDS = [
    pytest.param(lambda draws: PosteriorSample(draws=draws, label="x"),
                 lambda: [np.random.default_rng(41).normal(0.3, 1.0, 2_000)],
                 lambda s: (s.draws.tolist(), [fbst(s, 0.0, 1, 0, estimator=e)
                                               for e in ("grid", "monte_carlo")]),
                 id="PosteriorSample"),
    pytest.param(lambda grid, values: DensityEstimate(grid=grid, values=values,
                                                      bandwidth=0.1, sample=None),
                 _normal_table,
                 lambda est: (est.grid.tolist(), est.values.tolist(),
                              est.segment_mass.tolist(), est.mode_location,
                              est.mode_density),
                 id="DensityEstimate"),
    pytest.param(lambda grid, values: ReferenceFunction(grid=grid, values=values),
                 _normal_table,
                 lambda ref: (ref.grid.tolist(), ref.values.tolist(), ref.evaluate(0.5)),
                 id="ReferenceFunction"),
    pytest.param(_surprise, lambda: [_normal_table()[1] / 2.0],
                 lambda s: (s.values.tolist(), s.interval_list, evalue_grid(s)),
                 id="SurpriseFunction"),
    pytest.param(TTestData, lambda: [np.array([1.0, 2.0, 3.0]), np.array([4.0, 6.0])],
                 lambda t: (t.group1.tolist(), t.group2.tolist()), id="TTestData"),
    pytest.param(lambda params: DensityFamily("cauchy", params),
                 lambda: [{"location": 0.0, "scale": 0.7071}],
                 lambda fam: (dict(fam.params),
                              ReferenceFunction.from_family(fam).descriptor),
                 id="DensityFamily"),
]


# every way a record comes back as another object: pickle at each protocol and the copies
ROUND_TRIPS = [*(lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
               copy.deepcopy, copy.copy]


def _arrays_of(value, seen=None) -> list:
    """Every distinct ndarray reachable from value through record fields, tuples
    and mappings."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, Mapping):
        value = list(value.values())
    elif not isinstance(value, (tuple, list)):
        value = list(getattr(value, "__dict__", {}).values())
    return [array for item in value for array in _arrays_of(item, seen)]


@pytest.mark.parametrize("build,inputs,report", RECORDS)
def test_owns_its_inputs(build, inputs, report):
    """A record keeps what it validated: writes to the caller's arrays or dict
    leave it unchanged, the caller's arrays stay writeable, the record's own
    are read-only, and records holding arrays compare and hash by identity.
    A record loaded by pickle or copied reports the same, and every array it
    reaches is read-only."""
    given = inputs()
    record = build(*given)
    twin = build(*copy.deepcopy(given))
    before = report(record)
    for item in given:
        if isinstance(item, dict):
            item.update((key, -2.0) for key in item)
        else:
            assert item.flags.writeable
            item *= 3.0
            item += 1.0
    assert report(record) == before
    for roundtrip in ROUND_TRIPS:
        loaded = roundtrip(record)
        arrays = _arrays_of(loaded)
        assert len(arrays) == len(_arrays_of(record))
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array += 5.0
        assert report(loaded) == before
    if isinstance(record, DensityFamily):  # read-only params, compared by value
        with pytest.raises(TypeError):
            record.params["scale"] = -2.0
        assert record == twin
    arrays = _arrays_of(record)
    assert not any(array.flags.writeable for array in arrays)
    if arrays:
        assert record == record and record != twin
        assert hash(record) == hash(record)
        assert len({record, twin, record}) == 2


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

    @pytest.mark.parametrize("exponent", [-996, -600, -257, 257, 600, 996])
    def test_extreme_scale_is_exact(self, exponent):
        """Draws past 2^+-256 give the bandwidth of the draws scaled back, bit for bit."""
        draws = np.random.default_rng(12).standard_normal(10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = silverman_bandwidth(sample_of(np.ldexp(draws, exponent)))
        assert scaled == math.ldexp(silverman_bandwidth(sample_of(draws)), exponent)

    def test_common_path_allocates_no_copy_of_the_draws(self):
        sample = sample_of(np.random.default_rng(13).standard_normal(1_000_000))
        tracemalloc.start()
        try:
            silverman_bandwidth(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sample.draws.nbytes  # std's temporary, then the sorted copy

    @pytest.mark.parametrize("exponent", [0, -257, 257])
    @pytest.mark.parametrize("n", [30, 31, 32, 33, 34, 35, 36, 101, 1_000, 1_001, 1_002,
                                   1_003, 65_536, 65_537, 99_999, 100_000])
    def test_quartiles_are_numpys_inverted_cdf(self, n, exponent):
        """The quartiles taken from the sorted draws give, bit for bit, the
        bandwidth of np.percentile's inverted_cdf quartiles."""
        draws = np.ldexp(np.random.default_rng(n).standard_t(2, n), exponent)
        scaled = np.ldexp(draws, -exponent)
        q75, q25 = np.percentile(scaled, [75, 25], method="inverted_cdf")
        iqr, sd = float(q75 - q25), float(scaled.std(ddof=1))
        assert 0 < iqr / 1.34 < sd  # heavy tails: the quartiles set the bandwidth
        expected = math.ldexp(0.9 * (iqr / 1.34) * n ** (-0.2), exponent)
        assert silverman_bandwidth(sample_of(draws)) == expected


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
        mass = 0.5 * (est.values[1:] + est.values[:-1]) * np.diff(est.grid)
        assert 0.99 <= mass.sum() <= 1.001
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

    @pytest.mark.parametrize("bandwidth", [None, 0.05])
    def test_one_array_of_draws_beside_the_sample(self, bandwidth):
        """The fit's peak is its sorted, scaled draws and one block buffer per
        worker: sd is taken before the sort, and the sort is divided in place."""
        sample = sample_of(np.random.default_rng(14).standard_normal(1_000_000))
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
        tracemalloc.start()
        try:
            kde_fit(sample, bandwidth=bandwidth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * sample.draws.nbytes + workers * 8 * density._BLOCK_TERMS

    @pytest.mark.parametrize("grid_size", [density.MAX_GRID_SIZE + 1, 10 ** 11])
    def test_grid_size_cap_allocates_nothing(self, grid_size):
        sample = sample_of(np.arange(50.0))
        before = dict(vars(sample))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"between 128 and 1048576, got {grid_size}$"):
                kde_fit(sample, grid_size=grid_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one grid at the cap would take 8 MiB
        assert vars(sample) == before

    def test_bad_bandwidth(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bandwidth in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(DomainError, match="bandwidth must be positive and finite"):
                    kde_fit(sample_of(np.arange(50.0)), bandwidth=bandwidth)
            # finite, but the grid span (draw range + 6 bandwidths) overflows
            for bandwidth, text in ((1e308, "1e\\+308"), (6e307, "6e\\+307")):
                with pytest.raises(DomainError, match=f"bandwidth {text} makes the grid span"):
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


def kept_fit(sample):
    """The fit `fbst` keeps for a sample."""
    return core._latest_fits[sample][1]


class TestFitMemo:
    """kde_fit fits on every call and keeps nothing; fbst keeps the sample's latest fit."""

    @pytest.fixture()
    def sample(self):
        rng = np.random.default_rng(29)
        return PosteriorSample(draws=rng.standard_normal(3_000), label="theta")

    def test_kde_fit_keeps_nothing(self, sample):
        before = dict(vars(sample))
        first, second = kde_fit(sample), kde_fit(sample)
        assert first is not second
        assert first.grid.tobytes() == second.grid.tobytes()
        assert first.values.tobytes() == second.values.tobytes()
        assert vars(sample) == before and sample not in core._latest_fits

    def test_repeat_call_returns_same_fit(self, sample):
        fbst(sample, 0.3, 3, 2)
        est = kept_fit(sample)
        fbst(sample, 0.7, 3, 2, estimator="monte_carlo")
        assert kept_fit(sample) is est

    def test_slot_holds_only_latest_fit(self, sample):
        fbst(sample, 0.3, 3, 2)
        first = kept_fit(sample)
        for kwargs in ({"grid_size": 256}, {"bandwidth": 0.2}):
            fbst(sample, 0.3, 3, 2, **kwargs)
            key, newer = core._latest_fits[sample]
            assert newer is not first
            assert key == (kwargs.get("bandwidth"), kwargs.get("grid_size", 1024))
            fbst(sample, 0.3, 3, 2, **kwargs)
            assert kept_fit(sample) is newer
        fbst(sample, 0.3, 3, 2)
        again = kept_fit(sample)
        assert again is not first
        assert np.array_equal(again.values, first.values)

    def test_same_fit_as_fresh_sample(self, sample):
        est, fresh = kde_fit(sample), kde_fit(sample_of(sample.draws))
        assert fresh is not est
        assert np.array_equal(est.grid, fresh.grid)
        assert np.array_equal(est.values, fresh.values)
        assert est.bandwidth == fresh.bandwidth

    def test_kept_fit_is_the_one_kde_fit_returns(self, sample):
        assert sample not in core._latest_fits
        fbst(sample, 0.3, 3, 2, bandwidth=0.2, grid_size=256)
        key, est = core._latest_fits[sample]
        assert key == (0.2, 256)
        fresh = kde_fit(sample, bandwidth=0.2, grid_size=256)
        assert fresh is not est
        assert est.grid.tobytes() == fresh.grid.tobytes()
        assert est.values.tobytes() == fresh.values.tobytes()
        assert est.draws is sample.draws  # the sample's own array, and not the sample
        assert not est.draws.flags.writeable
        fbst(sample, 0.7, 3, 2, bandwidth=0.2, grid_size=256)
        assert kept_fit(sample) is est
        fbst(sample, 0.7, 3, 2, bandwidth=0.2)
        assert kept_fit(sample) is not est

    def test_failed_fit_stores_nothing(self):
        draws = np.append(np.random.default_rng(50).standard_normal(50_000), 1e4)
        sample = PosteriorSample(draws=draws, label="stray")
        before = dict(vars(sample))
        for _ in range(2):
            with pytest.raises(DomainError, match="density integrates to"):
                fbst(sample, 0.3, 3, 2)
            assert sample not in core._latest_fits
            with pytest.raises(DomainError, match="density integrates to"):
                kde_fit(sample)
            assert vars(sample) == before

    def test_repr_and_replace(self, sample):
        fbst(sample, 0.3, 3, 2)
        est = kept_fit(sample)
        assert repr(sample) == f"PosteriorSample(draws={sample.draws!r}, label='theta')"
        renamed = dataclasses.replace(sample, label="delta")
        assert renamed.label == "delta"
        assert np.array_equal(renamed.draws, sample.draws)
        assert renamed not in core._latest_fits
        fbst(renamed, 0.3, 3, 2)
        assert kept_fit(renamed) is not est
        assert kept_fit(sample) is est


def _stray_draws():
    return np.append(np.random.default_rng(50).standard_normal(50_000), 1e4)


class TestSharedBlocks:
    """kde_fit splits its node blocks across the usable cores, same sums."""

    @pytest.fixture()
    def cores(self, monkeypatch):
        def use(count, shared_terms=density._SHARED_TERMS):
            monkeypatch.setattr(density.os, "sched_getaffinity",
                                lambda pid: set(range(count)), raising=False)
            monkeypatch.setattr(density, "_SHARED_TERMS", shared_terms)
        return use

    @pytest.mark.parametrize("draws,grid_size", [
        (np.random.default_rng(7).standard_normal(100_000), 1024),
        (np.random.default_rng(8).gamma(3.0, 1.0, 20_000), 1024),
        (np.random.default_rng(300).gamma(2.0, 1.5, 300), 70_000),
    ], ids=["normal-100000", "gamma3-20000", "gamma-300-wide-grid"])
    def test_worker_count_keeps_sums_bit_equal(self, cores, draws, grid_size):
        fits = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
            for count in (1, 3):  # 3 workers, whatever the core count
                cores(count, shared_terms=0)  # split even the small fits
                fits.append(kde_fit(sample_of(draws), grid_size=grid_size))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(fits[0].grid, fits[1].grid)
        assert np.array_equal(fits[0].values, fits[1].values)
        assert fits[0].bandwidth == fits[1].bandwidth

    def test_stray_draw_fails_alike(self, cores):
        messages = []
        for count in (1, 3):
            cores(count, shared_terms=0)
            with pytest.raises(DomainError, match="density integrates to") as err:
                kde_fit(sample_of(_stray_draws()))
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_small_fits_stay_on_the_calling_thread(self, cores, monkeypatch):
        calls = []
        fill = density._fill_blocks

        def spy(*args):
            calls.append((*args[-2:], threading.current_thread()))
            fill(*args)

        monkeypatch.setattr(density, "_fill_blocks", spy)
        cores(3)
        kde_fit(sample_of(np.random.default_rng(9).gamma(2.0, 1.5, 300)))
        with pytest.raises(DomainError):
            kde_fit(sample_of(_stray_draws()))
        assert calls == [(0, 1, threading.current_thread())] * 2
        calls.clear()
        kde_fit(sample_of(np.random.default_rng(7).standard_normal(100_000)))
        assert sorted(call[:2] for call in calls) == [(0, 3), (1, 3), (2, 3)]

    @pytest.mark.parametrize("share", [0, 2], ids=["calling-thread", "worker"])
    def test_error_reaches_caller(self, cores, monkeypatch, share):
        fill = density._fill_blocks
        failed_on = []

        def failing(*args):
            if args[-2] == share:
                failed_on.append(threading.current_thread())
                raise RuntimeError("block fill failed")
            fill(*args)

        monkeypatch.setattr(density, "_fill_blocks", failing)
        cores(3, shared_terms=0)
        sample = sample_of(np.random.default_rng(10).standard_normal(20_000))
        before = dict(vars(sample))
        with pytest.raises(RuntimeError, match="block fill failed"):
            kde_fit(sample)
        assert len(failed_on) == 1
        assert (failed_on[0] is threading.current_thread()) == (share == 0)
        assert vars(sample) == before
        monkeypatch.setattr(density, "_fill_blocks", fill)
        assert np.array_equal(kde_fit(sample).values,
                              kde_fit(sample_of(sample.draws)).values)

    @pytest.mark.parametrize("failing_share", [None, 2], ids=["fills", "worker-raises"])
    def test_no_thread_outlives_the_fit(self, cores, monkeypatch, failing_share):
        fill = density._fill_blocks
        started = []

        def share(*args):
            started.append(args[-2])
            if args[-2] == failing_share:
                raise RuntimeError("block fill failed")
            fill(*args)

        monkeypatch.setattr(density, "_fill_blocks", share)
        cores(3, shared_terms=0)
        sample = sample_of(np.random.default_rng(12).standard_normal(20_000))
        before = threading.active_count()
        if failing_share is None:
            kde_fit(sample)
        else:
            with pytest.raises(RuntimeError, match="block fill failed"):
                kde_fit(sample)
        assert sorted(started) == [0, 1, 2]
        assert threading.active_count() == before


class TestIntegerArguments:
    @pytest.mark.parametrize("grid_size", [1000.7, 1024.0, "1024", None])
    def test_grid_size_must_be_an_integer(self, grid_size):
        sample = sample_of(np.random.default_rng(11).standard_normal(500))
        with pytest.raises(DomainError, match=f"grid_size must be an integer, got {grid_size!r}$"):
            kde_fit(sample, grid_size=grid_size)

    def test_kept_fit_does_not_skip_the_check(self):
        # 1024.0 == 1024, so the kept fit's key would match a float grid size
        sample = sample_of(np.random.default_rng(11).standard_normal(500))
        kde_fit(sample)
        with pytest.raises(DomainError, match="grid_size must be an integer, got 1024.0$"):
            kde_fit(sample, grid_size=1024.0)

    def test_numpy_integer_grid_size_fits_alike(self):
        draws = np.random.default_rng(11).standard_normal(500)
        fit = kde_fit(sample_of(draws), grid_size=np.int32(1000))
        assert np.array_equal(fit.values, kde_fit(sample_of(draws), grid_size=1000).values)


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
        return grid, values

    def test_valid_construction(self):
        grid, values = self._args()
        est = DensityEstimate(grid=grid, values=values, bandwidth=0.1, sample=None)
        peak = int(np.argmax(values))
        assert est.mode_density == values[peak]
        assert est.mode_location == grid[peak]

    def test_segment_mass_is_derived_and_read_only(self):
        grid, values = self._args()
        est = DensityEstimate(grid=grid, values=values, bandwidth=0.1, sample=None)
        assert np.array_equal(est.segment_mass,
                              0.5 * (values[1:] + values[:-1]) * np.diff(grid))
        assert not est.segment_mass.flags.writeable

    def test_rejects_unsorted_grid(self):
        grid, values = self._args()
        bad = grid.copy()
        bad[5] = bad[4]
        with pytest.raises(DomainError):
            DensityEstimate(grid=bad, values=values, bandwidth=0.1, sample=None)

    def test_rejects_mismatched_lengths(self):
        grid, values = self._args()
        with pytest.raises(DomainError, match="^density needs matching grid and values"):
            DensityEstimate(grid=grid, values=values[1:], bandwidth=0.1, sample=None)

    def test_rejects_negative_values(self):
        grid, values = self._args()
        bad = values.copy()
        bad[0] = -1e-3
        with pytest.raises(DomainError):
            DensityEstimate(grid=grid, values=bad, bandwidth=0.1, sample=None)

    def test_rejects_bad_normalization(self):
        grid, values = self._args()
        with pytest.raises(DomainError):
            DensityEstimate(grid=grid, values=values * 2.0, bandwidth=0.1, sample=None)

    def test_overflowing_mass_is_named_without_a_warning(self):
        """Values within a factor 2 of the float maximum overflow the trapezoid sum."""
        grid, values = np.array([0.0, 1e-308, 2e-308]), np.full(3, 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^density integrates to inf, outside"):
                DensityEstimate(grid=grid, values=values, bandwidth=1.0, sample=None)

    def test_copy_keeps_the_draws_or_is_refused_by_name(self):
        sample = sample_of(np.random.default_rng(8).standard_normal(2_000))
        fit = kde_fit(sample)
        with pytest.raises(ValueError,
                           match=r"^InitVar 'sample' must be specified with replace\(\)$"):
            dataclasses.replace(fit)
        copied = dataclasses.replace(fit, sample=sample)
        assert copied.draws is sample.draws
        assert np.array_equal(copied.values, fit.values)
        assert (core.fbst_pipeline(copied, 0.3, 1, 0, estimator="monte_carlo")[0]
                == core.fbst_pipeline(fit, 0.3, 1, 0, estimator="monte_carlo")[0])

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_rejects_nonfinite_bandwidth(self, bandwidth):
        grid, values = self._args()
        with pytest.raises(DomainError, match="bandwidth must be positive and finite"):
            DensityEstimate(grid=grid, values=values, bandwidth=bandwidth,
                            sample=None)
