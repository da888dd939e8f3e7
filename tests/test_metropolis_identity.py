"""The t-test sampler that ships against a frozen copy of the array sampler.

`array_metropolis` is a verbatim copy of the generic random-walk sampler as
it was when it drew all jumps and uniforms at once and moved an ndarray
state.  `ttest_metropolis` now draws them a window or chunk at a time and runs
the t-test model inline on Python floats; run on `ground_truth.ttest_target`,
the copy must give the same chain bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import fbst.oracle
from fbst import DomainError, SamplerError, ttest_metropolis
from ground_truth import PRIOR_SCALE, ttest_target, two_group_data

_ADAPT_WINDOW = 50
_ACCEPT_TARGET = (0.2, 0.5)
_ACCEPT_LIMITS = (0.1, 0.7)


def array_metropolis(log_density, initial, iterations: int, seed: int,
                     step_scales, initial_step: float = 1.4,
                     accept_limits=_ACCEPT_LIMITS) -> np.ndarray:
    state = np.asarray(initial, dtype=float).copy()
    scales = np.asarray(step_scales, dtype=float)
    if state.shape != scales.shape or state.ndim != 1:
        raise DomainError("initial state and step scales must match in shape")
    rng = np.random.default_rng(seed)
    jumps = rng.standard_normal((iterations, state.size))
    log_uniforms = np.log(rng.random(iterations))
    burn_in = iterations // 10
    step = float(initial_step)
    log_p = float(log_density(state))
    kept = np.empty((iterations - burn_in, state.size))
    accepted_window = 0
    accepted_main = 0
    for i in range(iterations):
        proposal = state + step * scales * jumps[i]
        log_p_new = float(log_density(proposal))
        if log_p_new - log_p > log_uniforms[i]:
            state = proposal
            log_p = log_p_new
            if i < burn_in:
                accepted_window += 1
            else:
                accepted_main += 1
        if i < burn_in and (i + 1) % _ADAPT_WINDOW == 0:
            rate = accepted_window / _ADAPT_WINDOW
            if rate < _ACCEPT_TARGET[0]:
                step *= 0.8
            elif rate > _ACCEPT_TARGET[1]:
                step *= 1.25
            accepted_window = 0
        if i >= burn_in:
            kept[i - burn_in] = state
    rate = accepted_main / (iterations - burn_in)
    if not accept_limits[0] <= rate <= accept_limits[1]:
        raise SamplerError(
            f"acceptance rate {rate:.3f} outside [{accept_limits[0]}, "
            f"{accept_limits[1]}] after adaptation")
    return kept


def both_chains(iterations, seed, **frozen):
    """The shipped sampler's chain and the frozen copy's delta column."""
    data = two_group_data()
    log_post, initial, step_scales = ttest_target(data, PRIOR_SCALE)
    new = ttest_metropolis(data, PRIOR_SCALE, iterations, seed).draws
    old = array_metropolis(log_post, initial, iterations, seed, step_scales,
                           **frozen)
    return new, old[:, 1]


@pytest.mark.parametrize("iterations", [100_000, 100_037])
@pytest.mark.parametrize("seed", [0, 3, 12])
class TestSameChain:
    def test_ttest_target(self, seed, iterations):
        new, old = both_chains(iterations, seed)
        assert new.shape == (iterations - iterations // 10,)
        assert np.array_equal(new, old)


class TestSameAdaptation:
    # from either start step, a chain that kept it would accept outside
    # [0.1, 0.7] and raise, so a returned chain shows the step moved far
    def test_narrow_target_shrinks_step(self, monkeypatch):
        monkeypatch.setattr(fbst.oracle, "_INITIAL_STEP", 40.0)
        new, old = both_chains(100_037, 4, initial_step=40.0)
        assert np.array_equal(new, old)

    def test_wide_target_grows_step(self, monkeypatch):
        monkeypatch.setattr(fbst.oracle, "_INITIAL_STEP", 0.05)
        new, old = both_chains(100_000, 8, initial_step=0.05)
        assert np.array_equal(new, old)

    def test_acceptance_outside_limits_fails_with_same_message(self, monkeypatch):
        limits = (0.9, 1.0)
        monkeypatch.setattr(fbst.oracle, "_ACCEPT_LIMITS", limits)
        data = two_group_data()
        log_post, initial, step_scales = ttest_target(data, PRIOR_SCALE)
        with pytest.raises(SamplerError) as new:
            ttest_metropolis(data, PRIOR_SCALE, 100_000, 1)
        with pytest.raises(SamplerError) as old:
            array_metropolis(log_post, initial, 100_000, 1, step_scales,
                             accept_limits=limits)
        assert str(new.value) == str(old.value)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_below_three_quarters_of_array_sampler():
    # the array sampler holds every jump and uniform at once and keeps all
    # three coordinates (5.1 MiB here); the shipped one a chunk of draws and
    # delta alone (1.6 MiB).  Tracing makes every float allocation slow, so the
    # array sampler's target gets each state as floats, which does not change
    # what that sampler holds
    data = two_group_data()
    log_post, initial, step_scales = ttest_target(data, PRIOR_SCALE)
    new = traced_peak(lambda: ttest_metropolis(data, PRIOR_SCALE, 100_000, 0))
    old = traced_peak(lambda: array_metropolis(lambda theta: log_post(theta.tolist()),
                                               initial, 100_000, 0, step_scales))
    assert new <= 0.75 * old, (new, old)
