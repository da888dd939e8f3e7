"""The chunked, float-valued sampler against a frozen copy of the array one.

`array_metropolis` is a verbatim copy of `random_walk_metropolis` as it was
when it drew all jumps and uniforms at once and moved an ndarray state.  The
sampler now draws them a window or chunk at a time and moves a tuple of
floats; every chain must stay bit-identical to the copy's.
"""

import tracemalloc

import numpy as np
import pytest

import fbst.oracle
from fbst import (DomainError, SamplerError, random_walk_metropolis,
                  ttest_metropolis)
from ground_truth import PRIOR_SCALE, two_group_data

_ADAPT_WINDOW = 50
_ACCEPT_TARGET = (0.2, 0.5)
_ACCEPT_LIMITS = (0.1, 0.7)


def array_metropolis(log_density, initial, iterations: int, seed: int,
                     step_scales, initial_step: float = 1.4) -> np.ndarray:
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
    if not _ACCEPT_LIMITS[0] <= rate <= _ACCEPT_LIMITS[1]:
        raise SamplerError(
            f"acceptance rate {rate:.3f} outside [{_ACCEPT_LIMITS[0]}, "
            f"{_ACCEPT_LIMITS[1]}] after adaptation")
    return kept


def normal_log_density(mu, sigma):
    def log_density(theta):
        return -0.5 * ((theta[0] - mu) / sigma) ** 2
    return log_density


def ttest_target(monkeypatch):
    """The log posterior, start and step scales `ttest_metropolis` passes on."""
    data = two_group_data()

    class Captured(Exception):
        pass

    def capture(log_density, initial, iterations, seed, step_scales):
        raise Captured(log_density, initial, step_scales)

    with monkeypatch.context() as patch:
        patch.setattr(fbst.oracle, "random_walk_metropolis", capture)
        with pytest.raises(Captured) as info:
            ttest_metropolis(data, PRIOR_SCALE, 100_000, seed=0)
    return info.value.args


def both_chains(log_density, initial, iterations, seed, step_scales):
    new = random_walk_metropolis(log_density, initial, iterations, seed,
                                 step_scales)
    old = array_metropolis(log_density, initial, iterations, seed, step_scales)
    return new, old


@pytest.mark.parametrize("iterations", [100_000, 100_037])
@pytest.mark.parametrize("seed", [0, 3, 12])
class TestSameChain:
    def test_conjugate_normal_target(self, seed, iterations):
        new, old = both_chains(normal_log_density(3.0, 2.0), np.array([0.0]),
                               iterations, seed, np.array([2.0]))
        assert new.shape == (iterations - iterations // 10, 1)
        assert np.array_equal(new, old)

    def test_ttest_target(self, seed, iterations, monkeypatch):
        log_post, initial, step_scales = ttest_target(monkeypatch)
        new, old = both_chains(log_post, initial, iterations, seed,
                               step_scales)
        assert new.shape == (iterations - iterations // 10, 3)
        assert np.array_equal(new, old)


class TestSameAdaptation:
    # without adaptation either chain would accept outside [0.1, 0.7] and
    # raise, so a returned chain shows the step moved far from its start
    def test_narrow_target_shrinks_step(self):
        new, old = both_chains(normal_log_density(0.0, 0.01), [0.0], 100_037,
                               4, [1.0])
        assert np.array_equal(new, old)

    def test_wide_target_grows_step(self):
        log_density = normal_log_density(5.0, 100.0)
        new, old = both_chains(lambda theta: log_density(theta) - theta[1] ** 2,
                               [0.0, 0.0], 100_000, 8, [0.01, 0.01])
        assert np.array_equal(new, old)

    def test_short_chain_without_full_window(self):
        new, old = both_chains(normal_log_density(0.0, 1.0), [0.0], 437, 5,
                               [1.0])
        assert np.array_equal(new, old)

    def test_flat_target_fails_with_same_message(self):
        messages = []
        for sampler in (random_walk_metropolis, array_metropolis):
            with pytest.raises(SamplerError) as info:
                sampler(lambda theta: 0.0, np.array([0.0]), 100_000, 1,
                        np.array([1.0]))
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def traced_peak(sampler) -> int:
    tracemalloc.start()
    try:
        sampler(lambda theta: -0.5 * (theta[0] * theta[0] + theta[1] * theta[1]
                                      + theta[2] * theta[2]),
                np.zeros(3), 100_000, 0, np.ones(3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_below_three_quarters_of_array_sampler():
    # the array sampler holds every jump and uniform at once (5.1 MiB here,
    # 2.1 MiB of it the kept chain); the chunked one about 2.3-3.1 MiB
    new = traced_peak(random_walk_metropolis)
    old = traced_peak(array_metropolis)
    assert new <= 0.75 * old, (new, old)
