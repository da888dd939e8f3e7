"""The two-group t-test Metropolis sampler that validation and the benchmark
draw effect-size posteriors from: `TTestData` and `ttest_metropolis`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Frozen, PosteriorSample
from .errors import DomainError, SamplerError

_INITIAL_STEP = 1.4  # global step factor before adaptation
_ADAPT_WINDOW = 50
_CHUNK = 512  # iterations per batch of draws after burn-in
_ACCEPT_TARGET = (0.2, 0.5)
_ACCEPT_LIMITS = (0.1, 0.7)


@dataclass(frozen=True, eq=False)
class TTestData(Frozen):
    """Two groups of observations for the two-sample t-test model."""

    group1: np.ndarray
    group2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("group1", "group2"):
            arr = np.array(getattr(self, name), dtype=float).ravel()
            if arr.size < 2:
                raise DomainError(f"{name} needs at least 2 observations")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} contains non-finite observations")
            self._freeze(**{name: arr})


def ttest_metropolis(data: TTestData, prior_scale: float, iterations: int,
                     seed: int) -> PosteriorSample:
    """Posterior draws of the effect size in the two-group t-test model.

    Model: group1 ~ N(mu + sigma*delta/2, sigma^2), group2 ~ N(mu -
    sigma*delta/2, sigma^2), Cauchy(0, prior_scale) prior on delta, flat
    prior on mu, and the reference prior 1/sigma^2 on the variance.
    """
    if not 0 < prior_scale < math.inf:
        raise DomainError(f"prior scale must be positive and finite, got {prior_scale}")
    if iterations < 100_000:
        raise DomainError(f"need at least 100000 iterations, got {iterations}")
    g1, g2 = data.group1, data.group2
    n1, n2 = g1.size, g2.size
    total_n = n1 + n2
    mean1, mean2 = float(g1.mean()), float(g2.mean())
    ss1 = float(((g1 - mean1) ** 2).sum())
    ss2 = float(((g2 - mean2) ** 2).sum())
    if ss1 + ss2 == 0:
        raise DomainError("zero pooled variance: each group's observations are equal")
    pooled_sd = math.sqrt((ss1 + ss2) / (total_n - 2))
    mu, delta, log_sigma = ((n1 * mean1 + n2 * mean2) / total_n,
                            (mean1 - mean2) / pooled_sd, math.log(pooled_sd))
    scales = np.array([
        pooled_sd / math.sqrt(total_n),
        math.sqrt(1.0 / n1 + 1.0 / n2),
        1.0 / math.sqrt(2.0 * (total_n - 2)),
    ])
    # adaptive random-walk Metropolis on (mu, delta, log sigma), the model written out
    # for the start and in the loop: the step adapts per window in the first 10% toward
    # acceptance in [0.2, 0.5], then freezes, and acceptance outside [0.1, 0.7] after
    # that is a SamplerError.  The seed's stream holds every jump, then every uniform;
    # the second generator skips the jumps, and both draw a window or chunk at a time
    burn_in = iterations // 10
    bounds = [*range(0, burn_in, _ADAPT_WINDOW),
              *range(burn_in, iterations, _CHUNK), iterations]
    jump_rng, uniform_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for start, stop in zip(bounds, bounds[1:]):
        uniform_rng.standard_normal((stop - start, 3))
    exp, log1p = math.exp, math.log1p
    sigma = exp(log_sigma)
    shift = sigma * delta / 2.0
    resid = (ss1 + n1 * (mean1 - mu - shift) ** 2
             + ss2 + n2 * (mean2 - mu + shift) ** 2)
    log_p = (-total_n * log_sigma - resid / (2.0 * sigma * sigma)
             - log1p((delta / prior_scale) ** 2))
    step = _INITIAL_STEP
    kept = np.empty(iterations - burn_in)
    accepted_main = 0
    for start, stop in zip(bounds, bounds[1:]):
        moves = (step * scales * jump_rng.standard_normal((stop - start, 3))).tolist()
        log_uniforms = np.log(uniform_rng.random(stop - start)).tolist()
        path = []
        accepted = 0
        for (d_mu, d_delta, d_log_sigma), log_u in zip(moves, log_uniforms):
            mu_new, delta_new, log_sigma_new = (mu + d_mu, delta + d_delta,
                                                log_sigma + d_log_sigma)
            sigma = exp(log_sigma_new)
            shift = sigma * delta_new / 2.0
            resid = (ss1 + n1 * (mean1 - mu_new - shift) ** 2
                     + ss2 + n2 * (mean2 - mu_new + shift) ** 2)
            log_p_new = (-total_n * log_sigma_new - resid / (2.0 * sigma * sigma)
                         - log1p((delta_new / prior_scale) ** 2))
            if log_p_new - log_p > log_u:
                mu, delta, log_sigma, log_p = mu_new, delta_new, log_sigma_new, log_p_new
                accepted += 1
            path.append(delta)
        if start >= burn_in:
            kept[start - burn_in:stop - burn_in] = path
            accepted_main += accepted
        elif stop - start == _ADAPT_WINDOW:
            rate = accepted / _ADAPT_WINDOW
            if rate < _ACCEPT_TARGET[0]:
                step *= 0.8
            elif rate > _ACCEPT_TARGET[1]:
                step *= 1.25
    rate = accepted_main / (iterations - burn_in)
    if not _ACCEPT_LIMITS[0] <= rate <= _ACCEPT_LIMITS[1]:
        raise SamplerError(
            f"acceptance rate {rate:.3f} outside [{_ACCEPT_LIMITS[0]}, "
            f"{_ACCEPT_LIMITS[1]}] after adaptation")
    return PosteriorSample(draws=kept, label="delta")
