"""What the package ships of its ground truth: the published standardized
e-values (`SEV_FIXTURES`) and the closed-form e-value `analytic_evalue_flat`,
which `fbst selfcheck` checks against, and the two-group t-test Metropolis
sampler that validation and the benchmark draw posteriors from."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .density import Frozen, PosteriorSample
from .errors import DomainError, SamplerError

# (ev_against, k, h, sev): the four summary blocks printed by the reference
# implementation
SEV_FIXTURES = (
    (0.8305998, 3, 2, 0.0248695),
    (0.9032063, 3, 2, 0.01189972),
    (0.9859827, 3, 2, 0.001123303),
    (0.9758885, 8, 7, 0.00002672151),
)

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


def analytic_evalue_flat(mu: float, sigma: float, null_value: float) -> float:
    """Exact flat-reference e-value of N(mu, sigma^2): 2 Phi(|z|) - 1."""
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    z = abs(null_value - mu) / sigma
    return math.erf(z / math.sqrt(2.0))


def random_walk_metropolis(log_density, initial, iterations: int, seed: int,
                           step_scales) -> np.ndarray:
    """Adaptive random-walk Metropolis chain; returns post-burn-in states.

    The global step factor adapts during the first 10% of iterations to pull
    the acceptance rate into [0.2, 0.5]; adaptation then freezes.  Raises
    SamplerError if the frozen chain accepts outside [0.1, 0.7].  log_density
    receives each state as a tuple of Python floats.
    """
    if iterations < 1:
        raise DomainError(f"need at least 1 iteration, got {iterations}")
    state = np.asarray(initial, dtype=float)
    scales = np.asarray(step_scales, dtype=float)
    if state.shape != scales.shape or state.ndim != 1:
        raise DomainError("initial state and step scales must match in shape")
    dim, burn_in = state.size, iterations // 10
    state = tuple(state.tolist())
    # the step is constant within each adaptation window and after burn-in;
    # the seed's stream holds every jump, then every uniform: the second
    # generator skips the jumps, and both draw a window or chunk at a time
    bounds = [*range(0, burn_in, _ADAPT_WINDOW),
              *range(burn_in, iterations, _CHUNK), iterations]
    jump_rng, uniform_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for start, stop in zip(bounds, bounds[1:]):
        uniform_rng.standard_normal((stop - start, dim))
    step = _INITIAL_STEP
    log_p = float(log_density(state))
    kept = np.empty((iterations - burn_in, dim))
    accepted_main = 0
    for start, stop in zip(bounds, bounds[1:]):
        moves = (step * scales * jump_rng.standard_normal((stop - start, dim))).tolist()
        log_uniforms = np.log(uniform_rng.random(stop - start)).tolist()
        path = []
        accepted = 0
        for move, log_u in zip(moves, log_uniforms):
            proposal = tuple(map(operator.add, state, move))
            log_p_new = float(log_density(proposal))
            if log_p_new - log_p > log_u:
                state = proposal
                log_p = log_p_new
                accepted += 1
            path.append(state)
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
    return kept


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

    def log_post(theta):
        mu, delta, log_sigma = theta
        sigma = math.exp(log_sigma)
        shift = sigma * delta / 2.0
        resid = (ss1 + n1 * (mean1 - mu - shift) ** 2
                 + ss2 + n2 * (mean2 - mu + shift) ** 2)
        return (-total_n * log_sigma - resid / (2.0 * sigma * sigma)
                - math.log1p((delta / prior_scale) ** 2))

    initial = np.array([
        (n1 * mean1 + n2 * mean2) / total_n,
        (mean1 - mean2) / pooled_sd,
        math.log(pooled_sd),
    ])
    step_scales = np.array([
        pooled_sd / math.sqrt(total_n),
        math.sqrt(1.0 / n1 + 1.0 / n2),
        1.0 / math.sqrt(2.0 * (total_n - 2)),
    ])
    chain = random_walk_metropolis(log_post, initial, iterations, seed,
                                   step_scales)
    return PosteriorSample(draws=chain[:, 1], label="delta")
