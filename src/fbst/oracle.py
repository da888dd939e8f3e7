"""Independent ground truth for testing: published standardized e-values,
closed-form e-values, a brute-force integrator, and a small Metropolis
sampler for the two-group t-test model.

Shipped with the library so installations can self-verify.  The brute-force
integrator deliberately shares no quadrature code with the core module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import PosteriorSample
from .errors import DomainError, SamplerError

# (ev_against, k, h, sev): the four summary blocks printed by the reference
# implementation
SEV_FIXTURES = (
    (0.8305998, 3, 2, 0.0248695),
    (0.9032063, 3, 2, 0.01189972),
    (0.9859827, 3, 2, 0.001123303),
    (0.9758885, 8, 7, 0.00002672151),
)

_ADAPT_WINDOW = 50
_ACCEPT_TARGET = (0.2, 0.5)
_ACCEPT_LIMITS = (0.1, 0.7)


@dataclass(frozen=True)
class AnalyticPosterior:
    """A normal posterior N(mu, sigma^2) with known closed-form e-values."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class TTestData:
    """Two groups of observations for the two-sample t-test model."""

    group1: np.ndarray
    group2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("group1", "group2"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            if arr.size < 2:
                raise DomainError(f"{name} needs at least 2 observations")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} contains non-finite observations")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def analytic_evalue_flat(post: AnalyticPosterior, null_value: float) -> float:
    """Exact flat-reference e-value of a normal posterior: 2 Phi(|z|) - 1."""
    z = abs(null_value - post.mu) / post.sigma
    return math.erf(z / math.sqrt(2.0))


def brute_force_evalue(density_fn, ref_fn, null_value: float,
                       lo: float, hi: float, steps: int) -> float:
    """Midpoint-rule e-value over [lo, hi]; independent of the grid estimator.

    density_fn and ref_fn must accept numpy arrays.
    """
    if steps < 100_000:
        raise DomainError(f"need at least 100000 steps, got {steps}")
    if not lo < hi:
        raise DomainError(f"empty integration range [{lo}, {hi}]")
    xs = lo + (np.arange(steps) + 0.5) * ((hi - lo) / steps)
    dens = np.asarray(density_fn(xs), dtype=float)
    refs = np.asarray(ref_fn(xs), dtype=float)
    cutoff = float(density_fn(null_value)) / float(ref_fn(null_value))
    member = dens / refs > cutoff
    return float(dens[member].sum() / dens.sum())


def random_walk_metropolis(log_density, initial, iterations: int, seed: int,
                           step_scales, initial_step: float = 1.4) -> np.ndarray:
    """Adaptive random-walk Metropolis chain; returns post-burn-in states.

    The global step factor adapts during the first 10% of iterations to pull
    the acceptance rate into [0.2, 0.5]; adaptation then freezes.  Raises
    SamplerError if the frozen chain accepts outside [0.1, 0.7].
    """
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


def ttest_metropolis(data: TTestData, prior_scale: float, iterations: int,
                     seed: int) -> PosteriorSample:
    """Posterior draws of the effect size in the two-group t-test model.

    Model: group1 ~ N(mu + sigma*delta/2, sigma^2), group2 ~ N(mu -
    sigma*delta/2, sigma^2), Cauchy(0, prior_scale) prior on delta, flat
    prior on mu, and the reference prior 1/sigma^2 on the variance.
    """
    if prior_scale <= 0:
        raise DomainError(f"prior scale must be positive, got {prior_scale}")
    if iterations < 100_000:
        raise DomainError(f"need at least 100000 iterations, got {iterations}")
    g1, g2 = data.group1, data.group2
    n1, n2 = g1.size, g2.size
    total_n = n1 + n2
    mean1, mean2 = float(g1.mean()), float(g2.mean())
    ss1 = float(((g1 - mean1) ** 2).sum())
    ss2 = float(((g2 - mean2) ** 2).sum())
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
