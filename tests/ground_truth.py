"""The tests' ground truth, in one place: the published standardized
e-values, the closed-form e-value of a normal posterior, the example's prior
scale, pinned two-group design and t-test target, closed-form test densities,
and a brute-force e-value integrator that shares no quadrature code with the
core module."""

import math

import numpy as np

from fbst import DomainError, TTestData

# (ev_against, k, h, sev): the four summary blocks printed by the reference
# implementation
SEV_FIXTURES = (
    (0.8305998, 3, 2, 0.0248695),
    (0.9032063, 3, 2, 0.01189972),
    (0.9859827, 3, 2, 0.001123303),
    (0.9758885, 8, 7, 0.00002672151),
)

PRIOR_SCALE = math.sqrt(2.0) / 2.0  # of the Cauchy prior on the effect size


def analytic_evalue_flat(mu: float, sigma: float, null_value: float) -> float:
    """Exact flat-reference e-value of N(mu, sigma^2): 2 Phi(|z|) - 1."""
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    z = abs(null_value - mu) / sigma
    return math.erf(z / math.sqrt(2.0))


def two_group_data() -> TTestData:
    """The pinned two-group design: n=18 per group, true effect about -0.33."""
    rng = np.random.default_rng(69)
    return TTestData(group1=rng.normal(0.0, 1.7, 18),
                     group2=rng.normal(0.8, 3.0, 18))


def ttest_target(data: TTestData, prior_scale: float):
    """(log posterior, initial state, step scales) of the two-group t-test model
    on (mu, delta, log sigma), each float computed in the order
    `fbst.oracle.ttest_metropolis` computes it."""
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
    return log_post, initial, step_scales


def flat_pdf(x):
    return np.ones_like(np.asarray(x, dtype=float))


def normal_pdf(mu, sigma):
    def pdf(x):
        z = (np.asarray(x, dtype=float) - mu) / sigma
        return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    return pdf


def cauchy_pdf(location, scale):
    def pdf(x):
        z = (np.asarray(x, dtype=float) - location) / scale
        return 1.0 / (math.pi * scale * (1.0 + z * z))
    return pdf


def gamma3_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, 0.5 * x * x * np.exp(-np.minimum(x, 700.0)), 0.0)


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
