"""The tests' ground truth, in one place: the example's prior scale and pinned
two-group design, closed-form test densities, and a brute-force e-value
integrator that shares no quadrature code with the core module."""

import math

import numpy as np

from fbst import DomainError, TTestData

PRIOR_SCALE = math.sqrt(2.0) / 2.0  # of the Cauchy prior on the effect size


def two_group_data() -> TTestData:
    """The pinned two-group design: n=18 per group, true effect about -0.33."""
    rng = np.random.default_rng(69)
    return TTestData(group1=rng.normal(0.0, 1.7, 18),
                     group2=rng.normal(0.8, 3.0, 18))


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
