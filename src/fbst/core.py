"""The FBST itself: surprise function, tangential set, e-values and p-values.

Pipeline for one test: kde_fit -> surprise_fit -> tangential_region ->
evalue_grid or evalue_mc -> pvalue_evalue -> standardized_evalue.  The
`fbst` function orchestrates the whole chain.  Draws enter only as a
PosteriorSample, which keeps its latest fit, so tests of many nulls and
references on one sample fit the KDE once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (DEFAULT_GRID_SIZE, DensityEstimate, PosteriorSample,
                      kde_eval, kde_fit, trapezoid_weights)
from .errors import DimensionError, DomainError, ReferenceFunctionError
from .special_math import DensityFamily, chisq_cdf, chisq_quantile, density_eval

ESTIMATORS = ("grid", "monte_carlo")


@dataclass(frozen=True)
class ReferenceFunction:
    """The denominator r(theta) of the surprise function."""

    kind: str
    family: DensityFamily | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    descriptor: str = "flat"

    def __post_init__(self) -> None:
        if self.kind == "flat":
            return
        if self.kind == "parametric":
            if self.family is None:
                raise DomainError("parametric reference needs a density family")
            return
        if self.kind != "tabulated":
            raise DomainError(f"unknown reference kind {self.kind!r}")
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise DomainError("tabulated reference needs matching grid and values")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("tabulated reference grid must be strictly increasing")
        if not np.all(values > 0):
            raise ReferenceFunctionError("tabulated reference values must be positive")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @classmethod
    def flat(cls) -> "ReferenceFunction":
        return cls(kind="flat")

    @classmethod
    def from_family(cls, family: DensityFamily) -> "ReferenceFunction":
        pairs = ",".join(f"{k}={v:g}" for k, v in sorted(family.params.items()))
        return cls(kind="parametric", family=family,
                   descriptor=f"{family.family}:{pairs}")

    @classmethod
    def from_table(cls, grid, values, source: str = "") -> "ReferenceFunction":
        name = f"table:{source}" if source else "table"
        return cls(kind="tabulated", grid=grid, values=values, descriptor=name)

    def evaluate(self, theta):
        """r(theta) for scalar or array theta."""
        if self.kind == "flat":
            out = np.ones_like(np.asarray(theta, dtype=float))
            return float(out) if out.ndim == 0 else out
        if self.kind == "parametric":
            return density_eval(self.family, theta)
        arr = np.asarray(theta, dtype=float)
        if np.any(arr < self.grid[0]) or np.any(arr > self.grid[-1]):
            raise ReferenceFunctionError(
                f"tabulated reference covers [{self.grid[0]:g}, {self.grid[-1]:g}] "
                "and cannot be evaluated outside it")
        out = np.interp(arr, self.grid, self.values)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SurpriseFunction:
    """s(theta) = posterior density / reference, tabulated on the KDE grid."""

    grid: np.ndarray
    values: np.ndarray
    s_star: float
    null_value: float
    s0_posterior_density: float
    mode_surprise: float
    relative_null_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.relative_null_ratio <= 1.0:
            raise DomainError(
                f"relative null ratio {self.relative_null_ratio} outside [0, 1]")
        for name in ("grid", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class TangentialRegion:
    """Grid nodes where the surprise strictly exceeds s*."""

    member_mask: np.ndarray
    interval_list: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        mask = np.asarray(self.member_mask, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "member_mask", mask)

    @property
    def member_segments(self) -> np.ndarray:
        """Grid segments whose two end nodes are both members."""
        return self.member_mask[1:] & self.member_mask[:-1]

    @classmethod
    def from_mask(cls, mask: np.ndarray, grid: np.ndarray) -> "TangentialRegion":
        mask = np.asarray(mask, dtype=bool)
        padded = np.concatenate(([False], mask, [False]))
        starts = np.flatnonzero(padded[1:] & ~padded[:-1])
        ends = np.flatnonzero(padded[:-1] & ~padded[1:]) - 1
        intervals = tuple((float(grid[i]), float(grid[j]))
                          for i, j in zip(starts, ends))
        return cls(member_mask=mask, interval_list=intervals)


@dataclass(frozen=True)
class FbstResult:
    """Everything one FBST run reports."""

    e_value_against: float
    e_value_in_favor: float
    p_value: float
    sev_against: float
    sev: float
    dim_theta: int
    dim_null: int
    null_value: float
    reference_descriptor: str
    estimator: str
    mode_location: float
    mode_density: float
    relative_null_ratio: float

    def __post_init__(self) -> None:
        if self.e_value_against + self.e_value_in_favor != 1.0:
            raise DomainError("e-values must sum to 1 exactly")
        for name in ("e_value_against", "e_value_in_favor", "p_value",
                     "sev_against", "sev"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} = {value} outside [0, 1]")
        if not self.dim_null < self.dim_theta:
            raise DimensionError(
                f"null dimension {self.dim_null} must be below "
                f"parameter dimension {self.dim_theta}")


def surprise_fit(posterior: DensityEstimate, ref: ReferenceFunction,
                 null_value: float) -> SurpriseFunction:
    """Tabulate s(theta) on the posterior grid and evaluate it at the null."""
    if not math.isfinite(null_value):
        raise DomainError(f"null value must be finite, got {null_value}")
    ref_values = ref.evaluate(posterior.grid)
    ref_values = np.asarray(ref_values, dtype=float)
    if np.any(ref_values <= 0):
        where = float(posterior.grid[int(np.argmin(ref_values))])
        raise ReferenceFunctionError(
            f"reference function vanishes on the grid near {where:g}")
    values = posterior.values / ref_values
    s0_density = kde_eval(posterior, null_value)
    r0 = float(ref.evaluate(null_value))
    if r0 <= 0:
        raise ReferenceFunctionError(
            f"reference function vanishes at the null value {null_value:g}")
    return SurpriseFunction(
        grid=posterior.grid,
        values=values,
        s_star=s0_density / r0,
        null_value=float(null_value),
        s0_posterior_density=s0_density,
        mode_surprise=float(values.max()),
        relative_null_ratio=s0_density / posterior.mode_density,
    )


def tangential_region(s: SurpriseFunction) -> TangentialRegion:
    """Nodes with s(theta) > s*; ties count toward the null, not the region."""
    return TangentialRegion.from_mask(s.values > s.s_star, s.grid)


def evalue_grid(posterior: DensityEstimate, region: TangentialRegion) -> float:
    """Trapezoid posterior mass of the member segments, normalized to the grid."""
    if region.member_mask.shape != posterior.grid.shape:
        raise DomainError("region mask does not match the posterior grid")
    weights = trapezoid_weights(posterior.grid, posterior.values)
    mass = float(weights[region.member_segments].sum())
    total = float(weights.sum())
    return min(1.0, max(0.0, mass / total))


def evalue_mc(sample: PosteriorSample, s: SurpriseFunction) -> float:
    """Fraction of draws whose interpolated surprise strictly exceeds s*."""
    surprise = np.interp(sample.draws, s.grid, s.values, left=0.0, right=0.0)
    return float(np.mean(surprise > s.s_star))


def pvalue_evalue(relative_null_ratio: float, k: int, h: int) -> float:
    """Asymptotic p-value 1 - F_{k-h}(-2 ln ratio) of the e-value."""
    _check_dims(k, h)
    if not 0.0 < relative_null_ratio <= 1.0 + 1e-12:
        raise DomainError(
            f"relative null ratio must lie in (0, 1], got {relative_null_ratio}")
    ratio = min(float(relative_null_ratio), 1.0)
    return 1.0 - chisq_cdf(-2.0 * math.log(ratio), k - h)


def standardized_evalue(ev_against: float, k: int, h: int) -> tuple[float, float]:
    """(sev_against, sev) with sev_against = F_{k-h}(F_k^{-1}(ev_against))."""
    _check_dims(k, h)
    if not 0.0 <= ev_against <= 1.0:
        raise DomainError(f"e-value must lie in [0, 1], got {ev_against}")
    if ev_against == 0.0:
        return 0.0, 1.0
    if ev_against == 1.0:
        return 1.0, 0.0
    sev_against = chisq_cdf(chisq_quantile(ev_against, k), k - h)
    return sev_against, 1.0 - sev_against


def _check_dims(k: int, h: int) -> None:
    if k < 1:
        raise DimensionError(f"parameter dimension must be positive, got {k}")
    if h < 0:
        raise DimensionError(f"null dimension must be nonnegative, got {h}")
    if h >= k:
        raise DimensionError(
            f"null dimension {h} must be below parameter dimension {k}")


def fbst_pipeline(sample: PosteriorSample, null_value: float, dim_theta: int,
                  dim_null: int, reference: ReferenceFunction | None = None,
                  estimator: str = "grid", bandwidth: float | None = None,
                  grid_size: int = DEFAULT_GRID_SIZE):
    """Run the full test and also return its intermediate objects."""
    _check_dims(dim_theta, dim_null)
    if estimator not in ESTIMATORS:
        raise DomainError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    ref = reference if reference is not None else ReferenceFunction.flat()
    posterior = kde_fit(sample, bandwidth=bandwidth, grid_size=grid_size)
    surprise = surprise_fit(posterior, ref, null_value)
    region = tangential_region(surprise)
    if estimator == "grid":
        ev_against = evalue_grid(posterior, region)
    else:
        ev_against = evalue_mc(sample, surprise)
    ratio = surprise.relative_null_ratio
    p_value = 0.0 if ratio == 0.0 else pvalue_evalue(ratio, dim_theta, dim_null)
    sev_against, sev = standardized_evalue(ev_against, dim_theta, dim_null)
    result = FbstResult(
        e_value_against=ev_against,
        e_value_in_favor=1.0 - ev_against,
        p_value=p_value,
        sev_against=sev_against,
        sev=sev,
        dim_theta=int(dim_theta),
        dim_null=int(dim_null),
        null_value=float(null_value),
        reference_descriptor=ref.descriptor,
        estimator=estimator,
        mode_location=posterior.mode_location,
        mode_density=posterior.mode_density,
        relative_null_ratio=ratio,
    )
    return result, posterior, surprise, region


def fbst(sample: PosteriorSample, null_value: float, dim_theta: int,
         dim_null: int, reference: ReferenceFunction | None = None,
         estimator: str = "grid", bandwidth: float | None = None,
         grid_size: int = DEFAULT_GRID_SIZE) -> FbstResult:
    """Full Bayesian Significance Test of H0: theta = null_value."""
    result, _, _, _ = fbst_pipeline(sample, null_value, dim_theta, dim_null,
                                    reference=reference, estimator=estimator,
                                    bandwidth=bandwidth, grid_size=grid_size)
    return result
