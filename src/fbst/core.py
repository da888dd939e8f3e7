"""The FBST itself: surprise function, tangential set, e-values and p-values.

Pipeline for one test: kde_fit -> surprise_fit -> evalue_grid or evalue_mc
-> pvalue_evalue -> standardized_evalue.  The tangential set is derived from
the surprise function, not a stage.  `fbst_pipeline` tests a fitted density;
`fbst` fits a PosteriorSample first and keeps the sample's latest fit;
`surprise_fit` keeps a fit's tables of its latest references, so tests of
many nulls and references on one sample fit and tabulate once.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .density import (DEFAULT_GRID_SIZE, DensityEstimate, Frozen, PosteriorSample,
                      check_fit, kde_eval, kde_fit, tabulated_curve)
from .errors import DimensionError, DomainError, ReferenceFunctionError
from .special_math import (MAX_DF, DensityFamily, chisq_quantile, chisq_sf, chisq_tails,
                           density_eval)

ESTIMATORS = ("grid", "monte_carlo")
_KEPT_TABLES = 4  # surprise tables a fit keeps: flat and user references, with room
# While their record lives: a sample's latest ((bandwidth, grid_size), fit) and a fit's
# ((key, p / r), ...), newest first.  Each is replaced whole, so no thread pairs a key
# with another value, and the read-only draws keep both from going stale.
_latest_fits = weakref.WeakKeyDictionary()
_surprise_tables = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class ReferenceFunction(Frozen):
    """The denominator r(theta) of the surprise function: a density family,
    a table interpolated on its grid, or flat (r = 1) when given neither."""

    family: DensityFamily | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    source: str = ""

    def __post_init__(self) -> None:
        if self.grid is None and self.values is None:
            if self.source and self.family is None:
                raise DomainError(f"reference source {self.source!r} has no table")
            return
        if self.family is not None:
            raise DomainError("reference takes a density family or a table, not both")
        grid, values = tabulated_curve(self.grid, self.values, "tabulated reference")
        if not np.all(values > 0):
            raise ReferenceFunctionError("tabulated reference values must be positive")
        self._freeze(grid=grid, values=values)

    @classmethod
    @cache
    def flat(cls) -> "ReferenceFunction":
        """The flat reference: one shared instance, so `reference=None` builds none."""
        return cls()

    @classmethod
    def from_family(cls, family: DensityFamily) -> "ReferenceFunction":
        return cls(family=family)

    @classmethod
    def parse(cls, text: str) -> "ReferenceFunction":
        """The flat or density-family reference whose `descriptor` is text."""
        if text == "flat":
            return cls.flat()
        family, _, pairs = text.partition(":")
        params = {}
        try:
            if family == "table":
                raise DomainError("a table is read from its file by io.load_reference")
            for item in filter(None, pairs.split(",")):
                key, eq, value = (part.strip() for part in item.partition("="))
                if not eq:
                    raise DomainError(f"parameter {item!r} is not key=value")
                if key in params:
                    raise DomainError(f"parameter {key!r} is given twice")
                params[key] = float(value)
            return cls.from_family(DensityFamily(family, params))
        except (DomainError, ValueError) as err:  # ValueError: a value that is no float
            raise DomainError(f"bad reference descriptor {text!r}: {err}") from None

    @cached_property
    def descriptor(self) -> str:
        if self.family is not None:
            pairs = ",".join(f"{k}={v:g}" if float(f"{v:g}") == v else f"{k}={v!r}"
                             for k, v in sorted(self.family.params.items()))
            return f"{self.family.family}:{pairs}"
        if self.grid is None:
            return "flat"
        return f"table:{self.source}" if self.source else "table"

    def evaluate(self, theta):
        """r(theta) for scalar or array theta."""
        if self.family is not None:
            return density_eval(self.family, theta)
        if self.grid is None:
            out = np.ones_like(np.asarray(theta, dtype=float))
            return float(out) if out.ndim == 0 else out
        arr = np.asarray(theta, dtype=float)
        if np.any(arr < self.grid[0]) or np.any(arr > self.grid[-1]):
            raise ReferenceFunctionError(
                f"tabulated reference covers [{self.grid[0]:g}, {self.grid[-1]:g}] "
                "and cannot be evaluated outside it")
        out = np.interp(arr, self.grid, self.values)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class SurpriseFunction(Frozen):
    """s(theta) = posterior density / reference on the posterior grid; the
    tangential set T = {theta : s(theta) > s*} is derived, not stored."""

    posterior: DensityEstimate
    values: np.ndarray
    s_star: float
    null_value: float
    s0_posterior_density: float

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != self.posterior.grid.shape:
            raise DomainError("surprise values do not match the posterior grid")
        self._freeze(values=values)
        if not 0.0 <= self.relative_null_ratio <= 1.0:
            raise DomainError(
                f"relative null ratio {self.relative_null_ratio} outside [0, 1]")

    @property
    def grid(self) -> np.ndarray:
        return self.posterior.grid

    @property
    def relative_null_ratio(self) -> float:
        return self.s0_posterior_density / self.posterior.mode_density

    @property
    def member_mask(self) -> np.ndarray:
        """Nodes with s(theta) > s*; ties count toward the null, not the set."""
        return self.values > self.s_star

    @property
    def member_segments(self) -> np.ndarray:
        """Grid segments whose two end nodes are both members."""
        mask = self.member_mask
        return mask[1:] & mask[:-1]

    @property
    def interval_list(self) -> tuple[tuple[float, float], ...]:
        """(first, last) grid node of each run of member nodes."""
        padded = np.concatenate(([False], self.member_mask, [False]))
        starts = np.flatnonzero(padded[1:] & ~padded[:-1])
        ends = np.flatnonzero(padded[:-1] & ~padded[1:]) - 1
        return tuple((float(self.grid[i]), float(self.grid[j]))
                     for i, j in zip(starts, ends))


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
        _check_dims(self.dim_theta, self.dim_null)


def surprise_fit(posterior: DensityEstimate, ref: ReferenceFunction,
                 null_value: float) -> SurpriseFunction:
    """Tabulate s(theta) on the posterior grid and evaluate it at the null.
    No null enters the table, so the fit keeps it for its latest references,
    matched by descriptor (it fixes r exactly), a table by identity."""
    check_null(null_value)
    kept = _surprise_tables.get(posterior, ())
    key = ref.descriptor if ref.grid is None else ref
    values = next((table for held, table in kept if held == key), None)
    if values is None:
        ref_values = np.asarray(ref.evaluate(posterior.grid), dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values = posterior.values / ref_values  # not finite where r is 0 or tiny
        if not np.all(np.isfinite(values)):
            where = float(posterior.grid[int(np.argmin(ref_values))])
            raise ReferenceFunctionError(
                f"reference function vanishes on the grid near {where:g}")
        _surprise_tables[posterior] = ((key, values),) + kept[:_KEPT_TABLES - 1]
    s0_density = kde_eval(posterior, null_value)
    r0 = float(ref.evaluate(null_value))
    if r0 <= 0:
        raise ReferenceFunctionError(
            f"reference function vanishes at the null value {null_value:g}")
    return SurpriseFunction(
        posterior=posterior,
        values=values,
        s_star=s0_density / r0,
        null_value=float(null_value),
        s0_posterior_density=s0_density,
    )


def evalue_grid(s: SurpriseFunction) -> float:
    """Trapezoid posterior mass of the member segments, normalized to the grid."""
    mass = float(s.posterior.segment_mass[s.member_segments].sum())
    return min(1.0, max(0.0, mass / s.posterior.total_mass))


def evalue_mc(s: SurpriseFunction) -> float:
    """Fraction of the fit's draws whose interpolated surprise strictly exceeds s*."""
    draws, grid, values, s_star = s.posterior.draws, s.grid, s.values, s.s_star
    if draws is None:
        raise DomainError("the Monte Carlo e-value needs the draws the density was fitted to")
    # np.interp lands within a few ulps of a segment's larger end (and 2^-1074 per
    # unit of step where slopes underflow), so a segment whose ends both clear s*,
    # or both miss it, by far more counts whole or not at all; np.interp decides
    # the other segments' draws, and those off the grid or on its last node.
    steps, ends = np.diff(grid), np.abs(values)
    margin = 2.0 ** -40 * np.maximum(ends[:-1], ends[1:]) + 2.0 ** -1070 * (steps + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite end or slope
        sure = np.isfinite(np.diff(values) / steps)  # leaves its segment to np.interp
        above = sure & (np.minimum(values[:-1], values[1:]) - margin > s_star)
        below = sure & (np.maximum(values[:-1], values[1:]) + margin < s_star)
    undecided = np.concatenate(([True], ~(above | below), [True]))
    ordered = np.sort(draws)
    # draws below the grid, in each segment [g_j, g_j+1), then from the last node on
    sizes = np.diff(np.searchsorted(ordered, grid), prepend=0, append=ordered.size)
    surprise = np.interp(ordered[np.repeat(undecided, sizes)], grid, values,
                         left=0.0, right=0.0)
    count = int(sizes[1:-1][above].sum()) + int(np.count_nonzero(surprise > s_star))
    return count / draws.size


def pvalue_evalue(relative_null_ratio: float, k: int, h: int) -> float:
    """Asymptotic p-value 1 - F_{k-h}(-2 ln ratio) of the e-value."""
    _check_dims(k, h)
    if not 0.0 < relative_null_ratio <= 1.0 + 1e-12:
        raise DomainError(
            f"relative null ratio must lie in (0, 1], got {relative_null_ratio}")
    ratio = min(float(relative_null_ratio), 1.0)
    return chisq_sf(-2.0 * math.log(ratio), k - h)


def standardized_evalue(ev_against: float, k: int, h: int) -> tuple[float, float]:
    """(sev_against, sev): the two tails F_{k-h} and Q_{k-h} at F_k^{-1}(ev_against),
    which are ev_against and 1 - ev_against, exactly, when h = 0.  One call gives
    both, so a small sev is the upper tail itself and keeps its relative accuracy."""
    _check_dims(k, h)
    if not 0.0 <= ev_against <= 1.0:
        raise DomainError(f"e-value must lie in [0, 1], got {ev_against}")
    if ev_against == 1.0:
        return 1.0, 0.0
    if h == 0:
        return ev_against, 1.0 - ev_against
    return chisq_tails(chisq_quantile(ev_against, k), k - h)


def _check_dims(k: int, h: int) -> None:
    if not (isinstance(k, (int, np.integer)) and isinstance(h, (int, np.integer))):
        raise DimensionError(f"dimensions must be integers, got {k!r} and {h!r}")
    if k < 1:
        raise DimensionError(f"parameter dimension must be positive, got {k}")
    if k > MAX_DF:  # the largest df a test hands the chi-square functions
        raise DimensionError(f"parameter dimension must be at most {MAX_DF}, got {k}")
    if h < 0:
        raise DimensionError(f"null dimension must be nonnegative, got {h}")
    if h >= k:
        raise DimensionError(
            f"null dimension {h} must be below parameter dimension {k}")


def check_null(null_value: float) -> None:
    if not math.isfinite(null_value):
        raise DomainError(f"null value must be finite, got {null_value}")


def check_run(null_value: float, dim_theta: int, dim_null: int, estimator: str) -> None:
    """Every check of a test's arguments but the fit's: run it before reading the draws."""
    _check_dims(dim_theta, dim_null)
    check_null(null_value)
    if estimator not in ESTIMATORS:
        raise DomainError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")


def fbst_pipeline(posterior: DensityEstimate, null_value: float, dim_theta: int,
                  dim_null: int, reference: ReferenceFunction | None = None,
                  estimator: str = "grid"):
    """Run the full test on a fitted density; also return its surprise function."""
    check_run(null_value, dim_theta, dim_null, estimator)
    ref = reference if reference is not None else ReferenceFunction.flat()
    surprise = surprise_fit(posterior, ref, null_value)
    ev_against = evalue_grid(surprise) if estimator == "grid" else evalue_mc(surprise)
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
    return result, surprise


def fbst(sample: PosteriorSample, null_value: float, dim_theta: int,
         dim_null: int, reference: ReferenceFunction | None = None,
         estimator: str = "grid", bandwidth: float | None = None,
         grid_size: int = DEFAULT_GRID_SIZE) -> FbstResult:
    """Full Bayesian Significance Test of H0: theta = null_value."""
    check_run(null_value, dim_theta, dim_null, estimator)  # before the fit
    check_fit(bandwidth, grid_size)  # before a kept fit is matched
    latest = _latest_fits.get(sample)
    if latest is None or latest[0] != (bandwidth, grid_size):
        latest = ((bandwidth, grid_size), kde_fit(sample, bandwidth, grid_size))
        _latest_fits[sample] = latest
    return fbst_pipeline(latest[1], null_value, dim_theta, dim_null, reference=reference,
                         estimator=estimator)[0]
