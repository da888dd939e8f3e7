"""Gaussian kernel density estimation of a posterior from its draws."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, DrawsError

MIN_SAMPLE_SIZE = 30
MIN_GRID_SIZE = 128
DEFAULT_GRID_SIZE = 1024

_CHUNK = 8192
_BLOCK_TERMS = 1 << 16  # kernel terms per block: 0.5 MB of doubles


def trapezoid_mass(grid: np.ndarray, values: np.ndarray) -> float:
    """Trapezoid-rule integral of a tabulated curve."""
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(grid)))


@dataclass(frozen=True)
class PosteriorSample:
    """A labeled vector of scalar posterior draws for one parameter.

    The sample keeps a read-only copy of its draws and its latest density
    fit, so repeated tests on it with the same bandwidth and grid size fit
    once (see `kde_fit`).
    """

    draws: np.ndarray
    label: str
    # [((bandwidth, grid_size), DensityEstimate)] of the latest fit, or [None].
    # One tuple, replaced whole, so a reader never pairs a key with another
    # fit; the copy of the draws in __post_init__ keeps it from going stale.
    _latest_fit: list = field(default_factory=lambda: [None], init=False,
                              repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.array(self.draws, dtype=float).ravel()
        if arr.size < MIN_SAMPLE_SIZE:
            raise DrawsError(
                f"need at least {MIN_SAMPLE_SIZE} posterior draws, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DrawsError(f"draw {bad} is not finite")
        if not self.label:
            raise DrawsError("sample label must be nonempty")
        arr.setflags(write=False)
        object.__setattr__(self, "draws", arr)

    @property
    def n(self) -> int:
        return int(self.draws.size)


@dataclass(frozen=True)
class DensityEstimate:
    """A density tabulated on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    mode_location: float
    mode_density: float

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise DomainError("grid and values must be matching vectors")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("grid must be strictly increasing")
        if np.any(values < 0):
            raise DomainError("density values must be nonnegative")
        if self.bandwidth <= 0:
            raise DomainError(f"bandwidth must be positive, got {self.bandwidth}")
        total = trapezoid_mass(grid, values)
        if not 0.99 <= total <= 1.001:
            raise DomainError(
                f"density integrates to {total:.6f}, outside [0.99, 1.001]")
        if self.mode_density != float(values.max()):
            raise DomainError("mode_density must equal the maximum value")
        idx = int(np.searchsorted(grid, self.mode_location))
        if idx >= grid.size or grid[idx] != self.mode_location \
                or values[idx] != self.mode_density:
            raise DomainError("mode_location must attain mode_density on the grid")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def _as_draws(sample) -> np.ndarray:
    """Draws of a PosteriorSample, or a raw array-like for direct use."""
    if isinstance(sample, PosteriorSample):
        return sample.draws
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size < 2:
        raise DrawsError(f"need at least 2 draws, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DrawsError("draws must all be finite")
    return arr


def silverman_bandwidth(sample) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5)."""
    draws = _as_draws(sample)
    n = draws.size
    sd = float(draws.std(ddof=1))
    if sd == 0:
        raise DrawsError("all draws are identical; bandwidth undefined")
    q75, q25 = np.percentile(draws, [75, 25], method="inverted_cdf")
    iqr = float(q75 - q25)
    spread = sd if iqr == 0 else min(sd, iqr / 1.34)
    return 0.9 * spread * n ** (-0.2)


def kde_fit(sample, bandwidth: float | None = None,
            grid_size: int = DEFAULT_GRID_SIZE) -> DensityEstimate:
    """Gaussian KDE on an equispaced grid spanning the draws plus 3 bandwidths.

    A PosteriorSample keeps its latest fit: a repeat call with the same
    bandwidth and grid_size returns that same estimate.  Raw array-likes are
    fitted on every call, since their caller may change them in between.
    """
    key = (bandwidth, grid_size)
    slot = sample._latest_fit if isinstance(sample, PosteriorSample) else [None]
    latest = slot[0]
    if latest is not None and latest[0] == key:
        return latest[1]
    draws = _as_draws(sample)
    if grid_size < MIN_GRID_SIZE:
        raise DomainError(f"grid_size must be at least {MIN_GRID_SIZE}, got {grid_size}")
    if bandwidth is None:
        h = silverman_bandwidth(draws)
    else:
        h = float(bandwidth)
        if not h > 0:
            raise DomainError(f"bandwidth must be positive, got {bandwidth}")
    grid = np.linspace(draws.min() - 3.0 * h, draws.max() + 3.0 * h, int(grid_size))
    kernel_sums = np.zeros(grid.size)
    scaled_grid = grid / h
    scaled_draws = draws / h
    # Each _CHUNK of draws is summed row by row in draw order, and the chunk
    # sums are then added into kernel_sums in turn; golden_plot.svg's
    # data-surprise-max (the repr of the KDE peak) pins that order of
    # additions.  The kernel terms are made one cache-sized block of rows at
    # a time, in a buffer whose row 0 carries the chunk's partial sum, so
    # reducing rows 0..b continues the chunk's row-by-row sum unchanged.
    # Squared distances are capped at 80 (kernel weight 4.3e-18, far below
    # the accumulated sum's own rounding noise) so np.exp stays on its fast
    # path.
    block = max(1, _BLOCK_TERMS // grid.size)
    buf = np.empty((min(block, draws.size) + 1, grid.size))
    partial = np.empty(grid.size)
    for start in range(0, draws.size, _CHUNK):
        stop = min(start + _CHUNK, draws.size)
        top = 1  # row 0 holds no partial sum yet
        for lo in range(start, stop, block):
            b = min(block, stop - lo)
            z = np.subtract(scaled_grid[None, :], scaled_draws[lo:lo + b, None],
                            out=buf[1:b + 1])
            np.multiply(z, z, out=z)
            np.minimum(z, 80.0, out=z)
            z *= -0.5
            np.exp(z, out=z)
            np.add.reduce(buf[top:b + 1], axis=0, out=partial)
            buf[0] = partial
            top = 0
        kernel_sums += partial
    values = kernel_sums / (draws.size * h * math.sqrt(2.0 * math.pi))
    peak = int(np.argmax(values))
    est = DensityEstimate(grid=grid, values=values, bandwidth=h,
                          mode_location=float(grid[peak]),
                          mode_density=float(values[peak]))
    slot[0] = (key, est)
    return est


def kde_eval(est: DensityEstimate, theta):
    """Linear interpolation on the grid; 0 outside the grid span."""
    out = np.interp(theta, est.grid, est.values, left=0.0, right=0.0)
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out
