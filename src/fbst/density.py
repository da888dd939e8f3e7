"""Gaussian kernel density estimation of a posterior from its draws."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, DrawsError

MIN_SAMPLE_SIZE = 30
MIN_GRID_SIZE = 128
DEFAULT_GRID_SIZE = 1024
# A fit and its tests hold about ten arrays of grid_size floats at their peak
# (the grid, its scaled copy, the sums, the density, its segment masses, the
# kept surprise tables, a test's own): at 2^20 nodes that peak is 80 MiB.
MAX_GRID_SIZE = 1 << 20

_BLOCK_TERMS = 1 << 16  # kernel terms per block: 0.5 MB of doubles
_RADIUS = 9.0  # scaled distance past which every term is capped (9^2 > 80)
_SHARED_TERMS = 4_000_000  # terms past which cores share the blocks: ~10 ms on one


def trapezoid_weights(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Trapezoid-rule mass of each grid segment of a tabulated curve."""
    return 0.5 * (values[1:] + values[:-1]) * np.diff(grid)


class Frozen:
    """Base of the records: arrays in their fields, tuples included, stay read-only."""

    def _freeze(self, **fields) -> None:  # set each field whole, its arrays read-only
        stack = list(fields.values())
        while stack:
            value = stack.pop()
            if isinstance(value, tuple):
                stack.extend(value)
            elif isinstance(value, np.ndarray):
                value.setflags(write=False)
        vars(self).update(fields)

    def __setstate__(self, state: dict) -> None:  # as loaded by pickle, copy or deepcopy
        self._freeze(**state)


def tabulated_curve(grid, values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Checked float copies of a tabulated curve's grid and values."""
    grid = np.array(grid, dtype=float)
    values = np.array(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
        raise DomainError(f"{what} needs matching grid and values of at least 2 points")
    if not np.all(np.diff(grid) > 0):
        raise DomainError(f"{what} grid must be strictly increasing")
    return grid, values


@dataclass(frozen=True, eq=False)
class PosteriorSample(Frozen):
    """A labeled vector of scalar posterior draws for one parameter.

    The sample keeps a read-only copy of its draws and its latest density
    fit, so repeated tests on it with the same bandwidth and grid size fit
    once (see `kde_fit`).  Samples compare and hash by identity.
    """

    draws: np.ndarray
    label: str
    # ((bandwidth, grid_size), DensityEstimate) of the latest fit, or None.
    # One tuple, replaced whole, so a reader never pairs a key with another
    # fit; the read-only copy of the draws keeps it from going stale.
    _latest_fit: tuple | None = field(default=None, init=False, repr=False)

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
        self._freeze(draws=arr)

    @property
    def n(self) -> int:
        return int(self.draws.size)


@dataclass(frozen=True, eq=False)
class DensityEstimate(Frozen):
    """A density on a strictly increasing grid, with its mode and segment masses."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    mode_location: float = field(init=False)
    mode_density: float = field(init=False)
    segment_mass: np.ndarray = field(init=False, repr=False)
    total_mass: float = field(init=False, repr=False)
    # ((key, p / r), ...), newest first, kept and keyed by `core.surprise_fit`:
    # one tuple, replaced whole, as in PosteriorSample._latest_fit.
    _surprise_tables: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self) -> None:
        grid, values = tabulated_curve(self.grid, self.values, "density")
        if np.any(values < 0):
            raise DomainError("density values must be nonnegative")
        if self.bandwidth <= 0:
            raise DomainError(f"bandwidth must be positive, got {self.bandwidth}")
        mass = trapezoid_weights(grid, values)
        total = float(mass.sum())
        if not 0.99 <= total <= 1.001:
            raise DomainError(
                f"density integrates to {total:.6f}, outside [0.99, 1.001]")
        peak = int(np.argmax(values))
        self._freeze(grid=grid, values=values, segment_mass=mass, total_mass=total,
                     mode_location=float(grid[peak]), mode_density=float(values[peak]))


def silverman_bandwidth(sample: PosteriorSample) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5)."""
    draws = sample.draws
    n = draws.size
    sd = float(draws.std(ddof=1))
    if sd == 0:
        raise DrawsError("all draws are identical; bandwidth undefined")
    q75, q25 = np.percentile(draws, [75, 25], method="inverted_cdf")
    iqr = float(q75 - q25)
    spread = sd if iqr == 0 else min(sd, iqr / 1.34)
    return 0.9 * spread * n ** (-0.2)


def check_fit(bandwidth: float | None, grid_size: int) -> None:
    """The checks of `kde_fit`'s arguments that need no draws."""
    if not isinstance(grid_size, (int, np.integer)):
        raise DomainError(f"grid_size must be an integer, got {grid_size!r}")
    if not MIN_GRID_SIZE <= grid_size <= MAX_GRID_SIZE:
        raise DomainError(f"grid_size must be between {MIN_GRID_SIZE} and "
                          f"{MAX_GRID_SIZE}, got {grid_size}")
    if bandwidth is not None and not 0 < float(bandwidth) < math.inf:
        raise DomainError(f"bandwidth must be positive and finite, got {bandwidth}")


def kde_fit(sample: PosteriorSample, bandwidth: float | None = None,
            grid_size: int = DEFAULT_GRID_SIZE) -> DensityEstimate:
    """Gaussian KDE on an equispaced grid spanning the draws plus 3 bandwidths.

    The sample keeps its latest fit: a repeat call with the same bandwidth
    and grid_size returns that same estimate.
    """
    check_fit(bandwidth, grid_size)
    key = (bandwidth, grid_size)
    latest = sample._latest_fit
    if latest is not None and latest[0] == key:
        return latest[1]
    draws = sample.draws
    h = silverman_bandwidth(sample) if bandwidth is None else float(bandwidth)
    lo, hi = float(draws.min()) - 3.0 * h, float(draws.max()) + 3.0 * h
    if not math.isfinite(hi - lo):
        raise DomainError(f"bandwidth {h:g} makes the grid span overflow")
    grid = np.linspace(lo, hi, int(grid_size))
    scaled_grid = grid / h
    scaled_draws = draws / h
    scaled_draws.sort()
    # Past _RADIUS scaled units every term exp(-0.5 * min(z^2, 80)) is capped
    # at exp(-40), so a node sums the sorted draws in its window and adds the
    # capped rest as one product: the same function as summing all n terms.
    # Blocks of nodes one bandwidth wide sum their terms pairwise by piece;
    # the blocks are disjoint, so cores can share them with the same sums.
    per_node = h / (grid[1] - grid[0])
    nodes = int(min(max(1.0, per_node), _BLOCK_TERMS))
    kernel_sums = np.empty(grid.size)
    workers = 1
    if draws.size * (2.0 * _RADIUS * per_node + nodes) > _SHARED_TERMS:
        affinity = getattr(os, "sched_getaffinity", None)  # cores this process may use
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    errors = []
    def fill(first: int) -> None:
        try:
            _fill_blocks(kernel_sums, scaled_grid, scaled_draws, nodes, first, workers)
        except BaseException as err:  # raised below, once every thread is done
            errors.append(err)
    threads = [threading.Thread(target=fill, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    fill(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    values = kernel_sums / (draws.size * h * math.sqrt(2.0 * math.pi))
    est = DensityEstimate(grid=grid, values=values, bandwidth=h)
    sample._freeze(_latest_fit=(key, est))
    return est


def _fill_blocks(kernel_sums, scaled_grid, scaled_draws, nodes, first, stride) -> None:
    """Fill the kernel sums of every stride-th block of nodes from block first."""
    width = _BLOCK_TERMS // nodes
    buf = np.empty(_BLOCK_TERMS)
    for j in range(first * nodes, scaled_grid.size, stride * nodes):
        block = scaled_grid[j:j + nodes]
        lo, hi = np.searchsorted(scaled_draws, (block[0] - _RADIUS, block[-1] + _RADIUS))
        kernel_sums[j:j + nodes] = (scaled_draws.size - (hi - lo)) * np.exp(-40.0)
        for start in range(lo, hi, width):
            x = scaled_draws[start:min(start + width, hi)]
            z = buf[:block.size * x.size].reshape(block.size, x.size)
            np.subtract(block[:, None], x, out=z)
            np.multiply(z, z, out=z)
            np.minimum(z, 80.0, out=z)
            z *= -0.5
            np.exp(z, out=z)
            kernel_sums[j:j + nodes] += z.sum(axis=1)


def kde_eval(est: DensityEstimate, theta):
    """Linear interpolation on the grid; 0 outside the grid span."""
    out = np.interp(theta, est.grid, est.values, left=0.0, right=0.0)
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out
