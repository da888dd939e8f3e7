"""Gaussian kernel density estimation of a posterior from its draws."""

from __future__ import annotations

import math
import os
from dataclasses import InitVar, dataclass, field

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


class Frozen:
    """Base of the records: the arrays in their fields stay read-only."""

    def _freeze(self, **fields) -> None:  # set each field whole, its arrays read-only
        for value in fields.values():
            if isinstance(value, np.ndarray):
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

    The sample keeps a read-only copy of its draws; `core.fbst` keeps its
    latest density fit while it lives, so repeated tests with the same
    bandwidth and grid size fit once.  Samples compare and hash by identity.
    """

    draws: np.ndarray
    label: str

    def __post_init__(self) -> None:
        self.__setstate__({"draws": np.array(self.draws, dtype=float), "label": self.label})

    def __setstate__(self, state: dict) -> None:  # pickle's route, and a cache hit's: no copy
        arr = np.asarray(state["draws"], dtype=float).ravel()
        if arr.size < MIN_SAMPLE_SIZE:
            raise DrawsError(
                f"need at least {MIN_SAMPLE_SIZE} posterior draws, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DrawsError(f"draw {bad} is not finite")
        if not state["label"]:
            raise DrawsError("sample label must be nonempty")
        self._freeze(draws=arr, label=state["label"])

    @property
    def n(self) -> int:
        return int(self.draws.size)


@dataclass(frozen=True, eq=False)
class DensityEstimate(Frozen):
    """A density on a strictly increasing grid, with its mode and segment masses, and
    the draws of the sample it was fitted to, if any: their array, not the sample."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    sample: InitVar[PosteriorSample | None]
    draws: np.ndarray | None = field(init=False, repr=False)
    mode_location: float = field(init=False)
    mode_density: float = field(init=False)
    segment_mass: np.ndarray = field(init=False, repr=False)
    total_mass: float = field(init=False, repr=False)

    def __post_init__(self, sample: PosteriorSample | None) -> None:
        grid, values = tabulated_curve(self.grid, self.values, "density")
        if np.any(values < 0):
            raise DomainError("density values must be nonnegative")
        if not 0 < self.bandwidth < math.inf:
            raise DomainError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        with np.errstate(over="ignore"):  # values near the float maximum: the check names it
            mass = 0.5 * (values[1:] + values[:-1]) * np.diff(grid)  # trapezoid rule
            total = float(mass.sum())
        if not 0.99 <= total <= 1.001:
            raise DomainError(
                f"density integrates to {total:.6g}, outside [0.99, 1.001]")
        peak = int(np.argmax(values))
        if not 2.0 ** -500 <= values[peak] <= 2.0 ** 500:  # slopes, ~ peak^2, stay floats
            raise DomainError(f"density peak {values[peak]:g} lies outside "
                              "[2^-500, 2^500]: rescale the draws and the null")
        self._freeze(grid=grid, values=values, segment_mass=mass, total_mass=total,
                     mode_location=float(grid[peak]), mode_density=float(values[peak]),
                     draws=None if sample is None else sample.draws)


def silverman_bandwidth(sample: PosteriorSample) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5)."""
    return _silverman_sorted(sample.draws)[0]


def _silverman_sorted(draws: np.ndarray) -> tuple[float, np.ndarray]:
    """Silverman's bandwidth and the sorted copy of the draws its quartiles come
    from; sd is taken first, so that copy is the one n-array beside the draws."""
    n = draws.size
    e = math.frexp(max(-float(draws.min()), float(draws.max())))[1]
    e = e if abs(e) > 256 else 0  # where squares leave the floats, scale by exact 2^-e
    sd = float((np.ldexp(draws, -e) if e else draws).std(ddof=1))
    if sd == 0:
        raise DrawsError("all draws are identical; bandwidth undefined")
    ordered = np.sort(draws)
    # numpy's inverted_cdf quantile q is the ceil(n q)-th smallest draw
    q75, q25 = np.ldexp(ordered[[math.ceil(0.75 * n) - 1, math.ceil(0.25 * n) - 1]], -e)
    iqr = float(q75 - q25)
    spread = sd if iqr == 0 else min(sd, iqr / 1.34)
    return math.ldexp(0.9 * spread * n ** (-0.2), e), ordered


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
    """Gaussian KDE on an equispaced grid spanning the draws plus 3 bandwidths."""
    check_fit(bandwidth, grid_size)
    draws = sample.draws
    h, scaled_draws = (_silverman_sorted(draws) if bandwidth is None
                       else (float(bandwidth), np.sort(draws)))
    lo, hi = float(scaled_draws[0]) - 3.0 * h, float(scaled_draws[-1]) + 3.0 * h
    if not math.isfinite(hi - lo):
        raise DomainError(f"bandwidth {h:g} makes the grid span overflow")
    magnitude = max(-lo, hi)  # nodes closer than 64 ulps of it would round unevenly
    if not math.isfinite(magnitude / h):  # else the grid and draws overflow scaled by h
        raise DomainError(f"bandwidth {h:g} is too small for draws of magnitude {magnitude:g}")
    if not (hi - lo) / (grid_size - 1) > 64.0 * np.spacing(magnitude):
        raise DomainError(f"the grid cannot resolve draws of magnitude {magnitude:g} spread "
                          f"over {np.ptp(draws):g}: subtract a constant from draws and null")
    norm = draws.size * h * math.sqrt(2.0 * math.pi)
    if not math.isfinite(norm):
        raise DomainError(f"the kernel normalisation n * h * sqrt(2 pi) overflows at "
                          f"bandwidth {h:g}: rescale the draws and the null")
    grid = np.linspace(lo, hi, int(grid_size))
    scaled_grid = grid / h
    scaled_draws /= h  # dividing by h > 0 keeps the order, so it stays sorted
    # Past _RADIUS scaled units every term exp(-0.5 * min(z^2, 80)) is capped
    # at exp(-40), so a node sums the sorted draws in its window and adds the
    # capped rest as one product: the same function as summing all n terms.
    # Blocks of nodes one bandwidth wide sum their terms pairwise by piece;
    # the blocks are disjoint, so cores can share them with the same sums.
    per_node = h / (grid[1] - grid[0])
    nodes = int(min(max(1.0, per_node), _BLOCK_TERMS))
    kernel_sums = np.empty(grid.size)
    blocks = (kernel_sums, scaled_grid, scaled_draws, nodes)
    if draws.size * (2.0 * _RADIUS * per_node + nodes) <= _SHARED_TERMS:
        _fill_blocks(*blocks, 0, 1)
    else:
        from concurrent.futures import ThreadPoolExecutor  # 5-8 ms: for shared fits only
        affinity = getattr(os, "sched_getaffinity", None)  # cores this process may use
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
        with ThreadPoolExecutor(max(1, workers - 1)) as pool:
            shares = [pool.submit(_fill_blocks, *blocks, k, workers) for k in range(1, workers)]
            _fill_blocks(*blocks, 0, workers)
        for share in shares:  # a worker's error is raised once every thread is done
            share.result()
    with np.errstate(over="ignore"):  # a density past the floats fails its mass check
        return DensityEstimate(grid, kernel_sums / norm, bandwidth=h, sample=sample)


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
