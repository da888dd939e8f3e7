"""Standalone SVG rendering of a surprise function and its tangential set.

Output is deterministic: identical inputs produce byte-identical documents.
The shaded polygons are the region's member segments, the ones the grid
e-value estimator weighs (`TangentialRegion.member_segments`), so the
shaded-area ratio reconstructs the e-value from the emitted coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SurpriseFunction, TangentialRegion
from .errors import PlotError

_MARGIN_LEFT = 60.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 20.0
_MARGIN_BOTTOM = 48.0
_FONT = "font-family=\"sans-serif\" font-size=\"12\""


@dataclass(frozen=True)
class PlotSpec:
    """Display options for the surprise-function plot."""

    width_px: int = 800
    height_px: int = 500
    left_boundary: float | None = None
    right_boundary: float | None = None
    color_tangential: str = "#4878cf"
    color_complement: str = "#d65f5f"
    show_cutoff_line: bool = True
    x_label: str = "parameter"

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise PlotError("plot dimensions must be positive")
        if (self.left_boundary is not None and self.right_boundary is not None
                and not self.left_boundary < self.right_boundary):
            raise PlotError(
                f"left boundary {self.left_boundary:g} must lie below "
                f"right boundary {self.right_boundary:g}")


def _px(value: float) -> str:
    return f"{value:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    raw = (hi - lo) / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for factor in (1.0, 2.0, 5.0):
        if raw <= factor * magnitude:
            step = factor * magnitude
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [round(k * step, 12) for k in range(first, last + 1)]


def render_fbst_plot(s: SurpriseFunction, region: TangentialRegion,
                     spec: PlotSpec) -> str:
    """Render the surprise curve, shaded regions, null marker and cutoff."""
    grid = s.grid
    values = s.values
    if region.member_mask.shape != grid.shape:
        raise PlotError("tangential region does not match the surprise grid")

    x_lo = float(grid[0]) if spec.left_boundary is None \
        else max(float(spec.left_boundary), float(grid[0]))
    x_hi = float(grid[-1]) if spec.right_boundary is None \
        else min(float(spec.right_boundary), float(grid[-1]))
    if not x_lo < x_hi:
        raise PlotError(
            f"boundaries leave nothing of the grid span "
            f"[{grid[0]:g}, {grid[-1]:g}] to display")

    inside = (grid >= x_lo) & (grid <= x_hi)
    xs = grid[inside]
    ys = values[inside]
    if xs.size == 0 or xs[0] > x_lo:
        xs = np.concatenate(([x_lo], xs))
        ys = np.concatenate(([np.interp(x_lo, grid, values)], ys))
    if xs[-1] < x_hi:
        xs = np.concatenate((xs, [x_hi]))
        ys = np.concatenate((ys, [np.interp(x_hi, grid, values)]))

    # classify each display segment by the original segment containing it
    mids = 0.5 * (xs[1:] + xs[:-1])
    owners = np.clip(np.searchsorted(grid, mids) - 1, 0, grid.size - 2)
    seg_member = region.member_segments[owners]

    y_top = float(ys.max())
    if spec.show_cutoff_line:
        y_top = max(y_top, s.s_star)
    if y_top <= 0:
        y_top = 1.0
    y_top *= 1.05

    plot_w = spec.width_px - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = spec.height_px - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_x(theta: float) -> float:
        return _MARGIN_LEFT + (theta - x_lo) / (x_hi - x_lo) * plot_w

    def to_y(height: float) -> float:
        return _MARGIN_TOP + plot_h - height / y_top * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width_px}" height="{spec.height_px}" '
        f'viewBox="0 0 {spec.width_px} {spec.height_px}" '
        f'data-theta-min="{x_lo!r}" data-theta-max="{x_hi!r}" '
        f'data-surprise-max="{y_top!r}" '
        f'data-plot-x="{_MARGIN_LEFT!r}" data-plot-y="{_MARGIN_TOP!r}" '
        f'data-plot-width="{plot_w!r}" data-plot-height="{plot_h!r}">',
        f'<rect class="background" x="0" y="0" width="{spec.width_px}" '
        f'height="{spec.height_px}" fill="#ffffff"/>',
    ]

    base_y = _px(to_y(0.0))
    start = 0
    for stop in range(1, seg_member.size + 1):
        if stop < seg_member.size and seg_member[stop] == seg_member[start]:
            continue
        run_x = xs[start:stop + 1]
        run_y = ys[start:stop + 1]
        points = " ".join(f"{_px(to_x(x))},{_px(to_y(y))}"
                          for x, y in zip(run_x, run_y))
        points += f" {_px(to_x(run_x[-1]))},{base_y} {_px(to_x(run_x[0]))},{base_y}"
        if seg_member[start]:
            cls, color = "fill-tangential", spec.color_tangential
        else:
            cls, color = "fill-complement", spec.color_complement
        parts.append(f'<polygon class="{cls}" points="{points}" '
                     f'fill="{color}" fill-opacity="0.6" stroke="none"/>')
        start = stop

    curve = " ".join(f"{_px(to_x(x))},{_px(to_y(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polyline class="surprise-curve" points="{curve}" '
                 f'fill="none" stroke="#222222" stroke-width="1.5"/>')

    if spec.show_cutoff_line:
        cut_y = _px(to_y(s.s_star))
        parts.append(
            f'<line class="cutoff-line" x1="{_px(_MARGIN_LEFT)}" y1="{cut_y}" '
            f'x2="{_px(_MARGIN_LEFT + plot_w)}" y2="{cut_y}" '
            f'stroke="{spec.color_tangential}" stroke-width="1" '
            f'stroke-dasharray="6 4"/>')

    if x_lo <= s.null_value <= x_hi:
        parts.append(
            f'<circle class="null-marker" cx="{_px(to_x(s.null_value))}" '
            f'cy="{_px(to_y(s.s_star))}" r="4" '
            f'fill="{spec.color_tangential}" stroke="#222222"/>')

    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<g class="axis" stroke="#222222" stroke-width="1">'
        f'<line x1="{_px(_MARGIN_LEFT)}" y1="{_px(axis_y)}" '
        f'x2="{_px(_MARGIN_LEFT + plot_w)}" y2="{_px(axis_y)}"/>'
        f'<line x1="{_px(_MARGIN_LEFT)}" y1="{_px(_MARGIN_TOP)}" '
        f'x2="{_px(_MARGIN_LEFT)}" y2="{_px(axis_y)}"/></g>')

    for tick in _nice_ticks(x_lo, x_hi):
        tx = _px(to_x(tick))
        parts.append(
            f'<line class="tick" x1="{tx}" y1="{_px(axis_y)}" x2="{tx}" '
            f'y2="{_px(axis_y + 5)}" stroke="#222222" stroke-width="1"/>'
            f'<text class="tick-label" x="{tx}" y="{_px(axis_y + 18)}" '
            f'{_FONT} text-anchor="middle">{tick:g}</text>')
    for tick in _nice_ticks(0.0, y_top):
        ty = _px(to_y(tick))
        parts.append(
            f'<line class="tick" x1="{_px(_MARGIN_LEFT - 5)}" y1="{ty}" '
            f'x2="{_px(_MARGIN_LEFT)}" y2="{ty}" stroke="#222222" '
            f'stroke-width="1"/>'
            f'<text class="tick-label" x="{_px(_MARGIN_LEFT - 8)}" y="{ty}" '
            f'{_FONT} text-anchor="end" dominant-baseline="middle">{tick:g}</text>')

    x_title = _MARGIN_LEFT + plot_w / 2.0
    parts.append(
        f'<text class="axis-label" x="{_px(x_title)}" '
        f'y="{_px(spec.height_px - 8)}" {_FONT} '
        f'text-anchor="middle">{_escape(spec.x_label)}</text>')
    y_mid = _MARGIN_TOP + plot_h / 2.0
    parts.append(
        f'<text class="axis-label" x="15" y="{_px(y_mid)}" {_FONT} '
        f'text-anchor="middle" transform="rotate(-90 15 {_px(y_mid)})">'
        f'surprise / density</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
