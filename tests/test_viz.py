import hashlib
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fbst import (DensityEstimate, DrawsFileSpec, PlotError, PlotSpec, PosteriorSample,
                  ReferenceFunction, fbst_pipeline, kde_fit, load_draws,
                  render_fbst_plot, surprise_fit)

SVG = "{http://www.w3.org/2000/svg}"
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(33)
    sample = PosteriorSample(draws=rng.standard_normal(5000), label="theta")
    return fbst_pipeline(kde_fit(sample), 1.0, 1, 0)


def _render(fitted, **options):
    _, surprise = fitted
    return render_fbst_plot(surprise, PlotSpec(**options))


def _root(svg_text):
    return ET.fromstring(svg_text)


def _points(element):
    pairs = element.get("points").split()
    return [tuple(float(part) for part in pair.split(",")) for pair in pairs]


def _shoelace(points):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def _fill_area(root, cls):
    return sum(_shoelace(_points(p)) for p in root.iter(f"{SVG}polygon")
               if p.get("class") == cls)


class TestDocumentStructure:
    def test_parses_as_xml_with_declared_size(self, fitted):
        root = _root(_render(fitted, width_px=640, height_px=400))
        assert root.tag == f"{SVG}svg"
        assert root.get("width") == "640"
        assert root.get("height") == "400"
        assert root.get("viewBox") == "0 0 640 400"

    def test_byte_identical_reruns(self, fitted):
        assert _render(fitted) == _render(fitted)

    def test_has_curve_fills_cutoff_and_marker(self, fitted):
        root = _root(_render(fitted))
        classes = {el.get("class") for el in root.iter()}
        assert {"surprise-curve", "fill-tangential", "fill-complement",
                "cutoff-line", "null-marker", "axis"} <= classes

    def test_label_text_is_escaped(self, fitted):
        text = _render(fitted, x_label="a<b & c>d")
        assert "a&lt;b &amp; c&gt;d" in text
        labels = [el.text for el in _root(text).iter(f"{SVG}text")]
        assert "a<b & c>d" in labels

    def test_cutoff_line_can_be_hidden(self, fitted):
        root = _root(_render(fitted, show_cutoff_line=False))
        assert all(el.get("class") != "cutoff-line" for el in root.iter())


class TestGeometry:
    def test_shaded_area_ratio_recovers_evalue(self, fitted):
        result = fitted[0]
        root = _root(_render(fitted))
        tangential = _fill_area(root, "fill-tangential")
        complement = _fill_area(root, "fill-complement")
        ratio = tangential / (tangential + complement)
        assert ratio == pytest.approx(result.e_value_against, abs=0.01)

    def test_null_marker_inverts_to_null_value(self, fitted):
        surprise = fitted[1]
        root = _root(_render(fitted))
        marker = next(el for el in root.iter(f"{SVG}circle")
                      if el.get("class") == "null-marker")
        theta_min = float(root.get("data-theta-min"))
        theta_max = float(root.get("data-theta-max"))
        plot_x = float(root.get("data-plot-x"))
        plot_w = float(root.get("data-plot-width"))
        cx = float(marker.get("cx"))
        theta = theta_min + (cx - plot_x) / plot_w * (theta_max - theta_min)
        assert theta == pytest.approx(surprise.null_value, abs=1e-3)

    def test_cutoff_height_inverts_to_s_star(self, fitted):
        surprise = fitted[1]
        root = _root(_render(fitted))
        cutoff = next(el for el in root.iter(f"{SVG}line")
                      if el.get("class") == "cutoff-line")
        y_top = float(root.get("data-surprise-max"))
        plot_y = float(root.get("data-plot-y"))
        plot_h = float(root.get("data-plot-height"))
        height = (plot_y + plot_h - float(cutoff.get("y1"))) / plot_h * y_top
        assert height == pytest.approx(surprise.s_star, rel=1e-3)

    def test_right_boundary_crops_all_geometry(self, fitted):
        root = _root(_render(fitted, right_boundary=0.0))
        assert float(root.get("data-theta-max")) == 0.0
        plot_x = float(root.get("data-plot-x"))
        plot_w = float(root.get("data-plot-width"))
        curve = next(el for el in root.iter(f"{SVG}polyline"))
        assert max(x for x, _ in _points(curve)) <= plot_x + plot_w + 0.01
        assert all(el.get("class") != "null-marker" for el in root.iter())

    def test_empty_region_renders_no_tangential_fill(self, fitted):
        posterior = fitted[1].posterior
        at_mode = surprise_fit(posterior, ReferenceFunction.flat(),
                               posterior.mode_location)
        root = _root(render_fbst_plot(at_mode, PlotSpec()))
        assert all(el.get("class") != "fill-tangential" for el in root.iter())
        assert any(el.get("class") == "fill-complement" for el in root.iter())

    def test_full_region_renders_no_complement_fill(self, fitted):
        posterior = fitted[1].posterior
        far = surprise_fit(posterior, ReferenceFunction.flat(),
                           float(posterior.grid[-1]) + 10.0)
        root = _root(render_fbst_plot(far, PlotSpec()))
        assert all(el.get("class") != "fill-complement" for el in root.iter())
        assert any(el.get("class") == "fill-tangential" for el in root.iter())

    def test_window_over_zero_density_without_cutoff_has_unit_height(self):
        grid = np.linspace(0.0, 10.0, 101)
        values = np.clip(1.0 - np.abs(grid - 7.5) / 2.5, 0.0, None) / 2.5  # mass on [5, 10]
        posterior = DensityEstimate(grid=grid, values=values, bandwidth=0.5, sample=None)
        surprise = surprise_fit(posterior, ReferenceFunction.flat(), 7.0)
        heights = [float(_root(render_fbst_plot(surprise, PlotSpec(
            right_boundary=4.0, show_cutoff_line=cutoff))).get("data-surprise-max"))
            for cutoff in (False, True)]
        assert heights == [1.05, surprise.s_star * 1.05]


class TestValidation:
    def test_inverted_boundaries(self):
        with pytest.raises(PlotError, match="must lie below"):
            PlotSpec(left_boundary=1.0, right_boundary=-1.0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_nan_boundary_is_named(self, side):
        with pytest.raises(PlotError, match=f"^{side} boundary must be a number, got nan$"):
            PlotSpec(**{f"{side}_boundary": math.nan})
        with pytest.raises(PlotError, match=f"^{side} boundary must be a number"):
            PlotSpec(**{f"{side}_boundary": math.nan,
                        f"{'right' if side == 'left' else 'left'}_boundary": 0.0})

    def test_nonpositive_dimensions(self):
        # the plot area is what the margins (80 x 68 px) leave
        for size in ({"width_px": 0}, {"width_px": 50, "height_px": 40},
                     {"width_px": 80}, {"height_px": 68}):
            with pytest.raises(PlotError, match="dimensions"):
                PlotSpec(**size)
        PlotSpec(width_px=81, height_px=69)

    def test_window_outside_grid(self, fitted):
        with pytest.raises(PlotError, match="leave nothing"):
            _render(fitted, left_boundary=50.0, right_boundary=60.0)


# Cropped windows of the golden plot, each end as a fractional grid index: a
# whole index is that node, a fraction lies between two nodes, and an index
# past either end lies that many grid steps beyond the span.  The digests are
# SHA-256 of the rendered bytes.
CROPPED_DIGESTS = {
    # (left index, right index, cutoff line): digest
    (300, None, True):
        "08cb9c39f7be0a975204bf3d87e2965856af7417f04edf4cfacf3611ae976116",
    (300, None, False):
        "86650b6fa26dde46d7891d1c9887e744edf314fb055d9d72a20f76a1510e05f0",
    (300.375, None, True):
        "0a310fb164b1320c17e522b4fcad6ea506af8c4e7d774d3ef27916d7f63dae88",
    (300.375, None, False):
        "3860b3daa34e255834c52c6b1af12da209e54271f20c769b3ae92ffeb0cf5692",
    (-5, None, True):
        "46de4f89233b75f4f630f9492aaf29cd003e01a86b9f13814006d6f8c8c333dd",
    (-5, None, False):
        "98ac6b2155b3559d29298f3f7bee7bde13c397038acf68bf655043faeb40c7e2",
    (None, 700, True):
        "eec2046055ab759c1c465c9752cf7fe24f87d6f7eaf41fbc34ac1c7fc228421e",
    (None, 700, False):
        "34dee99569a402e6b13d028eec73e9f3c4d84e50d996bb0f68ad31783e27299d",
    (None, 700.375, True):
        "b58bbf3bcd9579f507b044f838a8cae25d841626ae06a71b10733ccfb0efda57",
    (None, 700.375, False):
        "deb6872f655c9da040e05eedcfc79b97473991c72c6d1295b540fa770707d5f7",
    (None, 1030, True):
        "46de4f89233b75f4f630f9492aaf29cd003e01a86b9f13814006d6f8c8c333dd",
    (None, 1030, False):
        "98ac6b2155b3559d29298f3f7bee7bde13c397038acf68bf655043faeb40c7e2",
    (300, 700, True):
        "7b154360856064ba5c076cef5648658721cbc78d0dbc0468a0b24479451d84ad",
    (300, 700, False):
        "48663d815639ae977df19d775ccbf5e2ff88ad765f87d61ae8d1e7f7853a4ea5",
    (300.375, 700.625, True):
        "24f5ab2adcddf9ab776c77b8502ed207a009f571e630b4e44fdb4e2ba7278f99",
    (300.375, 700.625, False):
        "b9873a6db0d18e2292b87c7ad4773b2e9cc29fd1d1fc8160d6aafcb9ed2225fd",
    (500.25, 500.75, True):
        "f1ec2e62db90956b360c8b9c573f2b3a78b34c8c520d354823ea0dc89e66fd6a",
    (500.25, 500.75, False):
        "da214c526d69041389feb3da90a3c9f54aa1100835162abd6b16fbd26dddb76b",
    (500, 501, True):
        "25f6efc550f68ae6053b70a164a3d1000e4090106cc7ca134d57289fc13a4d1d",
    (500, 501, False):
        "4842a8d7d6719b503e758726c7955a70ed42a5b6178addd34fa0bc25429c32c8",
    (-5, 1030, True):
        "46de4f89233b75f4f630f9492aaf29cd003e01a86b9f13814006d6f8c8c333dd",
    (-5, 1030, False):
        "98ac6b2155b3559d29298f3f7bee7bde13c397038acf68bf655043faeb40c7e2",
    (0, 1023, True):
        "46de4f89233b75f4f630f9492aaf29cd003e01a86b9f13814006d6f8c8c333dd",
    (0, 1023, False):
        "98ac6b2155b3559d29298f3f7bee7bde13c397038acf68bf655043faeb40c7e2",
    (371.5, 683.5, True):
        "80616cb9a8d488aea8b57fb7f7f165edc62e1be84e34fa802455515fae45696f",
    (371.5, 683.5, False):
        "ace8865264f30f72acc9b84aaf84652a7cd9e86f67f0a6764575865ee29a30e7",
    (372, 683, True):
        "ef18094db8c49cd3d47d8e58ac4700aaab46bfdebb2a5ee003352de10e7fe978",
    (372, 683, False):
        "9645f04b6948abb9fafbe8cf90dd66bdc147833e488ee239116148371b458054",
    # inside one grid segment, no node in the window
    (371.2, 371.7, True):
        "2e09a7b31bed2cf183cc6809905136559fcb81cc35c0d6d2d0406ea4621453c2",
    (371.2, 371.7, False):
        "5e15cc967100a8c26e354fbdc4cd0edf932af4d9f9364da34d368b9c02236ab3",
    # the left end is a node
    (371, 371.5, True):
        "2114d646163b61cc4e221a352cb52c1044cab2855c5c8da7dc0ee6c8b9186276",
    (371, 371.5, False):
        "c991ba8760440754879114cfc6c31608b4b9c659632acd7e18485aa3c4c98fe0",
}


def _window_end(grid, index):
    if index is None:
        return None
    if not 0 <= index <= grid.size - 1:
        return float(grid[0] + index * (grid[1] - grid[0]))
    node = math.floor(index)
    if node == index:
        return float(grid[node])
    return float(grid[node] + (index - node) * (grid[node + 1] - grid[node]))


@pytest.fixture(scope="module")
def golden_fit():
    sample = load_draws(DrawsFileSpec(path=str(DATA / "draws.csv"), format="csv"))
    return sample.label, fbst_pipeline(kde_fit(sample), 0.0, 3, 2)[1]


class TestCroppedWindowBytes:
    @pytest.mark.parametrize("left,right,cutoff", list(CROPPED_DIGESTS), ids=repr)
    def test_bytes_are_pinned(self, golden_fit, left, right, cutoff):
        label, surprise = golden_fit
        spec = PlotSpec(left_boundary=_window_end(surprise.grid, left),
                        right_boundary=_window_end(surprise.grid, right),
                        show_cutoff_line=cutoff, x_label=label)
        svg = render_fbst_plot(surprise, spec).encode("utf-8")
        assert hashlib.sha256(svg).hexdigest() == CROPPED_DIGESTS[left, right, cutoff]
