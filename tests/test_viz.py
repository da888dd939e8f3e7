import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fbst import (PlotError, PlotSpec, PosteriorSample, ReferenceFunction,
                  fbst_pipeline, render_fbst_plot, surprise_fit)

SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(33)
    sample = PosteriorSample(draws=rng.standard_normal(5000), label="theta")
    return fbst_pipeline(sample, 1.0, 1, 0)


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


class TestValidation:
    def test_inverted_boundaries(self):
        with pytest.raises(PlotError, match="must lie below"):
            PlotSpec(left_boundary=1.0, right_boundary=-1.0)

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

