"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(run with -s to see them alongside the pytest dots).
"""

import math
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fbst import (DensityEstimate, DensityFamily, PosteriorSample,
                  ReferenceFunction, TTestData, brute_force_evalue, chisq_cdf,
                  chisq_quantile, evalue_grid, evalue_mc, fbst_pipeline,
                  kde_fit, render_fbst_plot, standardized_evalue,
                  surprise_fit, tangential_region, ttest_metropolis, PlotSpec)
from fbst.oracle import SEV_FIXTURES

DATA = Path(__file__).parent / "data"
PRIOR_SCALE = math.sqrt(2.0) / 2.0
SVG = "{http://www.w3.org/2000/svg}"


def _report(label, ok, detail):
    print(f"\n{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _flat_pdf(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _normal_pdf(mu, sigma):
    def pdf(x):
        z = (np.asarray(x, dtype=float) - mu) / sigma
        return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    return pdf


def _cauchy_pdf(location, scale):
    def pdf(x):
        z = (np.asarray(x, dtype=float) - location) / scale
        return 1.0 / (math.pi * scale * (1.0 + z * z))
    return pdf


def _gamma3_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, 0.5 * x * x * np.exp(-np.minimum(x, 700.0)), 0.0)


def _shoelace(points):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def _polygon_points(element):
    return [tuple(float(part) for part in pair.split(","))
            for pair in element.get("points").split()]


@pytest.fixture(scope="module")
def battery():
    """Twelve cases: three posterior shapes x two references x two nulls."""
    shapes = (
        ("normal", 101, lambda rng: rng.standard_normal(100_000), (0.5, 1.5)),
        ("skewed", 102, lambda rng: rng.gamma(3.0, 1.0, 100_000), (1.0, 6.0)),
        ("bimodal", 103,
         lambda rng: np.where(rng.random(100_000) < 0.5,
                              rng.normal(-1.5, 0.6, 100_000),
                              rng.normal(1.5, 0.6, 100_000)), (0.0, 1.5)),
    )
    references = (
        ("flat", None),
        ("cauchy", ReferenceFunction.from_family(DensityFamily.cauchy(0.0, 2.0))),
    )
    start = time.perf_counter()
    records = []
    for shape, seed, gen, nulls in shapes:
        sample = PosteriorSample(draws=gen(np.random.default_rng(seed)),
                                 label=shape)
        for ref_name, ref in references:
            for null in nulls:
                result, _, surprise, _ = fbst_pipeline(
                    sample, null, 3, 2, reference=ref)
                records.append({
                    "case": f"{shape}/{ref_name}/null={null:g}",
                    "shape": shape, "ref": ref_name, "null": null,
                    "ev_grid": result.e_value_against,
                    "ev_mc": evalue_mc(sample, surprise),
                    "p_value": result.p_value,
                })
    return {"records": records, "seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def reenactment():
    """Twenty chains over the fixed two-group dataset, both references."""
    rng = np.random.default_rng(69)
    data = TTestData(group1=rng.normal(0.0, 1.7, 18),
                     group2=rng.normal(0.8, 3.0, 18))
    cauchy = ReferenceFunction.from_family(
        DensityFamily.cauchy(0.0, PRIOR_SCALE))
    start = time.perf_counter()
    flat_evs, cauchy_evs = [], []
    for seed in range(20):
        sample = ttest_metropolis(data, PRIOR_SCALE, 100_000, seed)
        posterior = kde_fit(sample)
        for ref, sink in ((ReferenceFunction.flat(), flat_evs),
                          (cauchy, cauchy_evs)):
            region = tangential_region(surprise_fit(posterior, ref, 0.0))
            sink.append(evalue_grid(posterior, region))
    return {"flat": flat_evs, "cauchy": cauchy_evs,
            "seconds": time.perf_counter() - start}


def test_01_standardized_evalue_regression():
    worst = 0.0
    for ev, k, h, expected in SEV_FIXTURES:
        _, sev = standardized_evalue(ev, k, h)
        worst = max(worst, abs(sev - expected) / expected)
    _report("AC1 standardized e-value regression", worst < 1e-3,
            f"worst relative error {worst:.2e} over {len(SEV_FIXTURES)} fixtures")


def test_02_analytic_oracle_both_estimators():
    start = time.perf_counter()
    worst = 0.0
    for i, mu in enumerate((0.5, 1.0, 1.5, 2.0)):
        rng = np.random.default_rng(200 + i)
        sample = PosteriorSample(draws=rng.standard_normal(1_000_000) + mu,
                                 label="theta")
        posterior = kde_fit(sample)
        surprise = surprise_fit(posterior, ReferenceFunction.flat(), 0.0)
        region = tangential_region(surprise)
        expected = math.erf(mu / math.sqrt(2.0))
        worst = max(worst,
                    abs(evalue_grid(posterior, region) - expected),
                    abs(evalue_mc(sample, surprise) - expected))
    elapsed = time.perf_counter() - start
    _report("AC2 analytic oracle, both estimators",
            worst < 0.01 and elapsed < 30.0,
            f"worst absolute error {worst:.4f}, {elapsed:.1f} s")


def test_03_estimator_cross_agreement(battery):
    records = battery["records"]
    worst = max(abs(r["ev_grid"] - r["ev_mc"]) for r in records)
    at = max(records, key=lambda r: abs(r["ev_grid"] - r["ev_mc"]))["case"]
    ok = len(records) >= 12 and worst < 0.01 and battery["seconds"] < 60.0
    _report("AC3 estimator cross-agreement", ok,
            f"{len(records)} cases, worst |grid-mc| {worst:.4f} at {at}, "
            f"{battery['seconds']:.1f} s")


def test_04_pvalue_reference_invariance(battery):
    records = battery["records"]
    pairs = 0
    equal = True
    for flat in (r for r in records if r["ref"] == "flat"):
        twin = next(r for r in records
                    if r["ref"] == "cauchy" and r["shape"] == flat["shape"]
                    and r["null"] == flat["null"])
        pairs += 1
        equal = equal and twin["p_value"] == flat["p_value"]
    _report("AC4 p-value reference-invariance", equal and pairs == 6,
            f"bit-equal across {pairs} flat/cauchy pairs")


def test_05_example_reenactment_band(reenactment):
    flat = reenactment["flat"]
    cauchy = reenactment["cauchy"]
    median = float(np.median(flat))
    band = (min(flat), max(flat))
    direction = sum(c > f for c, f in zip(cauchy, flat))
    ok = (0.75 <= median <= 0.91
          and band[0] <= 0.8305998 <= band[1]
          and direction >= 15
          and reenactment["seconds"] < 300.0)
    _report("AC5 example re-enactment", ok,
            f"median {median:.4f}, band [{band[0]:.4f}, {band[1]:.4f}], "
            f"cauchy>flat {direction}/20, {reenactment['seconds']:.0f} s")


def test_06_chisq_kernel_accuracy():
    worst_rt = max(
        abs(chisq_cdf(chisq_quantile(p, df), df) - p)
        for df in (1, 2, 3, 7, 8, 50)
        for p in (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999))
    xs = np.linspace(0.05, 30.0, 40)
    worst_cf = max(
        max(abs(chisq_cdf(x, 2) - (1.0 - math.exp(-x / 2.0))) for x in xs),
        max(abs(chisq_cdf(x, 1) - math.erf(math.sqrt(x / 2.0))) for x in xs))
    _report("AC6 chi-square kernel accuracy",
            worst_rt < 1e-10 and worst_cf < 1e-12,
            f"roundtrip {worst_rt:.1e}, closed-form {worst_cf:.1e}")


def test_07_brute_force_equivalence():
    cases = (
        ("normal/flat", _normal_pdf(0.0, 1.0), None, 1.0, -8.0, 8.0),
        ("normal/cauchy", _normal_pdf(0.0, 1.0), (0.0, 1.0), 2.0, -8.0, 8.0),
        ("shifted/flat", _normal_pdf(2.0, 0.5), None, 1.25, -2.0, 6.0),
        ("gamma/flat", _gamma3_pdf, None, 1.0, 0.0, 30.0),
        ("gamma/cauchy", _gamma3_pdf, (0.0, 2.0), 6.0, 0.0, 30.0),
    )
    worst = 0.0
    worst_case = ""
    for name, pdf, cauchy_params, null, lo, hi in cases:
        grid = np.linspace(lo, hi, 4096)
        values = pdf(grid)
        peak = int(np.argmax(values))
        posterior = DensityEstimate(grid=grid, values=values, bandwidth=1.0,
                                    mode_location=float(grid[peak]),
                                    mode_density=float(values[peak]))
        if cauchy_params is None:
            ref, ref_pdf = ReferenceFunction.flat(), _flat_pdf
        else:
            ref = ReferenceFunction.from_family(
                DensityFamily.cauchy(*cauchy_params))
            ref_pdf = _cauchy_pdf(*cauchy_params)
        region = tangential_region(surprise_fit(posterior, ref, null))
        via_grid = evalue_grid(posterior, region)
        via_brute = brute_force_evalue(pdf, ref_pdf, null, lo, hi, 2_000_000)
        err = abs(via_grid - via_brute)
        if err > worst:
            worst, worst_case = err, name
    _report("AC7 brute-force equivalence", worst < 5e-3,
            f"worst |grid-brute| {worst:.2e} at {worst_case}")


def test_08_svg_contract():
    rng = np.random.default_rng(301)
    sample = PosteriorSample(draws=rng.standard_normal(100_000), label="theta")
    result, _, surprise, region = fbst_pipeline(sample, 1.0, 1, 0)

    root = ET.fromstring(render_fbst_plot(surprise, region, PlotSpec()))
    areas = {"fill-tangential": 0.0, "fill-complement": 0.0}
    for polygon in root.iter(f"{SVG}polygon"):
        cls = polygon.get("class")
        if cls in areas:
            areas[cls] += _shoelace(_polygon_points(polygon))
    ratio = areas["fill-tangential"] / sum(areas.values())
    area_ok = abs(ratio - result.e_value_against) < 0.02

    cropped = ET.fromstring(render_fbst_plot(
        surprise, region, PlotSpec(right_boundary=0.0)))
    edge = (float(cropped.get("data-plot-x"))
            + float(cropped.get("data-plot-width")))
    xs = [x for el in cropped.iter(f"{SVG}polygon")
          for x, _ in _polygon_points(el)]
    xs += [x for el in cropped.iter(f"{SVG}polyline")
           for x, _ in _polygon_points(el)]
    crop_ok = (float(cropped.get("data-theta-max")) == 0.0
               and max(xs) <= edge + 0.01)

    _report("AC8 SVG contract", area_ok and crop_ok,
            f"area ratio {ratio:.4f} vs ev {result.e_value_against:.4f}, "
            f"cropped max x {max(xs):.2f} <= {edge + 0.01:.2f}")


def test_09_cli_golden_files(tmp_path):
    base = [sys.executable, "-m", "fbst"]
    args = ["--draws", str(DATA / "draws.csv"), "--null", "0",
            "--dim-theta", "3", "--dim-null", "2"]
    summary = tmp_path / "summary.txt"
    plot = tmp_path / "plot.svg"
    test_proc = subprocess.run(
        [*base, "test", *args, "--output", str(summary)], capture_output=True)
    plot_proc = subprocess.run(
        [*base, "plot", *args, "--out", str(plot)], capture_output=True)
    ok = (test_proc.returncode == 0 and plot_proc.returncode == 0
          and summary.read_bytes() == (DATA / "golden_summary.txt").read_bytes()
          and plot.read_bytes() == (DATA / "golden_plot.svg").read_bytes())
    _report("AC9 CLI golden files", ok,
            "test and plot outputs byte-identical to the checked-in goldens")
