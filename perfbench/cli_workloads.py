"""The command-line workloads: `fbst test` and `fbst plot` on draws files.

Each operation is one fbst invocation.  Untraced runs start it as a child
process, one at a time in a closed loop; the traced run calls
`fbst.cli.main(argv)` in this process instead.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import math
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import tracing
from common import (SETUP_REPEATS, SOURCE_DATE_EPOCH, Child, Launcher, Outcome, ar1_chain,
                    import_program, import_seconds, timed_setups, work_dir)

LARGE_N = 1_000_000
SMALL_N = 10_000
PHI = 0.6  # lag-1 autocorrelation of the cli_large chain
REF_NORMAL = ("normal", 0.0, 2.5)
REF_CAUCHY = ("cauchy", 0.0, math.sqrt(0.5))
PLOT_AREA_TOL = 0.02
JSON_SEV_TOL = 1e-9


@dataclass
class Op:
    name: str
    argv: list
    kind: str                 # "text", "json" or "plot"
    null: float
    ref: tuple
    k: int
    h: int
    out: Path | None = None   # output file; None means standard output
    group: str = ""           # ops of one group must give identical bytes


@dataclass
class Inputs:
    ops: list
    post: reference.Normal
    n: int
    n_eff: float
    h: float
    spacing: float
    seeds: dict


def _ref_arg(ref) -> str:
    kind = ref[0]
    if kind == "flat":
        return "flat"
    if kind == "normal":
        return f"normal:mean={ref[1]!r},sd={ref[2]!r}"
    if kind == "cauchy":
        return f"cauchy:location={ref[1]!r},scale={ref[2]!r}"
    return f"table:{ref[3]}"


def _op(name, command, draws, kind, null, ref, k, h, *extra, out=None, group="") -> Op:
    argv = [command, "--draws", str(draws), f"--null={null!r}", "--dim-theta", str(k),
            "--dim-null", str(h), "--ref", _ref_arg(ref), *extra]
    return Op(name, argv, kind, null, ref, k, h, out, group)


def _nulls(rng, post, count):
    """Nulls 0.8 to 2.2 sd from the mean, where the checks are sharp."""
    z = rng.uniform(0.8, 2.2, count) * rng.choice([-1.0, 1.0], count)
    return [float(post.mu + post.s * value) for value in z]


def _warm_ops(work: Path) -> list:
    path = work / "warm.txt"
    path.write_text("\n".join(repr(x) for x in np.linspace(-2.0, 2.0, 400).tolist()) + "\n")
    return [_op("warm-test", "test", path, "text", 0.5, ("flat",), 1, 0),
            _op("warm-plot", "plot", path, "plot", 0.5, ("flat",), 1, 0,
                "--out", str(work / "warm.svg"))]


def _warm_up(work: Path, launcher: Launcher) -> None:
    """Small invocations that fill the byte-code and page caches."""
    for op in _warm_ops(work):
        child = launcher.run([sys.executable, "-m", "fbst", *op.argv], work)
        if child.code != 0:
            raise SystemExit(f"perfbench: warm-up invocation failed: {child.stderr.decode()}")


def _inputs(draws, post, n_eff, ops, seeds) -> Inputs:
    h = reference.silverman(draws)
    return Inputs(ops=ops, post=post, n=draws.size, n_eff=n_eff, h=h,
                  spacing=reference.grid_spacing(draws, h), seeds=seeds)


def setup_large(seed: int, work: Path, launcher: Launcher) -> Inputs:
    """1e6 draws of an AR(1) chain in a four-column MCMC-style CSV."""
    rng = np.random.default_rng([seed, 1])
    post = reference.Normal(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
    z = ar1_chain(rng, LARGE_N, PHI)
    delta = post.mu + post.s * z
    columns = (-0.5 * z * z - 2.0 + 0.3 * rng.standard_normal(LARGE_N),
               rng.uniform(0.55, 1.0, LARGE_N), delta, rng.lognormal(0.0, 0.15, LARGE_N))
    path = work / "draws.csv"
    # six significant digits, as Stan writes its CSV output
    rows = "\n".join("%.6g,%.6g,%.6g,%.6g" % row
                     for row in zip(*(column.tolist() for column in columns)))
    path.write_text("lp__,accept_stat__,delta,sigma\n" + rows + "\n")
    nulls = _nulls(rng, post, 2)
    json_out = work / "result.json"
    # grid with JSON to a file alternates with MC with text on stdout
    ops = [_op("grid-json", "test", path, "json", nulls[0], ("flat",), 3, 2,
               "--column", "delta", "--output-format", "json", "--output", str(json_out),
               out=json_out),
           _op("mc-text", "test", path, "text", nulls[1], REF_NORMAL, 8, 7,
               "--column", "delta", "--estimator", "mc")]
    _warm_up(work, launcher)
    return _inputs(delta, post, reference.ar1_n_eff(LARGE_N, PHI), ops,
                   {"draws": [seed, 1]})


def setup_small(seed: int, work: Path, launcher: Launcher) -> Inputs:
    """1e4 iid normal draws written as plain, CSV and JSON, plus a reference table."""
    rng = np.random.default_rng([seed, 2])
    post = reference.Normal(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5))
    draws = post.mu + post.s * rng.standard_normal(SMALL_N)
    values = draws.tolist()
    files = {"plain": work / "theta.txt", "csv": work / "draws.csv",
             "json": work / "draws.json"}
    files["plain"].write_text("\n".join(map(repr, values)) + "\n")
    chains = rng.integers(1, 5, SMALL_N).tolist()
    files["csv"].write_text("chain__,theta\n" + "".join(
        f"{c},{x!r}\n" for c, x in zip(chains, values)))
    files["json"].write_text(json.dumps({"lp__": (-0.5 * ((draws - post.mu) / post.s) ** 2)
                                         .tolist(), "theta": values}))
    # a tabulated N(0, 2.5) reference, far wider than the KDE grid
    grid = np.linspace(post.mu - 15.0 * post.s - 5.0, post.mu + 15.0 * post.s + 5.0, 2001)
    dens = reference.normal_pdf(grid, REF_NORMAL[1], REF_NORMAL[2])
    table = work / "ref_table.csv"
    table.write_text("theta,density\n" + "".join(
        f"{g!r},{d!r}\n" for g, d in zip(grid.tolist(), dens.tolist())))
    table_ref = ("table", grid, dens, table)
    null_a, null_b = _nulls(rng, post, 2)
    ops = []
    for fmt, path in files.items():
        column = () if fmt == "plain" else ("--column", "theta")
        json_out, svg_out = work / f"result-{fmt}.json", work / f"plot-{fmt}.svg"
        ops += [
            _op(f"text-{fmt}", "test", path, "text", null_a, ("flat",), 1, 0, *column,
                group="text"),
            _op(f"json-{fmt}", "test", path, "json", null_b, REF_CAUCHY, 3, 2, *column,
                "--output-format", "json", "--output", str(json_out), out=json_out,
                group="json"),
            _op(f"table-{fmt}", "test", path, "text", null_a, table_ref, 8, 7, *column,
                "--estimator", "mc", group="table"),
            _op(f"plot-{fmt}", "plot", path, "plot", null_a, ("flat",), 1, 0, *column,
                "--out", str(svg_out), out=svg_out, group="plot"),
        ]
    _warm_up(work, launcher)
    return _inputs(draws, post, float(SMALL_N), ops, {"draws": [seed, 2]})


SETUPS = {"cli_large": setup_large, "cli_small": setup_small}


# -- checks --------------------------------------------------------------------

def _summary_fields(text: str) -> dict:
    found = {}
    for line in text.splitlines():
        label, _, value = line.rpartition(": ")
        if label.startswith("Bayesian e-value against"):
            found["ev"] = value
        elif label.startswith("p-value associated"):
            found["p"] = value
        elif label.startswith("Standardized e-value"):
            found["sev"] = value
    return found


def _shaded_ratio(svg: bytes) -> float:
    """Tangential share of the shaded area, by the shoelace formula."""
    areas = {"fill-tangential": 0.0, "fill-complement": 0.0}
    for element in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}polygon"):
        pts = np.array([[float(v) for v in pair.split(",")]
                        for pair in element.get("points").split()])
        x, y = pts[:, 0], pts[:, 1]
        areas[element.get("class")] += 0.5 * abs(float(np.dot(x, np.roll(y, -1))
                                                       - np.dot(y, np.roll(x, -1))))
    return areas["fill-tangential"] / (areas["fill-tangential"] + areas["fill-complement"])


class Checker:
    """Checks each output against the reference module; remembers what it saw."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.integrator = reference.Integrator()
        self.seen = {}   # op name -> output bytes
        self.ev = {}     # op name -> e-value read from the output

    def _within(self, what, value, band, slack=0.0):
        lo, hi = band
        if not lo - slack <= value <= hi + slack:
            return [f"{what} = {value!r} outside [{lo - slack:.7g}, {hi + slack:.7g}]"]
        return []

    def check(self, op: Op, output: bytes) -> list:
        self.seen[op.name] = output
        if op.kind == "plot":
            try:
                self.ev[op.name] = _shaded_ratio(output)
            except (ET.ParseError, ValueError, KeyError, ZeroDivisionError) as err:
                return [f"{op.name}: SVG does not parse: {err}"]
            return []
        inp = self.inputs
        if op.kind == "json":
            try:
                doc = json.loads(output)
                ev, p, sev = doc["e_value_against"], doc["p_value"], doc["sev"]
            except (ValueError, KeyError) as err:
                return [f"{op.name}: result JSON does not parse: {err}"]
            problems = []
            if doc.get("sample_size") != inp.n:
                problems.append(f"{op.name}: sample_size {doc.get('sample_size')} != {inp.n}")
            if ev + doc.get("e_value_in_favor", math.nan) != 1.0:
                problems.append(f"{op.name}: e-values do not sum to 1")
            ev_slack = p_slack = 0.0
            sev_band = (reference.sev_from_ev(ev, op.k, op.h),) * 2
            sev_slack = JSON_SEV_TOL
        else:
            fields = _summary_fields(output.decode("utf-8", "replace"))
            if set(fields) != {"ev", "p", "sev"}:
                return [f"{op.name}: summary lacks e-value, p-value or sev lines"]
            problems = []
            ev, p, sev = (float(fields[key]) for key in ("ev", "p", "sev"))
            ev_slack, p_slack = reference.half_unit(fields["ev"]), reference.half_unit(fields["p"])
            sev_band = (reference.sev_from_ev(min(1.0, ev + ev_slack), op.k, op.h),
                        reference.sev_from_ev(max(0.0, ev - ev_slack), op.k, op.h))
            sev_slack = reference.half_unit(fields["sev"])
        self.ev[op.name] = ev
        band = reference.ev_band(self.integrator, inp.post, op.ref, op.null, inp.n_eff,
                                 inp.h, inp.spacing)
        problems += self._within(f"{op.name}: e-value", ev, band, ev_slack)
        p_band = reference.pvalue_band(inp.post, op.null, op.k - op.h, inp.n_eff, inp.h,
                                       inp.spacing)
        problems += self._within(f"{op.name}: p-value", p, p_band, p_slack)
        problems += self._within(f"{op.name}: sev", sev, sev_band, sev_slack)
        return problems

    def cross_checks(self) -> list:
        """Formats agree byte for byte; plots agree with the test e-value."""
        problems = []
        groups = {}
        for op in self.inputs.ops:
            if op.group and op.name in self.seen:
                groups.setdefault(op.group, set()).add(self.seen[op.name])
        for group, outputs in groups.items():
            if len(outputs) > 1:
                problems.append(f"{group}: the draw formats give different outputs")
        for op in self.inputs.ops:
            partner = op.name.replace("plot-", "text-")
            if op.kind == "plot" and op.name in self.ev and partner in self.ev:
                gap = abs(self.ev[op.name] - self.ev[partner])
                if gap > PLOT_AREA_TOL:
                    problems.append(f"{op.name}: shaded-area ratio {self.ev[op.name]:.4f} is "
                                    f"{gap:.4f} from the test e-value")
        return problems


# -- running -------------------------------------------------------------------

def _output(op: Op, child: Child) -> bytes:
    return op.out.read_bytes() if op.out is not None else child.stdout


def _record(outcome: Outcome, outputs: dict, op: Op, child: Child) -> None:
    outcome.latencies.append(child.seconds)
    if child.code != 0:
        outcome.fail(op.name, f"exit {child.code}", child.stderr.decode("utf-8", "replace"))
        return
    try:
        outputs.setdefault(op.name, set()).add(_output(op, child))
    except OSError as err:
        outcome.problems.append(f"{op.name}: output missing: {err}")


def _run_in_process(main, op: Op, tracer=None) -> Child:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tracer.call("cli.main", main, op.argv) if tracer else main(op.argv)
        except SystemExit as exit_:
            code = exit_.code
    seconds = time.perf_counter() - start
    return Child(seconds, int(code or 0), out.getvalue().encode(), err.getvalue().encode(), 0.0)


def _clear_outputs(op: Op) -> None:
    if op.out is not None:
        op.out.unlink(missing_ok=True)


def run(name: str, root: Path, seed: int, seconds: int, traced: bool,
        launcher: Launcher) -> Outcome:
    work = work_dir(root, name)

    def make():
        return SETUPS[name](seed, work, launcher)

    inputs, setup_s = timed_setups(make)
    outcome = Outcome(setup_s=setup_s)
    outputs = {}  # op name -> distinct outputs, checked after the timed loop
    if not traced:
        start = time.perf_counter()
        while True:
            for op in inputs.ops:
                _clear_outputs(op)
                child = launcher.run([sys.executable, "-m", "fbst", *op.argv], work)
                outcome.peak_rss_mb = max(outcome.peak_rss_mb, child.peak_rss_mb)
                _record(outcome, outputs, op, child)
            if time.perf_counter() - start >= seconds:
                break
        outcome.elapsed_s = time.perf_counter() - start
        outcome.setup_s += timed_setups(make, SETUP_REPEATS - 1)[1]
    else:
        os.environ.update(SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
        for key in [key for key in os.environ if key.startswith("FBST_")]:
            del os.environ[key]
        import_program(root)
        main = importlib.import_module("fbst.cli").main
        for op in _warm_ops(work):  # first calls load modules and fill caches
            _run_in_process(main, op)
        tracer = tracing.Tracer()
        round_s = []
        for patches in ((), tracing.CLI_PATCHES):
            start = time.perf_counter()
            with tracer.patched(patches):
                for op in inputs.ops:
                    _clear_outputs(op)
                    child = _run_in_process(main, op, tracer if patches else None)
                    _record(outcome, outputs, op, child)
            round_s.append(time.perf_counter() - start)
        outcome.layers = tracing.layer_metrics(tracer.totals(), import_seconds(launcher, work),
                                               round_s[1] - round_s[0])
        outcome.details["spans"] = tracer.spans
        outcome.details["trace_missing"] = tracer.missing
    checker = Checker(inputs)
    for op in inputs.ops:
        seen = outputs.get(op.name, ())
        if len(seen) > 1:
            outcome.problems.append(f"{op.name}: {len(seen)} different outputs for one input")
        for output in seen:
            outcome.problems += checker.check(op, output)
    outcome.problems += checker.cross_checks()
    outcome.details.update(seeds=inputs.seeds, n=inputs.n, mu=inputs.post.mu,
                           sigma=inputs.post.s, bandwidth=inputs.h, spacing=inputs.spacing,
                           ops=[op.name for op in inputs.ops])
    return outcome
