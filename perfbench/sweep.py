"""The library workload: `fbst.fbst(...)` over many nulls on in-memory samples.

The calls run in one worker process (this file run as a script), so that
its peak resident memory is fbst's alone.  Each sample object is made once
and reused by every call, as a user sweeping nulls would.  The parent
process checks the worker's records against the reference module.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracing
from common import (SETUP_REPEATS, Launcher, Outcome, ar1_chain, checkout_root,
                    import_program, import_seconds, timed_setups, work_dir)

N = 100_000
PHI = 0.6              # lag-1 autocorrelation of the AR(1) sample
STRAY = 1.0e4          # one draw far out, as a divergent MCMC transition leaves
NULL_SLOTS = 8         # nulls per sample; each round takes the next two
TTEST_ITERATIONS = 100_000
TTEST_PRIOR_SCALE = math.sqrt(0.5)
GRID_MC_TOL = 0.01
SEV_TOL = 1e-9

REFS = {
    "flat": ("flat",),
    "normal": ("normal", 0.0, 2.5),
    "cauchy": ("cauchy", 0.0, math.sqrt(0.5)),
    "student_t": ("student_t", 0.0, 1.0, 3.0),
}
# (null of the round's pair, reference slot, estimator, dim_theta, dim_null)
PATTERN = (
    (0, 0, "grid", 1, 0), (0, 0, "monte_carlo", 3, 2), (0, 1, "grid", 8, 7),
    (1, 2, "grid", 3, 2), (1, 2, "monte_carlo", 8, 7), (1, 3, "grid", 1, 0),
)
# Quantile bands the nulls come from.  On the t-test chain the grid and MC
# estimates are compared; between its 20 % and 70 % quantiles the grid
# estimator falls short of MC by more than GRID_MC_TOL (README.md, kept failure)
NULL_BANDS = {"ttest_delta": ((0.03, 0.15), (0.85, 0.97))}
# a normal reference only where the posterior's tails are lighter than its own
SLOT_REFS = {
    "ar1_normal": ("flat", "normal", "cauchy", "student_t"),
    "gamma": ("flat", "student_t", "cauchy", "student_t"),
    "mixture": ("flat", "student_t", "cauchy", "student_t"),
    "ttest_delta": ("flat", "student_t", "cauchy", "student_t"),
    "stray": ("flat", "normal", "cauchy", "student_t"),
}


def known_samples(seed: int) -> dict:
    """name -> (draws, known posterior, effective sample size)."""
    rng = np.random.default_rng([seed, 3])
    mu, s = rng.uniform(-1.0, 1.0), rng.uniform(0.6, 1.2)
    first = rng.random(N) < 0.6
    mixture = np.where(first, rng.normal(-1.5, 0.7, N), rng.normal(1.5, 0.7, N))
    stray = np.append(rng.standard_normal(N), STRAY)
    return {
        "ar1_normal": (mu + s * ar1_chain(rng, N, PHI), reference.Normal(mu, s),
                       reference.ar1_n_eff(N, PHI)),
        "gamma": (rng.gamma(3.0, 1.0, N), reference.Gamma3(), float(N)),
        "mixture": (mixture, reference.Mixture((0.6, 0.4), (-1.5, 1.5), 0.7), float(N)),
        "stray": (stray, reference.Normal(0.0, 1.0), float(N + 1)),
    }


def _ttest_inputs(seed: int):
    """Two groups shaped like the paper's t-test example, and a chain seed."""
    rng = np.random.default_rng([seed, 4])
    return rng.normal(0.0, 1.7, 18), rng.normal(0.8, 3.0, 18), int(rng.integers(2 ** 31))


def _nulls(rng, draws, bands) -> list:
    """NULL_SLOTS nulls spread evenly over the quantile bands, in random order."""
    per = NULL_SLOTS // len(bands)
    levels = np.concatenate([lo + (hi - lo) * (np.arange(per) + rng.random(per)) / per
                             for lo, hi in bands])
    return [float(x) for x in rng.permutation(np.quantile(draws, levels))]


def round_calls(r: int, nulls: dict):
    """The calls of round r: (sample, null, reference name, estimator, k, h)."""
    for name, slots in SLOT_REFS.items():
        pair = (nulls[name][2 * r % NULL_SLOTS], nulls[name][(2 * r + 1) % NULL_SLOTS])
        for which, slot, estimator, k, h in PATTERN:
            yield name, pair[which], slots[slot], estimator, k, h


# -- worker ----------------------------------------------------------------------

def _fbst_refs(fbst) -> dict:
    fam = fbst.DensityFamily
    return {
        "flat": fbst.ReferenceFunction.flat(),
        "normal": fbst.ReferenceFunction.from_family(fam.normal(*REFS["normal"][1:])),
        "cauchy": fbst.ReferenceFunction.from_family(fam.cauchy(*REFS["cauchy"][1:])),
        "student_t": fbst.ReferenceFunction.from_family(fam.student_t(*REFS["student_t"][1:])),
    }


def setup(fbst, seed: int):
    samples = {name: fbst.PosteriorSample(draws, name)
               for name, (draws, _, _) in known_samples(seed).items()}
    group1, group2, chain_seed = _ttest_inputs(seed)
    samples["ttest_delta"] = fbst.oracle.ttest_metropolis(
        fbst.TTestData(group1, group2), TTEST_PRIOR_SCALE, TTEST_ITERATIONS, chain_seed)
    rng = np.random.default_rng([seed, 5])
    nulls = {name: _nulls(rng, samples[name].draws, NULL_BANDS.get(name, ((0.03, 0.97),)))
             for name in SLOT_REFS}
    warm = fbst.PosteriorSample(np.linspace(-2.0, 2.0, 500), "warm")
    for estimator in ("grid", "monte_carlo"):
        fbst.fbst(warm, 0.5, 1, 0, estimator=estimator)
    return samples, nulls


def _run_round(fbst, r: int, samples, nulls, refs, records: list) -> None:
    for name, null, ref, estimator, k, h in round_calls(r, nulls):
        record = {"round": r, "sample": name, "null": null, "ref": ref,
                  "estimator": estimator, "k": k, "h": h}
        start = time.perf_counter()
        try:
            result = fbst.fbst(samples[name], null, k, h, reference=refs[ref],
                               estimator=estimator)
        except Exception as err:  # a failed operation is counted, not fatal
            record["seconds"] = time.perf_counter() - start
            record["error"] = {"class": type(err).__name__, "message": str(err)}
        else:
            record["seconds"] = time.perf_counter() - start
            record["result"] = {key: getattr(result, key) for key in
                                ("e_value_against", "e_value_in_favor", "p_value", "sev")}
        records.append(record)


def worker(seed: int, seconds: int, traced: bool, out: Path) -> None:
    fbst = import_program(checkout_root())
    tracer = tracing.Tracer()

    def make():
        return setup(fbst, seed)

    with tracer.patched(tracing.ORACLE_PATCHES if traced else ()):
        (samples, nulls), setup_s = timed_setups(make)
    refs = _fbst_refs(fbst)
    records, round_s = [], []
    start = time.perf_counter()
    if not traced:
        r = 0
        while True:
            _run_round(fbst, r, samples, nulls, refs, records)
            r += 1
            if time.perf_counter() - start >= seconds:
                break
        elapsed_s = time.perf_counter() - start
        setup_s += timed_setups(make, SETUP_REPEATS - 1)[1]
    else:
        for patches in ((), tracing.LIBRARY_PATCHES):
            begin = time.perf_counter()
            with tracer.patched(patches):
                _run_round(fbst, 0, samples, nulls, refs, records)
            round_s.append(time.perf_counter() - begin)
        elapsed_s = time.perf_counter() - start
    report = {"setup_s": setup_s, "elapsed_s": elapsed_s,
              "records": records, "round_s": round_s, "totals": tracer.totals(),
              "spans": tracer.spans, "trace_missing": tracer.missing,
              "samples": {name: samples[name].n for name in samples}}
    out.write_text(json.dumps(report))


# -- parent ------------------------------------------------------------------------

def _label(rec: dict) -> str:
    return (f"{rec['sample']} null={rec['null']:.6g} ref={rec['ref']} {rec['estimator']} "
            f"({rec['k']},{rec['h']})")


class Checker:
    def __init__(self, seed: int):
        self.known = {}
        for name, (draws, post, n_eff) in known_samples(seed).items():
            h = reference.silverman(draws)
            self.known[name] = (post, n_eff, h, reference.grid_spacing(draws, h))
        self.integrator = reference.Integrator()
        self._bands = {}

    def _band(self, kind, name, null, key):
        memo = (kind, name, null, key)
        if memo not in self._bands:
            post, n_eff, h, spacing = self.known[name]
            if kind == "ev":
                self._bands[memo] = reference.ev_band(self.integrator, post, REFS[key], null,
                                                      n_eff, h, spacing)
            else:
                self._bands[memo] = reference.pvalue_band(post, null, key, n_eff, h, spacing)
        return self._bands[memo]

    def check(self, rec: dict) -> list:
        res, name, where = rec["result"], rec["sample"], _label(rec)
        ev = res["e_value_against"]
        problems = []
        if ev + res["e_value_in_favor"] != 1.0:
            problems.append(f"{where}: e-values do not sum to 1")
        want = reference.sev_from_ev(ev, rec["k"], rec["h"])
        if not abs(res["sev"] - want) <= SEV_TOL:
            problems.append(f"{where}: sev {res['sev']!r}, recomputed {want!r}")
        if name not in self.known:
            return problems
        lo, hi = self._band("ev", name, rec["null"], rec["ref"])
        if not lo <= ev <= hi:
            problems.append(f"{where}: e-value {ev!r} outside [{lo:.6g}, {hi:.6g}]")
        if isinstance(self.known[name][0], reference.Normal):
            lo, hi = self._band("p", name, rec["null"], rec["k"] - rec["h"])
            if not lo <= res["p_value"] <= hi:
                problems.append(f"{where}: p-value {res['p_value']!r} outside "
                                f"[{lo:.6g}, {hi:.6g}]")
        return problems

    @staticmethod
    def cross_checks(records) -> list:
        """p-values are bit-equal across references; grid and MC agree on the chain."""
        problems, p_values, pairs = [], {}, {}
        for rec in records:
            if "result" not in rec:
                continue
            key = (rec["round"], rec["sample"], rec["null"])
            p_values.setdefault(key, set()).add(rec["result"]["p_value"])
            if rec["sample"] == "ttest_delta":
                pairs.setdefault(key + (rec["ref"],), {})[rec["estimator"]] = \
                    rec["result"]["e_value_against"]
        for (r, name, null), values in p_values.items():
            if len(values) > 1:
                problems.append(f"{name} null={null:.6g}: p-value differs across "
                                f"references: {sorted(values)}")
        for (r, name, null, ref), evs in pairs.items():
            if len(evs) == 2 and abs(evs["grid"] - evs["monte_carlo"]) > GRID_MC_TOL:
                problems.append(f"{name} null={null:.6g} ref={ref}: grid {evs['grid']:.5f} "
                                f"and MC {evs['monte_carlo']:.5f} differ by more than "
                                f"{GRID_MC_TOL}")
        return problems


def run(root: Path, seed: int, seconds: int, traced: bool, launcher: Launcher) -> Outcome:
    work = work_dir(root, "sweep")
    out = work / "worker.json"
    out.unlink(missing_ok=True)
    child = launcher.run([sys.executable, Path(__file__).resolve(), "--seed", seed,
                          "--seconds", seconds, "--trace", int(traced), "--out", out], work)
    if child.code != 0:
        raise SystemExit("perfbench: sweep worker failed:\n"
                         + child.stderr.decode("utf-8", "replace"))
    report = json.loads(out.read_text())
    outcome = Outcome(setup_s=report["setup_s"], elapsed_s=report["elapsed_s"],
                      peak_rss_mb=child.peak_rss_mb)
    checker = Checker(seed)
    for rec in report["records"]:
        outcome.latencies.append(rec["seconds"])
        if "error" in rec:
            outcome.fail(_label(rec), rec["error"]["class"], rec["error"]["message"])
        else:
            outcome.problems += checker.check(rec)
    outcome.problems += checker.cross_checks(report["records"])
    if traced:
        plain_s, traced_s = report["round_s"]
        outcome.layers = tracing.layer_metrics(report["totals"], import_seconds(launcher, work),
                                               traced_s - plain_s)
        outcome.details.update(spans=report["spans"], trace_missing=report["trace_missing"])
    outcome.details.update(samples=report["samples"], records=report["records"],
                           seeds={"samples": [seed, 3], "ttest": [seed, 4], "nulls": [seed, 5]})
    return outcome


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="sweep worker; started by run.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    worker(args.seed, args.seconds, bool(args.trace), args.out)
