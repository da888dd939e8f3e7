"""Steadiness and comparison runs of one workload.

    python3 perfbench/steady.py --workload sweep [--runs 10] [--first-seed 1]
    python3 perfbench/steady.py --workload sweep --against PARENT_CHECKOUT

Run from the root of a checkout.  The first form runs the benchmark --runs
times, each with its own seed, and prints for every end-to-end metric its
median, quartiles and spread (q3 - q1) / median against the metric's bound
in BENCHMARK.json; this is how the bounds were set.  The second form runs
the checkout in PARENT_CHECKOUT and this one in pairs on the same seed,
alternating which side runs first, with this benchmark's code for both;
it prints each side's median and quartiles, the pairs the change won, and
whether the change's median is worse than the parent's by more than the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"run failed in {checkout} (seed {seed}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def failed_shares(results) -> set:
    return {r["failed"] / r["attempted"] for r in results}


def report_steadiness(spec: dict, results: list) -> dict:
    summary = {}
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in results])
        spread = (q3 - q1) / median
        verdict = ("steady" if spread < metric["bound"] / 3 else
                   "within bound" if spread <= metric["bound"] else "TOO WIDE")
        if name == "setup_s":
            verdict += " (spread not bounded)"
        print(f"{name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{metric['bound']:6.3f}  {verdict}")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
    shares = failed_shares(results)
    print(f"failed share per run: {sorted(shares)}"
          + ("" if len(shares) == 1 else "  NOT CONSTANT"))
    print(f"outputs correct in every run: {all(r['correct'] for r in results)}")
    return summary


def report_comparison(spec: dict, parent: list, change: list) -> dict:
    summary = {}
    print(f"{'metric':14s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} "
          f"{'won':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        p1, pm, p3 = quartiles(before)
        c1, cm, c3 = quartiles(after)
        won = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        worse = sign * (pm - cm) / pm
        if worse > metric["bound"]:
            verdict = "REGRESSION beyond bound"
        elif won >= 0.9 * len(before) and abs(cm - pm) > p3 - p1:
            verdict = "gain"
        elif (p3 - p1) / pm > metric["bound"]:
            verdict = "unresolved (spread wider than bound)"
        else:
            verdict = "no change beyond bound"
        print(f"{name:14s} {pm:12.6g} [{p1:.6g}, {p3:.6g}]".ljust(52)
              + f"{cm:12.6g} [{c1:.6g}, {c3:.6g}]".ljust(38)
              + f"{won:3d}/{len(before)}  {verdict}")
        summary[name] = {"parent": [p1, pm, p3], "change": [c1, cm, c3], "won": won,
                         "verdict": verdict}
    print(f"failed share: parent {sorted(failed_shares(parent))}, "
          f"change {sorted(failed_shares(change))}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--against", type=Path, help="checkout of the parent commit")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    here = Path.cwd()
    seeds = range(args.first_seed, args.first_seed + args.runs)
    record = {"workload": args.workload, "seconds": seconds, "seeds": list(seeds)}
    if args.against is None:
        results = []
        for seed in seeds:
            results.append(run_once(here, args.workload, seed, seconds))
            print(f"seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        record.update(results=results, summary=report_steadiness(spec, results))
    else:
        parent, change = [], []
        for i, seed in enumerate(seeds):
            sides = [(args.against, parent), (here, change)]
            for checkout, sink in (sides if i % 2 == 0 else sides[::-1]):
                sink.append(run_once(checkout, args.workload, seed, seconds))
            print(f"pair {i + 1} (seed {seed}) done", flush=True)
        record.update(parent=parent, change=change,
                      summary=report_comparison(spec, parent, change))
    out = here / "perfbench" / "_work" / "steady"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
