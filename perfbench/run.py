"""Benchmark of fbst, end to end and layer by layer.

    python3 perfbench/run.py --workload {cli_large,sweep,cli_small,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of an fbst checkout; it measures the code in ./src.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer ones from a separately traced pass.  The last line of standard
output is one JSON object; a results file with provenance, every failed
operation and every span goes to perfbench/_work/results/.  `--workload
all` runs the three workloads in turn and prints one table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import cli_workloads
import reference
import sweep
from common import Launcher, checkout_root, end_to_end, op_p90, provenance, work_dir

WORKLOADS = ("cli_large", "sweep", "cli_small")


def run_workload(root, name: str, seed: int, seconds: int, traced: bool, launcher: Launcher):
    if name == "sweep":
        outcome = sweep.run(root, seed, seconds, traced, launcher)
    else:
        outcome = cli_workloads.run(name, root, seed, seconds, traced, launcher)
    metrics = outcome.layers if traced else end_to_end(outcome)
    result = {"correct": not outcome.problems, "attempted": outcome.attempted,
              "failed": len(outcome.failures), "metrics": metrics}
    p90 = None if traced else op_p90(outcome)
    record = {
        "provenance": provenance(root, name, seed, seconds, traced,
                                 outcome.details.pop("seeds", {})),
        "result": result,
        "op_p90_s": p90,
        "setup_s_each": outcome.setup_s,
        "latencies_s": outcome.latencies,
        "failures": outcome.failures,
        "problems": outcome.problems,
        "details": outcome.details,
    }
    path = work_dir(root, "results") / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1))
    return result, p90, outcome, path


def _print_report(name, result, p90, outcome, path) -> None:
    print(f"== {name}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, outputs {'correct' if result['correct'] else 'WRONG'}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:.6g} {entry['unit']}")
    if "op_p50_s" in result["metrics"]:
        shown = f"{p90:.6g} s" if p90 is not None else \
            f"not reported ({result['attempted']} operations; needs 100)"
        print(f"  {'op_p90_s':36s} {shown}")
    seen = set()
    for failure in outcome.failures:
        if failure["error"] + failure["message"] not in seen:
            seen.add(failure["error"] + failure["message"])
            print(f"  failed: {failure['error']}: {failure['message']}")
    for problem in outcome.problems[:20]:
        print(f"  WRONG: {problem}")
    print(f"  results: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = checkout_root()
    failures = reference.self_test()
    if failures:
        raise SystemExit("perfbench: reference self-test failed: " + "; ".join(failures))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with Launcher(root) as launcher:
        for name in names:
            start = time.perf_counter()
            result, p90, outcome, path = run_workload(root, name, args.seed, args.seconds,
                                                      bool(args.trace), launcher)
            _print_report(name, result, p90, outcome, path)
            print(f"  wall time {time.perf_counter() - start:.1f} s")
            results[name] = result
    sys.stdout.flush()
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
