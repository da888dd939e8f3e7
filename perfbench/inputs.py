"""Regenerate every workload's inputs for one seed, without measuring.

    python3 perfbench/inputs.py [--seed N]

Run from the root of a checkout.  Writes the CLI workloads' draws files and
reference table under perfbench/_work/cli_large/ and perfbench/_work/cli_small/,
and the sweep's samples (including the t-test chain, which needs fbst) as
.npy files, with their nulls in nulls.json, under perfbench/_work/sweep/.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

import cli_workloads
import sweep
from common import Launcher, checkout_root, import_program, work_dir


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    root = checkout_root()
    with Launcher(root) as launcher:
        for name, setup in cli_workloads.SETUPS.items():
            work = work_dir(root, name)
            inputs = setup(seed, work, launcher)
            print(f"{name}: {inputs.n} draws in {work}")
    work = work_dir(root, "sweep")
    samples, nulls = sweep.setup(import_program(root), seed)
    for name, sample in samples.items():
        np.save(work / f"{name}.npy", sample.draws)
    (work / "nulls.json").write_text(json.dumps(nulls, indent=1))
    print(f"sweep: {len(samples)} samples and their nulls in {work}")


if __name__ == "__main__":
    main()
