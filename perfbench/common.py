"""Shared pieces: the checkout under test, child processes, provenance."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SETUP_REPEATS = 3
SOURCE_DATE_EPOCH = "1700000000"  # pins the timestamp in JSON results
IMPORT_PROBES = 5


def checkout_root() -> Path:
    """The checkout under test is the working directory; its source must be there."""
    root = Path.cwd()
    if not (root / "src" / "fbst" / "__init__.py").is_file():
        raise SystemExit("perfbench: no fbst source at ./src/fbst; "
                         "run from the root of an fbst checkout")
    return root


def ar1_chain(rng, n: int, phi: float) -> np.ndarray:
    """AR(1) chain x_t = phi x_(t-1) + e_t started in, and marginally, N(0, 1)."""
    noise = rng.standard_normal(n) * np.sqrt(1.0 - phi * phi)
    noise[0] = rng.standard_normal()
    return np.fromiter(itertools.accumulate(noise, lambda prev, e: phi * prev + e),
                       dtype=float, count=n)


def work_dir(root: Path, name: str) -> Path:
    path = root / "perfbench" / "_work" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def import_program(root: Path):
    """Import fbst from the checkout's source tree, never from elsewhere."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fbst
    if Path(fbst.__file__).resolve().parent != (root / "src" / "fbst").resolve():
        raise SystemExit(f"perfbench: imported fbst from {fbst.__file__}, "
                         f"not from {root / 'src'}")
    return fbst


def child_env(root: Path, tmp: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("FBST_", "PYTHON"))}
    env.update(PYTHONPATH=str(root / "src"), SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH,
               TMPDIR=str(tmp))
    return env


@dataclass
class Child:
    seconds: float
    code: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


class Launcher:
    """Runs measured child processes through launcher.py, one at a time.

    Use it as a context manager; leaving the block stops the helper.
    """

    def __init__(self, root: Path):
        self.root = root
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, argv, work: Path) -> Child:
        """Run one process to its end; time it and read its peak resident memory."""
        out, err = work / "child.stdout", work / "child.stderr"
        request = {"argv": [str(arg) for arg in argv], "env": child_env(self.root, work),
                   "stdout": str(out), "stderr": str(err)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the launcher process ended unexpectedly")
        reply = json.loads(reply)
        return Child(reply["seconds"], reply["code"], out.read_bytes(), err.read_bytes(),
                     reply["maxrss_kb"] / 1024.0)


def import_seconds(launcher: Launcher, work: Path) -> float:
    """Median time for a fresh interpreter to import fbst."""
    probe = ("import time; start = time.perf_counter(); import fbst; "
             "print(time.perf_counter() - start)")
    times = []
    for _ in range(IMPORT_PROBES):
        child = launcher.run([sys.executable, "-c", probe], work)
        if child.code != 0:
            raise SystemExit(f"perfbench: cannot import fbst: {child.stderr.decode()}")
        times.append(float(child.stdout))
    return statistics.median(times)


@dataclass
class Outcome:
    """What one workload run measured and found."""

    setup_s: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    elapsed_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list = field(default_factory=list)   # {"op", "error", "message"}
    problems: list = field(default_factory=list)   # failed correctness checks
    layers: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, op: str, error: str, message: str) -> None:
        self.failures.append({"op": op, "error": error, "message": message.strip()})


def timed_setups(make, repeats: int = 1):
    """Run set-up `repeats` times; return the last state and every duration.

    An untraced run sets up once before its timed rounds and SETUP_REPEATS - 1
    times after them, so that the samples of set-up time span the run.
    """
    durations, state = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        state = make()
        durations.append(time.perf_counter() - start)
    return state, durations


def end_to_end(outcome: Outcome) -> dict:
    lat = outcome.latencies
    metrics = {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "ops_per_s": (len(lat) / outcome.elapsed_s, "ops/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def op_p90(outcome: Outcome):
    """90th percentile latency, only where at least ten samples lie beyond it."""
    if len(outcome.latencies) < 100:
        return None
    return statistics.quantiles(outcome.latencies, n=10)[8]


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _git_commit(root: Path):
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, workload: str, seed: int, seconds: int, traced: bool,
               seeds: dict) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    return {
        "workload": workload,
        "seed": seed,
        "workload_seeds": seeds,
        "seconds": seconds,
        "traced": traced,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_gb": round(mem_kb / 1024 ** 2, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
