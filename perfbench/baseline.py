"""Re-take the hand-made baseline that ROADMAP.md records.

    python3 perfbench/baseline.py

Run from the repository root.  Cold CLI runs (a fresh interpreter each, as
`python3 -m mldeg.cli`) of `catalog` and of the `7A + 9B <-> 11C` MLE, and
the `3A + 3B <-> 3C` catalog row evaluated in process after a warm import.
Prints the median and the range of REPEATS runs of each figure, in seconds,
and the median in reference seconds: each run scaled by the reference kernel
just before and after it (see worker.SpeedProbe), to show the host's state.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_KERNEL_S, reference_kernel

REPEATS = 5
KERNEL_SAMPLES = 20
CLI = {
    "cli catalog": ["catalog"],
    "cli mle 7A + 9B <-> 11C": ["mle", "7A + 9B <-> 11C", "--ke", "7/3", "--counts", "13,29,41"],
    "cli parse": ["parse", "2A + B <-> 3C"],
}


def cold(argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH="src")
    start = time.monotonic()
    subprocess.run([sys.executable, "-m", "mldeg.cli", *argv], env=env,
                   stdout=subprocess.DEVNULL, check=True)
    return time.monotonic() - start


def catalog_row(reaction: str) -> float:
    sys.path.insert(0, str(Path("src").resolve()))
    from mldeg.catalog import evaluate_entry, lookup

    entry = lookup(reaction)
    start = time.perf_counter()
    evaluate_entry(entry)
    return time.perf_counter() - start


def kernel_s() -> float:
    return statistics.fmean(reference_kernel() for _ in range(KERNEL_SAMPLES))


def timed(measure, arg) -> tuple[float, float]:
    """(seconds, reference seconds) of one run of measure(arg)."""
    before = kernel_s()
    seconds = measure(arg)
    return seconds, seconds * 2 * REFERENCE_KERNEL_S / (before + kernel_s())


def main() -> int:
    figures = {name: [timed(cold, argv) for _ in range(REPEATS)] for name, argv in CLI.items()}
    figures["row 3A + 3B <-> 3C"] = [timed(catalog_row, "3A + 3B <-> 3C") for _ in range(REPEATS)]
    for name, runs in figures.items():
        values = [seconds for seconds, _ in runs]
        print(f"{name:<26} median {statistics.median(values):8.3f} s"
              f"  range {min(values):.3f}-{max(values):.3f} s  n={len(values)}"
              f"  median {statistics.median(ref for _, ref in runs):8.3f} ref_s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
