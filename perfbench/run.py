"""The mldeg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload count-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; mldeg is imported from ./src.  Each pass is
a fresh interpreter (worker.py) that imports mldeg, builds the seeded inputs
of pass k and runs the job list in sequence, one thread, checking every
output.  With ``--trace 0`` passes k = 0, 1, 2, ... run until ``--seconds``
have gone by, and at least OK_PASSES of them; the end-to-end metrics are
medians over the passes.  With ``--trace 1`` pass 0 runs alternately
untraced and traced, and the per-layer metrics come from the traced runs.
Set-up-only interpreters, started between the passes, measure set-up time
several times.  Because the host's speed drifts by up to a factor of two,
times are scaled to a reference host speed: job times by the host's speed
during the job (worker.SpeedProbe), in ``ref_s``, and set-up times by the
start of a bare interpreter just before and after (Runner.setup_probe).

The human-readable report goes to stdout; its last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A job *fails* when it
raises or its output fails its check.  ``attempted`` and ``failed`` count a
fixed set of passes, so they depend on the seed alone and not on how many
passes the host's speed allowed: passes 0 .. OK_PASSES-1 with ``--trace 0``,
the first untraced and the first traced pass with ``--trace 1``.  Every pass
is checked: ``correct`` is false when any job of any pass returned a wrong
output, or raised without being marked ``may_fail``.  Exit
code 2, and no JSON, when the benchmark cannot run: no ./src/mldeg, a worker
that crashed, or the time limit reached.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"
SETUP_PROBES = 8
# A bare interpreter: it imports the standard-library modules the worker
# imports, but not mldeg.  REFERENCE_BARE_S is its start time on the host the
# benchmark was written on.
BARE = [sys.executable, "-c", "import argparse, fractions, json, pathlib, statistics"]
REFERENCE_BARE_S = 0.085
# ok_rate, attempted and failed count the jobs of passes 0 .. OK_PASSES-1
# only, which every run makes, so that they depend on the seed alone and not
# on the host's speed.
OK_PASSES = 3
TIME_LIMIT_S = 165  # the whole invocation, set-up probes included

END_TO_END = {
    "setup_s": "s",
    "wall_s": "ref_s",
    "job_p50_s": "ref_s",
    "job_max_s": "ref_s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def run(self, argv: list[str], what: str) -> tuple[str, float]:
        """(stdout, monotonic time of the spawn) of a process that must exit 0."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"time limit of {TIME_LIMIT_S} s reached in a {what}")
        if proc.returncode != 0:
            raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout, t_spawn

    def spawn(self, mode: str, pass_index: int = 0) -> dict:
        """One fresh interpreter; its record gains setup timings from the spawn."""
        argv = [sys.executable, str(WORKER), "--workload", self.workload,
                "--seed", str(self.seed), "--pass-index", str(pass_index), "--mode", mode]
        if mode == "traced":
            SPANS_DIR.mkdir(exist_ok=True)
            argv += ["--spans", str(SPANS_DIR / f"{self.workload}-seed{self.seed}.jsonl")]
        stdout, t_spawn = self.run(argv, f"{mode} pass")
        record = json.loads(stdout.splitlines()[-1])
        record["interpreter_s"] = record["t_main"] - t_spawn
        record["setup_s"] = record["t_ready"] - t_spawn
        return record

    def bare_s(self) -> float:
        _, t_spawn = self.run(BARE, "bare interpreter")
        return time.monotonic() - t_spawn

    def setup_probe(self) -> dict:
        """A set-up-only interpreter between two bare ones.

        Set-up time tracks the start of a bare interpreter, not the reference
        kernel, so ``setup_ref_s`` = set-up time × REFERENCE_BARE_S ÷ the
        mean start time of the bare interpreters around it.
        """
        before = self.bare_s()
        record = self.spawn("setup")
        record["setup_ref_s"] = record["setup_s"] * 2 * REFERENCE_BARE_S / (before + self.bare_s())
        return record

    def repeat(self, seconds: float, one_round, min_rounds: int = 1) -> list[dict]:
        """Call one_round() until `seconds` have passed and at least
        `min_rounds` times; past those, never start a round that would likely
        overrun the time limit.

        Set-up-only interpreters run before each round, spread over the run
        so that no single slow moment of the host sets ``setup_s``, and at
        the end until there are SETUP_PROBES of them.  Returns their records.
        """
        self.spawn("setup")  # unmeasured: lets this checkout's bytecode cache fill
        setups = []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            setups.append(self.setup_probe())
            one_round()
            now = time.monotonic()
            if len(setups) < min_rounds:
                continue
            if now - start >= seconds or now + 1.5 * (now - round_start) > self.deadline:
                break
        while len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())
        return setups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def job_counts(passes: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over all jobs of the given passes."""
    jobs = [job for record in passes for job in record["jobs"]]
    failed = sum(1 for job in jobs if job["error"] or job["check"])
    correct = not any(job["check"] or (job["error"] and not job["may_fail"]) for job in jobs)
    return len(jobs), failed, correct


def print_table(rows: dict, units: dict) -> None:
    print(f"{'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for name, values in rows.items():
        q1, median, q3 = quartiles(values)
        print(f"{name:<46} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>4}  {units[name]}")


def print_jobs(record: dict) -> None:
    print("jobs of the first pass:")
    for job in record["jobs"]:
        status = "ok"
        if job["error"]:
            status = ("FAILED (may fail) " if job["may_fail"] else "FAILED ") + job["error"]
        elif job["check"]:
            status = "WRONG " + job["check"]
        print(f"  {job['s']:10.4f} s {job['ref_s']:10.4f} ref_s  {job['name']}: {status}")


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list, list]:
    """(metrics, the passes that attempted and failed count, all passes)."""
    passes = []

    def one_pass():
        passes.append(runner.spawn("plain", len(passes)))

    setups = runner.repeat(seconds, one_pass, OK_PASSES)
    attempted, failed, _ = job_counts(passes[:OK_PASSES])
    rows = {
        "setup_s": [r["setup_ref_s"] for r in setups],
        "wall_s": [r["wall_ref_s"] for r in passes],
        "job_p50_s": [statistics.median(j["ref_s"] for j in r["jobs"]) for r in passes],
        "job_max_s": [max(j["ref_s"] for j in r["jobs"]) for r in passes],
        "ok_rate": [(attempted - failed) / attempted],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
    }
    print_table(rows, END_TO_END)
    print_table({
        "measured setup_s": [r["setup_s"] for r in setups],
        "measured wall_s": [r["wall_s"] for r in passes],
        "measured job_p50_s": [statistics.median(j["s"] for j in r["jobs"]) for r in passes],
        "measured job_max_s": [max(j["s"] for j in r["jobs"]) for r in passes],
    }, defaultdict(lambda: "s"))
    print(f"jobs of passes 0..{OK_PASSES - 1}: {attempted} attempted, {failed} failed, "
          f"fail_rate {failed / attempted:.4g}")
    print_jobs(passes[0])
    metrics = {name: (statistics.median(v), END_TO_END[name]) for name, v in rows.items()}
    return metrics, passes[:OK_PASSES], passes


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list, list]:
    """(metrics, the passes that attempted and failed count, all passes)."""
    plain, traced = [], []

    def one_pair():
        plain.append(runner.spawn("plain"))
        traced.append(runner.spawn("traced"))

    setups = runner.repeat(seconds, one_pair)
    units = {name: unit for name, (_, unit) in traced[0]["layers"].items()}
    rows = {name: [r["layers"][name][0] for r in traced] for name in units}
    rows["setup.interpreter_s"] = [r["interpreter_s"] for r in setups]
    rows["setup.import_s"] = [r["import_s"] for r in setups]
    rows["trace.wall_s"] = [r["wall_ref_s"] for r in traced]
    rows["trace.overhead_ratio"] = [statistics.median(r["wall_ref_s"] for r in traced)
                                    / statistics.median(r["wall_ref_s"] for r in plain)]
    units.update({"setup.interpreter_s": "s", "setup.import_s": "s",
                  "trace.wall_s": "ref_s", "trace.overhead_ratio": "ratio"})
    print_table(rows, units)
    print_jobs(traced[0])
    metrics = {name: (statistics.median(v), units[name]) for name, v in rows.items()}
    return metrics, [plain[0], traced[0]], plain + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/mldeg/__init__.py").is_file():
        print("run from the root of an mldeg checkout: ./src/mldeg not found", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, counted, checked = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    attempted, failed, _ = job_counts(counted)
    correct = job_counts(checked)[2]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
