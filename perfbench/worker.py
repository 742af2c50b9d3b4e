"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload W --seed S --pass-index K --mode M

Run from the root of a checkout: mldeg is imported from ./src.  Modes:
``setup`` stops once the inputs are built, ``plain`` runs and checks the jobs,
``traced`` does the same under the tracer and writes its spans to --spans.
Prints one JSON line with monotonic-clock stamps of set-up, per-job latencies
and check results, peak RSS and, when traced, the per-layer metrics.

Every job's latency is given twice: ``s`` as measured, and ``ref_s`` scaled
to a reference host speed (see ``SpeedProbe``).
"""

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

# The reference kernel's mean time, in seconds, on the host the benchmark was
# written on.  A reference second is a second on a host that runs the kernel
# this fast.
REFERENCE_KERNEL_S = 0.0012
KERNEL_TERMS = {
    (i, j, k): Fraction((7 * i + 3 * j + k) % 11 - 5, 1 + (i + 2 * j + 3 * k) % 7)
    for i in range(3) for j in range(2) for k in range(2)
}
SAMPLE_PERIOD_S = 0.05  # kernel samples during a job
BRACKET_SAMPLES = 3  # kernel samples between two jobs


def reference_kernel() -> float:
    """Seconds taken by one fixed sparse polynomial square over Fraction.

    It does what mldeg's hot loop does (dict-of-exponent products of
    Fractions) but uses only the standard library, so no change to mldeg
    can change its time.
    """
    start = time.perf_counter()
    out = {}
    for e1, c1 in KERNEL_TERMS.items():
        for e2, c2 in KERNEL_TERMS.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, Fraction(0)) + c1 * c2
    return time.perf_counter() - start


class SpeedProbe:
    """The host's speed during each job, from the reference kernel.

    The host's speed drifts by up to a factor of two, and it changes within
    a fraction of a second.  So the kernel runs BRACKET_SAMPLES times between
    jobs and, from a SIGALRM timer, every SAMPLE_PERIOD_S during a job.  A
    job's time in reference seconds is its measured time, less the time its
    in-job samples took, × REFERENCE_KERNEL_S ÷ the mean kernel time of the
    samples before, during and after it.
    """

    def __init__(self):
        self.before: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0  # in-job sampling time of the current job
        self.total = 0.0  # in-job sampling time of all jobs so far
        self.busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.busy:  # the host stalled for a whole period inside a sample
            return
        self.busy = True
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        self.total += elapsed
        self.busy = False

    def clock(self) -> float:
        """perf_counter less all in-job sampling so far; an interval timed
        with it leaves out the samples taken within it."""
        return time.perf_counter() - self.total

    @staticmethod
    def bracket() -> list[float]:
        return [reference_kernel() for _ in range(BRACKET_SAMPLES)]

    def start(self) -> None:
        if not self.before:
            self.before = self.bracket()
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self, seconds: float) -> tuple[float, float]:
        """(job seconds, job reference seconds) for a job that took
        `seconds`, sampling included."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        after = self.bracket()
        kernel_s = statistics.fmean(self.before + self.samples + after)
        self.before = after
        seconds -= self.spent
        return seconds, seconds * REFERENCE_KERNEL_S / kernel_s


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    t_import = time.monotonic()
    import mldeg

    t_imported = time.monotonic()
    if not Path(mldeg.__file__).resolve().is_relative_to(src):
        print(f"mldeg imported from {mldeg.__file__}, not from ./src", file=sys.stderr)
        return 2

    import tracer
    import workloads

    probe = SpeedProbe()
    trace = tracer.Tracer(probe.clock) if args.mode == "traced" else None
    if trace is not None:
        trace.install()
    jobs = workloads.build_jobs(args.workload, args.seed, args.pass_index)
    record = {"t_main": T_MAIN, "import_s": t_imported - t_import, "t_ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    outputs, results = [], []
    start = probe.clock()
    for index, job in enumerate(jobs):
        if trace is not None:
            trace.job = index
        probe.start()
        job_start = time.perf_counter()
        try:
            outputs.append(job.run())
            error = None
        except Exception as exc:  # a failed job is counted, not fatal
            outputs.append(None)
            error = f"{type(exc).__name__}: {exc}"
        seconds, ref_s = probe.stop(time.perf_counter() - job_start)
        results.append({"name": job.name, "s": seconds, "ref_s": ref_s,
                        "error": error, "may_fail": job.may_fail})
    if trace is not None:
        trace.job = None
    for job, output, result in zip(jobs, outputs, results):
        result["check"] = None if result["error"] else job.check(output)
    record["jobs"] = results
    record["wall_s"] = sum(result["s"] for result in results)
    record["wall_ref_s"] = sum(result["ref_s"] for result in results)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace is not None:
        trace.write(args.spans, start)
        record["layers"] = trace.metrics(record["wall_ref_s"] / record["wall_s"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
