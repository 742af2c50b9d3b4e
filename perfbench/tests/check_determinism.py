"""Two traced passes with one seed must give the same per-layer counts.

Run from the repository root (about a minute):

    python3 -m pytest perfbench/tests/check_determinism.py

The file name keeps it out of the default test run.  Counts are everything
the tracer reports that is not a time: call counts, Sylvester dimensions,
coefficient bit lengths and per-call ratios.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
NAMED = (
    "poly.exact_divide.calls",
    "poly.resultant.out_bits_max",
    "critical.eliminate.per_report",
    "curve.variety_critical_system.per_mle",
)


def traced_counts(workload: str, seed: int, tmp_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--pass-index", "0", "--mode", "traced",
         "--spans", str(tmp_path / "spans.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    return {name: value for name, (value, unit) in layers.items() if unit not in ("s", "ref_s")}


@pytest.mark.parametrize("workload", ["count-ladder", "mle-ladder"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced_counts(workload, 3, tmp_path)
    second = traced_counts(workload, 3, tmp_path)
    assert set(NAMED) <= set(first)
    assert first == second
