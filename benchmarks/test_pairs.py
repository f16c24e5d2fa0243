"""Smoke test of ``benchmarks/pairs.py``: one pair of one workload.

Picked up by the ``bench-smoke`` CI job (``pytest benchmarks --smoke``),
so the pairs tool keeps working as the benchmark it drives changes.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_one_pair_against_head_reports_every_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "pairs.py"), "HEAD", "--workload",
         "pda-tap", "--pairs", "1", "--interactions", "3"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    assert lines[0] == "pda-tap: 1 pairs"
    for metric in ("setup_s", "interaction_p50_ms", "interaction_p90_ms",
                   "interactions_per_cpu_s", "peak_rss_mb"):
        assert any(line.split()[:1] == [metric] for line in lines), metric
    assert any(line.strip().startswith("base: ") and "0 failed" in line
               for line in lines)
    assert any(line.strip().startswith("change: ") and "0 failed" in line
               for line in lines)
