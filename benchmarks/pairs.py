"""Alternating pairs of the end-to-end benchmark: a base revision against
the working tree.

End-to-end medians move by several percent from run to run on a shared
machine, so a change is timed against its parent in pairs: both sides
run ``benchmarks/e2e/run.py`` on the same seed, one process at a time,
and the side that runs first flips from pair to pair.

Usage::

    python3 benchmarks/pairs.py BASE [--workload W ...] [--pairs N]
        [--seed S] [--interactions N] [--fixed-mmap]
    make e2e-pairs BASE=<rev> WORKLOAD=<w> PAIRS=<n> SEED=<s>

BASE is extracted with ``git archive`` into a temporary directory.  Pair
``i`` runs seed ``S + i`` for every workload, the base first in even
pairs and the working tree first in odd ones.  Each run lasts the
``run_seconds`` of ``BENCHMARK.json``, or ``--interactions N`` for a
quick check.  ``--fixed-mmap`` runs both sides under
``MALLOC_MMAP_THRESHOLD_=33554432``, which fixes where glibc puts the
large frame arrays.  Every record goes into the temporary directory, and
neither this process nor its children write bytecode, so nothing is
written inside the repository.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles, how many pairs the change won, the
ratio of the medians (change / base) and whether every change run beat
every base run (``apart``: a metric whose spread is wider than its bound
is resolved only then), then each side's attempted and failed
interactions.  It exits 1 if any run fails or reports incorrect
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # importing frame_parity writes no .pyc
from frame_parity import ROOT, extract

#: The fixed threshold of ``--fixed-mmap`` (32 MiB), in bytes.
MMAP_THRESHOLD = "33554432"
SIDES = ("base", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, linearly interpolated."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_once(root: Path, workload: str, seed: int, budget: list[str],
             out: Path, env: dict) -> dict:
    """One ``run.py`` of ``workload`` in the tree at ``root``: the JSON
    object it prints last, plus its exit code."""
    done = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed), *budget,
         "--out", str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed} in {root} printed no "
                           f"result (exit {done.returncode}):\n"
                           f"{done.stderr[-2000:]}") from None
    result["returncode"] = done.returncode
    return result


def report(workload: str, runs: dict[str, list[dict]],
           metrics: list[dict]) -> None:
    pairs = len(runs["change"])
    print(f"{workload}: {pairs} pairs")
    print(f"  {'metric':24s} {'base median [q1-q3]':>28s} "
          f"{'change median [q1-q3]':>28s} {'wins':>6s} {'ratio':>6s} "
          f"{'apart':>5s}")
    for metric in metrics:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        # signed so that lower is better for every metric
        sign = 1 if metric["better"] == "lower" else -1
        base, change = ([sign * v for v in values[side]] for side in SIDES)
        wins = sum(new < old for old, new in zip(base, change))
        apart = max(change) < min(base)
        cells = []
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{median:.4g} [{q1:.4g}-{q3:.4g}]")
        ratio = (statistics.median(values["change"])
                 / statistics.median(values["base"]))
        print(f"  {name:24s} {cells[0]:>28s} {cells[1]:>28s} "
              f"{wins:>3d}/{pairs:<2d} {ratio:6.3f} "
              f"{'yes' if apart else 'no':>5s}")
    for side in SIDES:
        attempted = sum(run["attempted"] for run in runs[side])
        failed = sum(run["failed"] for run in runs[side])
        print(f"  {side}: {attempted} attempted, {failed} failed")


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=" ".join(__doc__.split("\n\n")[0].split()))
    parser.add_argument("base", help="git revision to time the working "
                        "tree against, e.g. HEAD~1")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]],
                        help="time this workload (repeatable; default "
                             "remote-browse)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed+i")
    parser.add_argument("--interactions", type=int,
                        help="run N interactions instead of the declared "
                             "run_seconds")
    parser.add_argument("--fixed-mmap", action="store_true",
                        help="run both sides under MALLOC_MMAP_THRESHOLD_="
                             + MMAP_THRESHOLD)
    args = parser.parse_args(argv)
    workloads = args.workload or ["remote-browse"]
    budget = (["--interactions", str(args.interactions)]
              if args.interactions is not None
              else ["--seconds", str(declared["run_seconds"])])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    if args.fixed_mmap:
        env["MALLOC_MMAP_THRESHOLD_"] = MMAP_THRESHOLD
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    bad = []
    with tempfile.TemporaryDirectory(prefix="e2e-pairs-") as tmp:
        roots = {"base": Path(tmp) / "base", "change": ROOT}
        roots["base"].mkdir()
        extract(args.base, str(roots["base"]))
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    out = Path(tmp) / f"{side}-{workload}-{seed}.json"
                    try:
                        result = run_once(roots[side], workload, seed,
                                          budget, out, env)
                    except RuntimeError as error:
                        print(f"e2e-pairs: {error}", file=sys.stderr)
                        return 1
                    if result["returncode"] or not result["correct"]:
                        bad.append(f"{side} {workload} seed {seed}")
                    runs[workload][side].append(result)
    for workload in workloads:
        report(workload, runs[workload], declared["end_to_end"])
    for run in bad:
        print(f"e2e-pairs: {run} reported incorrect outputs",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
