"""One command for the end-to-end interaction benchmark.

    python3 benchmarks/e2e/run.py --seed 1 --out set.json    # full set
    python3 benchmarks/e2e/run.py --seed 1 --trace 1          # traced run
    python3 benchmarks/e2e/run.py --workload pda-tap --seed 3 --seconds 10

A full set is 4 rounds; each round runs one block of every workload in a
fixed order, each block in a fresh child interpreter started only after
the previous one exited.  ``--workload`` runs that workload's 4 blocks
alone; ``--seconds`` makes blocks measure for a share of that time
instead of a fixed number of interactions.  ``--trace 1`` runs one round
of an untraced and a traced block per workload and reports the
per-layer metrics of ``spans.py``.

Every metric is printed by name with its unit; the last line of output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output check failed and 2 when
the benchmark could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

ROUNDS = 4
#: Block size of a full set: measured interactions, or seconds of
#: arrivals for the open loop.
FULL_SET = {
    "pda-tap": {"interactions": 200},
    "remote-browse": {"interactions": 300},
    "phone-tap": {"interactions": 200},
    "hotplug": {"interactions": 150},
    "fleet-open": {"seconds": 5.0},
}
#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("interaction_p50_ms", "ms", "lower"),
    ("interaction_p90_ms", "ms", "lower"),
    ("interactions_per_cpu_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NaN when empty)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_child(spec: dict) -> dict:
    """Run one block in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{spec['workload']} block {spec['block']} "
                             f"ran over {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{spec['workload']} block {spec['block']} "
                             f"failed:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(blocks: list[dict]) -> tuple[dict, dict]:
    """``(end-to-end metrics, ungated detail)`` of untraced blocks.

    Wall and CPU times are the drift-normalised ones (see
    ``workloads.Probe``); the raw values are in the detail.
    """
    norm = [x for b in blocks for x in b["latency_norm_ms"]]
    raw = [x for b in blocks for x in b["latency_ms"]]
    completed = sum(b["attempted"] - b["failed"] for b in blocks)
    metrics = {
        "setup_s": statistics.median(x for b in blocks
                                     for x in b["setup_norm_s"]),
        "interaction_p50_ms": percentile(norm, 50),
        "interaction_p90_ms": percentile(norm, 90),
        "interactions_per_cpu_s": completed / sum(b["cpu_norm_s"]
                                                  for b in blocks),
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in blocks),
    }
    attempted = sum(b["attempted"] for b in blocks)
    link_bytes = sum(b["counters"]["link_bytes"] for b in blocks)
    bearer = blocks[0]["bearer"]
    detail = {
        "samples": len(raw),
        "failed_ratio": sum(b["failed"] for b in blocks) / attempted,
        "probe_ms": statistics.median(b["probe_ms"] for b in blocks),
        "raw": {
            "setup_s": statistics.median(x for b in blocks
                                         for x in b["setup_s"]),
            "interaction_p50_ms": percentile(raw, 50),
            "interaction_p90_ms": percentile(raw, 90),
            "interactions_per_cpu_s": completed / sum(b["cpu_s"]
                                                      for b in blocks),
        },
        "devices.bearer_ms": (link_bytes / attempted * 8e3
                              / bearer["bandwidth_bps"]
                              + bearer["latency_s"] * 1e3),
    }
    virtual = [x for b in blocks for x in b["virtual_ms"]]
    if virtual:
        detail["virtual_p50_ms"] = percentile(virtual, 50)
        detail["virtual_p95_ms"] = percentile(virtual, 95)
    lag = [x for b in blocks for x in b.get("lag_ms", ())]
    if lag:
        detail["generator_lag_p95_ms"] = percentile(lag, 95)
    return metrics, detail


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics, per measured interaction, of one traced block
    (times normalised like the end-to-end ones)."""
    n = traced["attempted"]
    scale = 1e3 * traced["factor"] / n
    self_s, calls = traced["self_s"], traced["calls"]
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer.name}.self_ms"] = self_s.get(layer.name, 0.0) * scale
        if layer.calls:
            metrics[f"{layer.name}.calls"] = calls.get(layer.name, 0) / n
    metrics["net.reactor.turns"] = calls.get("net.reactor.turn", 0) / n
    counters = traced["counters"]
    for metric in spans.COUNTER_METRICS:
        if metric.counter:
            metrics[metric.name] = counters[metric.counter] / n
    checked = counters["tiles_checked"]
    metrics["server.tile_drop_ratio"] = (counters["tiles_dropped"] / checked
                                         if checked else 0.0)
    covered = sum(self_s.values())
    metrics["trace.unattributed_ms"] = ((traced["busy_s"] - covered)
                                        * scale)
    metrics["trace.coverage"] = covered / traced["busy_s"]
    metrics["trace.overhead_ratio"] = (
        percentile(traced["latency_norm_ms"], 50)
        / percentile(untraced["latency_norm_ms"], 50))
    return metrics


def environment(blocks: list[dict]) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or rev
        if subprocess.run(git + ["status", "--porcelain"],
                          capture_output=True, text=True).stdout.strip():
            rev += "+uncommitted"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "probe_ms": statistics.median(b["probe_ms"] for b in blocks),
        "probe_ref_ms": blocks[0]["probe_ref_ms"],
    }


def block_summary(block: dict) -> dict:
    """A block's result without its per-interaction lists."""
    summary = {k: v for k, v in block.items()
               if k not in ("latency_ms", "latency_norm_ms", "virtual_ms",
                            "lag_ms")}
    summary["p50_ms"] = percentile(block["latency_ms"], 50)
    summary["p50_norm_ms"] = percentile(block["latency_norm_ms"], 50)
    return summary


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end interaction benchmark (see README.md).")
    parser.add_argument("--workload", action="append",
                        choices=spans.ALL_WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float,
                        help="measure each workload for this long, "
                             "split across its blocks")
    budget.add_argument("--interactions", type=int,
                        help="measured interactions per block")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", type=Path,
                        help="record file (default: a new temp dir under "
                             "benchmarks/e2e/.runs)")
    return parser.parse_args(argv)


def plan(args) -> list[dict]:
    """Block specs in run order."""
    rounds = 1 if args.trace else ROUNDS
    traces = (False, True) if args.trace else (False,)
    specs = []
    for block in range(rounds):
        for name in args.workload or spans.ALL_WORKLOADS:
            for trace in traces:
                if args.interactions is not None:
                    budget = {"interactions": args.interactions}
                elif args.seconds is not None:
                    budget = {"seconds": args.seconds
                                         / (rounds * len(traces))}
                else:
                    budget = FULL_SET[name]
                specs.append({"workload": name, "seed": args.seed,
                              "block": block, "trace": trace, **budget})
    return specs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out = args.out
    if out is None:
        (HERE / ".runs").mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".runs")) \
            / "record.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[dict]] = {}
    try:
        for spec in plan(args):
            if spec["trace"]:
                spec["spans_path"] = str(
                    out.parent / f"{out.stem}-spans-{spec['workload']}"
                                 f".jsonl.gz")
            results.setdefault(spec["workload"], []).append(run_child(spec))
    except BenchmarkError as error:
        print(f"e2e: {error}", file=sys.stderr)
        return 2

    all_blocks = [b for blocks in results.values() for b in blocks]
    errors = [e for b in all_blocks for e in b["errors"]]
    attempted = sum(b["attempted"] for b in all_blocks)
    failed = sum(b["failed"] for b in all_blocks)
    record = {"benchmark": "benchmarks/e2e", "seed": args.seed,
              "trace": args.trace, "env": environment(all_blocks),
              "workloads": {}}
    metrics_out = {}
    single = len(results) == 1
    for name, blocks in results.items():
        untraced = [b for b in blocks if not b["trace"]]
        e2e, detail = summarise(untraced)
        entry = {"end_to_end": e2e, "detail": detail,
                 "blocks": [block_summary(b) for b in blocks]}
        print(f"{name}: {len(blocks)} blocks, {detail['samples']} "
              f"interactions measured, {detail['failed_ratio']:.4f} failed")
        if args.trace:
            traced = next(b for b in blocks if b["trace"])
            layers = entry["per_layer"] = layer_metrics(untraced[0], traced)
            shown = [(m.name, layers[m.name], m.unit)
                     for m in spans.per_layer()]
        else:
            shown = [(metric, e2e[metric], unit)
                     for metric, unit, _ in END_TO_END]
        for metric, value, unit in shown:
            print(f"  {metric:32s} {value:14.4f} {unit}")
            key = metric if single else f"{name}.{metric}"
            metrics_out[key] = {"value": value, "unit": unit}
        for metric, value in detail.items():
            if isinstance(value, float):
                print(f"  {metric + ' (not gated)':32s} {value:14.4f}")
        record["workloads"][name] = entry
    for error in errors:
        print(f"e2e: check failed: {error}", file=sys.stderr)
    correct = not errors and failed == 0
    record["correct"] = correct
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {out}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
