"""Experiment report generator.

Turns a ``pytest benchmarks/ --benchmark-only --benchmark-json=FILE`` dump
into the per-experiment tables recorded in EXPERIMENTS.md:

.. code-block:: console

   $ pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
   $ python -m repro.tools.report bench.json

Benchmarks are grouped by source file (one file per experiment); each row
shows the timing mean plus every ``extra_info`` metric the benchmark
attached (bytes, ratios, modelled latencies).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict

#: Experiment titles keyed by benchmark file stem.
EXPERIMENT_TITLES = {
    "bench_encodings": "E1 - thin-client encodings on panel frames",
    "bench_transforms": "E2 - output plug-in adaptation per device",
    "bench_input_plugins": "E3 - input plug-in translation throughput",
    "bench_end_to_end": "E4 - end-to-end interaction latency",
    "bench_switching": "E5 - dynamic device switching",
    "bench_home_scale": "E6 - uniform control at scale",
    "bench_bandwidth": "E7 - session bandwidth per device class",
    "bench_ddi_vs_uip": "E9 - DDI (semantic) vs universal (pixels)",
    "bench_ablations": "Ablations A1-A3 - design choices",
}


def _format_time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def _short_name(fullname: str) -> str:
    name = fullname.split("::")[-1]
    return name.removeprefix("test_")


def group_benchmarks(data: dict) -> "OrderedDict[str, list]":
    """Benchmarks grouped by experiment file, in E-number order."""
    groups: "OrderedDict[str, list]" = OrderedDict(
        (stem, []) for stem in EXPERIMENT_TITLES)
    for bench in data.get("benchmarks", []):
        stem = bench["fullname"].split("::")[0]
        stem = stem.rsplit("/", 1)[-1].removesuffix(".py")
        groups.setdefault(stem, []).append(bench)
    return OrderedDict((k, v) for k, v in groups.items() if v)


def render_report(data: dict) -> str:
    """The full report as text."""
    lines: list[str] = []
    machine = data.get("machine_info", {})
    lines.append("UNIVERSAL INTERACTION - EXPERIMENT REPORT")
    lines.append(f"python {machine.get('python_version', '?')} on "
                 f"{machine.get('machine', '?')}")
    for stem, benches in group_benchmarks(data).items():
        title = EXPERIMENT_TITLES.get(stem, stem)
        lines.append("")
        lines.append(title)
        lines.append("-" * len(title))
        for bench in sorted(benches, key=lambda b: b["fullname"]):
            mean = _format_time(bench["stats"]["mean"])
            extras = bench.get("extra_info", {})
            extra_text = "  ".join(
                f"{key}={value}" for key, value in sorted(extras.items()))
            lines.append(f"  {_short_name(bench['fullname']):<48} "
                         f"{mean:>10}  {extra_text}")
    lines.append("")
    lines.append(f"total benchmarks: "
                 f"{len(data.get('benchmarks', []))}")
    return "\n".join(lines)


def render_command_journal(log, limit: int = 40) -> str:
    """The per-home command journal as a text table.

    ``log`` is a :class:`repro.app.commands.CommandLog` (e.g.
    ``home.command_log``); ``limit`` caps the rows to the most recent
    commands still in the ring.  Counters always cover the full history.
    """
    stats = log.stats()
    lines: list[str] = []
    lines.append("HOME COMMAND JOURNAL")
    terminal = "  ".join(f"{state}={count}" for state, count
                         in sorted(stats["terminal"].items()))
    origins = "  ".join(f"{origin}={count}" for origin, count
                        in sorted(stats["by_origin"].items()))
    lines.append(f"submitted: {stats['submitted']}  ({terminal})")
    lines.append(f"origins:   {origins or '(none)'}")
    lines.append(f"{'id':>5} {'origin':<7} {'opcode':<18} "
                 f"{'state':<10} {'status':<12} latency")
    rows = list(log)[-limit:]
    for command in rows:
        row = command.describe()
        latency = ("-" if row["latency_s"] is None
                   else _format_time(row["latency_s"]))
        lines.append(f"{row['id']:>5} {row['origin']:<7} "
                     f"{row['opcode']:<18} {row['state']:<10} "
                     f"{row['status'] or '-':<12} {latency}")
    if len(log) > limit:
        lines.append(f"  ... {len(log) - limit} older in ring, "
                     f"{stats['submitted'] - len(log)} rotated out")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render EXPERIMENTS-style tables from a "
                    "pytest-benchmark JSON dump.")
    parser.add_argument("json_file", help="output of --benchmark-json")
    args = parser.parse_args(argv)
    try:
        with open(args.json_file) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read {args.json_file}: {error}", file=sys.stderr)
        return 1
    print(render_report(data))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
