"""The benchmark records at the repo root are full-workload runs.

README and CHANGES.md quote the root ``BENCH_*.json`` records, so none of
them may come from a ``--smoke`` run: those shrink the workload and write
their records to the gitignored ``benchmarks/.smoke/`` instead.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _smoke_flags(node):
    """Every value of a ``smoke`` key anywhere in a JSON tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "smoke":
                yield value
            yield from _smoke_flags(value)
    elif isinstance(node, list):
        for item in node:
            yield from _smoke_flags(item)


def test_no_root_record_is_a_smoke_run():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    smoke = [path.name for path in records
             if any(flag is True for flag in
                    _smoke_flags(json.loads(path.read_text())))]
    assert smoke == []
