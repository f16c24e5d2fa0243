"""Self-test of the e2e benchmark, always at smoke size.

Picked up by the ``bench-smoke`` CI job (``pytest benchmarks --smoke``);
blocks run in-process with a handful of measured interactions.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = 3


@functools.lru_cache(maxsize=None)
def block(name: str, trace: bool = False, seed: int = 1,
          repeat: int = 0) -> dict:
    """One smoke block; ``repeat`` asks for a fresh run of the same spec."""
    return workloads.run_block({"workload": name, "seed": seed, "block": 0,
                                "trace": trace, "interactions": SMOKE})


def deterministic(result: dict) -> dict:
    """What the simulated clock and the program's counters fix exactly."""
    return {"virtual_ms": result["virtual_ms"],
            "counters": result["counters"],
            "attempted": result["attempted"]}


def test_benchmark_json_agrees_with_the_tables():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        spans.ALL_WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spans.per_layer()]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pda-tap",
         "--seed", "1", "--interactions", "2", "--trace", str(trace),
         "--out", str(tmp_path / "record.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]]
                   and line.endswith(" " + metric["unit"])
                   for line in lines), metric["name"]
    assert (tmp_path / "record.json").exists()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "pda-tap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _attributes():
    return {target: vars(owner).get(attribute)
            for layer in spans.LAYERS for target in layer.targets
            for owner, attribute in [spans.resolve(target)]}


def test_wrapped_attributes_are_restored():
    before = _attributes()
    block("pda-tap", trace=True)
    assert _attributes() == before
    with pytest.raises(RuntimeError):
        with spans.traced(spans.SpanRecorder()):
            assert _attributes() != before
            raise RuntimeError("block failed")
    assert _attributes() == before


@pytest.mark.parametrize("name", spans.ALL_WORKLOADS)
def test_each_wrap_point_fires_where_the_table_says(name):
    calls = block(name, trace=True)["calls"]
    silent = [layer.name for layer in spans.LAYERS
              if name in layer.fires_on and not calls.get(layer.name)]
    assert not silent


@pytest.mark.parametrize("name", spans.CLOSED_LOOPS)
def test_deterministic_counts_repeat(name):
    first, again = block(name), block(name, repeat=1)
    traced, traced_again = (block(name, trace=True),
                            block(name, trace=True, repeat=1))
    assert first["failed"] == 0 and not first["errors"]
    assert deterministic(first) == deterministic(again) == deterministic(
        traced) == deterministic(traced_again)
    assert traced["calls"] == traced_again["calls"]


@pytest.mark.parametrize("name", spans.ALL_WORKLOADS)
def test_a_different_seed_changes_the_inputs(name):
    def inputs(seed):
        return list(islice(workloads.WORKLOADS[name](seed, 0).inputs(), 40))

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)
