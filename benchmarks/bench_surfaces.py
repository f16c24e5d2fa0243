"""E11 — per-user UI surfaces: surface multiplexing vs shared broadcast.

PR 5 gives each resident their own UI surface (display + application)
multiplexed by one UniIntServer; the sessions on one surface share its
encode cache.  Two costs must hold simultaneously:

* **same-surface fast path preserved** — 8 sessions watching one surface
  still share one encode per rect, at the BENCH_MULTIUSER cost;
* **cross-surface isolation** — users on different surfaces stop paying
  for each other's frames: churn on one resident's view costs the server
  roughly the 1-user price and sends zero bytes to everyone else.

Workload (mirrors BENCH_MULTIUSER for comparability): 480x360 12-label
panel churn per round, 3 devices per resident, one proxy/session each.
Writes BENCH_SURFACES.json (before/after + workload + timing method).
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.bench_home_scale import (
    ServerCostMeter,
    _multiuser_home,
    _multiuser_round,
)
from repro import Home

#: view layout per config: each entry is one surface with that many users.
CONFIGS = {
    "same_surface": (8,),            # 1 surface x 8 sessions (PR 4 shape)
    "per_surface": (1,) * 8,         # 8 surfaces x 1 session
    "mixed": (4, 4),                 # 2 surfaces x 4 sessions
}

SMOKE_CONFIGS = {
    "same_surface": (2,),
    "per_surface": (1, 1),
    "mixed": (2, 1),
}

#: Alternating pairs behind each same-run gate: same-surface against the
#: PR 4 workload (the 1.1x gate), and isolated churn against same-surface.
GATE_PAIRS = 9


def _surface_home(groups):
    """A Home with one view per group; each group's users share it.

    Returns ``(home, view_labels)`` where ``view_labels[v]`` is the list
    of churnable labels installed on view ``v``'s window.
    """
    from repro.devices import RemoteControl, TvDisplay, VoiceInput
    from repro.toolkit import Column, Label

    home = Home(width=480, height=360)
    view_labels = []
    index = 0
    for group_size in groups:
        owner = None
        for seat in range(group_size):
            if index == 0:
                user = home.default_user
            elif seat == 0:
                user = home.add_user(f"user-{index}")
            else:
                user = home.add_user(f"user-{index}",
                                     view_of=owner.user_id)
            if seat == 0:
                owner = user
                column = Column()
                view_labels.append(
                    [column.add(Label(f"row {i}")) for i in range(12)])
                user.window.set_root(column)
            home.add_device(RemoteControl(f"remote-{index}", home.scheduler),
                            user=user.user_id, reselect=False)
            home.add_device(VoiceInput(f"mic-{index}", home.scheduler),
                            user=user.user_id, reselect=False)
            home.add_device(TvDisplay(f"panel-{index}", home.scheduler),
                            user=user.user_id)
            index += 1
    home.settle()
    for user in home.users.values():
        assert user.current_output is not None
    assert len(home.views) == len(groups)
    return home, view_labels


def _churn_round(home, view_labels, round_no: int,
                 only_view: int | None = None) -> None:
    """Rewrite every label of the selected views and settle the flush."""
    targets = (view_labels if only_view is None
               else [view_labels[only_view]])
    for labels in targets:
        for i, label in enumerate(labels):
            label.text = f"round {round_no} value {(round_no * 37 + i) % 997}"
    home.settle()


def _assert_converged(home) -> None:
    for user in home.users.values():
        assert user.session.upstream.framebuffer == user.display.framebuffer


def _cache_hits(home) -> int:
    """Encode-cache hits summed over the home's surfaces."""
    return sum(view.surface.encode_cache.hits for view in home.views)


def _timed_rounds(home, view_labels, counter, meter, repeats,
                  rounds_per_repeat, only_view=None):
    """(best end-to-end, best server cost) per churn round.

    ``meter`` must be the home's one ServerCostMeter — constructing a
    second would stack wrappers over the first and inflate the timings.
    """
    best_total = best_server = None
    for _ in range(repeats):
        meter.seconds = 0.0  # one meter; re-wrapping would stack
        start = time.perf_counter()
        for _ in range(rounds_per_repeat):
            _churn_round(home, view_labels, next(counter),
                         only_view=only_view)
        total = (time.perf_counter() - start) / rounds_per_repeat
        server = meter.seconds / rounds_per_repeat
        best_total = total if best_total is None else min(best_total, total)
        best_server = (server if best_server is None
                       else min(best_server, server))
    return best_total, best_server


def _paired_costs(sides, rounds):
    """Server cost per churn round of each side, over :data:`GATE_PAIRS`
    alternating pairs (the first side flipped every pair).

    ``sides`` maps a name to ``(meter, churn)``: the home's one
    ServerCostMeter and a callable that runs one churn round.  Two
    timings taken one after the other drift apart on a shared host by
    more than the gates' margins; a pair's two sides see the same load.
    """
    order = list(sides)
    pair_costs = []
    for _ in range(GATE_PAIRS):
        costs = {}
        for side in order:
            meter, churn = sides[side]
            meter.seconds = 0.0
            for _ in range(rounds):
                churn()
            costs[side] = meter.seconds / rounds
        pair_costs.append(costs)
        order.reverse()
    return pair_costs


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_surface_churn(benchmark, config, smoke):
    groups = (SMOKE_CONFIGS if smoke else CONFIGS)[config]
    home, view_labels = _surface_home(groups)
    meter = ServerCostMeter(home.uniint_server)
    rounds = itertools.count()

    benchmark(lambda: _churn_round(home, view_labels, next(rounds)))

    _assert_converged(home)
    benchmark.extra_info["config"] = config
    benchmark.extra_info["surfaces"] = len(groups)
    benchmark.extra_info["sessions"] = sum(groups)
    benchmark.extra_info["server_cost_s"] = meter.seconds
    benchmark.extra_info["encode_cache_hits"] = _cache_hits(home)


def test_cross_surface_churn_is_wire_silent(smoke):
    """Churn on one resident's view sends zero bytes to every session on
    every other surface (the isolation half of the tentpole)."""
    groups = SMOKE_CONFIGS["per_surface"] if smoke else CONFIGS["per_surface"]
    home, view_labels = _surface_home(groups)
    counter = itertools.count()
    _churn_round(home, view_labels, next(counter))  # warm-up, all views
    churner = home.views[0]
    others = [session for view in home.views[1:]
              for session in view.surface.sessions]
    assert others
    wire_before = [s.endpoint.stats.bytes_sent for s in others]
    for _ in range(3):
        _churn_round(home, view_labels, next(counter), only_view=0)
    assert [s.endpoint.stats.bytes_sent for s in others] == wire_before
    assert churner.surface.sessions[0].endpoint.stats.bytes_sent > 0
    _assert_converged(home)


def test_surface_multiplexing_scales_and_records(smoke, record_dir):
    """Same-surface broadcast must stay at the PR 4 cost (~1.1x of the
    BENCH_MULTIUSER baseline) while isolated per-surface churn costs
    roughly the single-user price; results land in BENCH_SURFACES.json."""
    configs = SMOKE_CONFIGS if smoke else CONFIGS
    repeats = 1 if smoke else 3
    rounds_per_repeat = 1 if smoke else 3
    results = {}
    homes = {}
    for config, groups in configs.items():
        home, view_labels = _surface_home(groups)
        counter = itertools.count()
        _churn_round(home, view_labels, next(counter))  # warm-up
        meter = ServerCostMeter(home.uniint_server)
        homes[config] = (home, view_labels, meter)
        total, server = _timed_rounds(home, view_labels, counter, meter,
                                      repeats, rounds_per_repeat)
        _assert_converged(home)
        results[config] = {
            "surfaces": len(groups),
            "sessions": sum(groups),
            "end_to_end_s": total,
            "server_cost_s": server,
            "encode_cache_hits": _cache_hits(home),
        }
    # isolated churn: one view of the per-surface home churns while the
    # other 7 surfaces (and their links) stay untouched (reusing that
    # home's meter — a fresh one would stack wrappers)
    home, view_labels, meter = homes["per_surface"]
    counter = itertools.count(1000)
    total, server = _timed_rounds(home, view_labels, counter, meter,
                                  repeats, rounds_per_repeat, only_view=0)
    results["isolated_churn"] = {
        "surfaces": results["per_surface"]["surfaces"],
        "churning_surfaces": 1,
        "end_to_end_s": total,
        "server_cost_s": server,
    }
    if smoke:  # harness validation only: no perf assertion, no record
        return
    # the same-surface fast path still shares encodes ...
    assert results["same_surface"]["encode_cache_hits"] > 0
    # ... and isolated churn in an 8-surface home costs the server less
    # than the 8-session broadcast of the same content (nobody else pays),
    # in the median of alternating pairs
    same_home, same_labels, same_meter = homes["same_surface"]
    same_counter = itertools.count(1000)

    def same_churn():
        _churn_round(same_home, same_labels, next(same_counter))

    isolated_costs = _paired_costs({
        "isolated_churn": (meter, lambda: _churn_round(
            home, view_labels, next(counter), only_view=0)),
        "same_surface": (same_meter, same_churn),
    }, rounds_per_repeat)
    isolated_ratios = [costs["isolated_churn"] / costs["same_surface"]
                       for costs in isolated_costs]
    isolated_ratio = statistics.median(isolated_ratios)
    assert isolated_ratio < 1, (
        f"isolated churn cost the server no less than the same-surface "
        f"broadcast: median pair ratio {isolated_ratio:.2f}x of "
        f"{[round(r, 2) for r in isolated_ratios]}")
    # the hard gate is machine-independent: run the PR 4 multiuser
    # workload (8 residents sharing one view, bench_home_scale E10) in
    # *this* process and require same-surface multiplexing to stay within
    # ~1.1x of it.  The two homes have the same shape, so they are timed
    # in alternating pairs and the median per-pair ratio is gated
    control_home, control_labels = _multiuser_home(8)
    control_counter = itertools.count()
    _multiuser_round(control_home, control_labels,
                     next(control_counter))  # warm-up
    control_meter = ServerCostMeter(control_home.uniint_server)
    pair_costs = _paired_costs({
        "same_surface": (same_meter, same_churn),
        "pr4_workload": (control_meter, lambda: _multiuser_round(
            control_home, control_labels, next(control_counter))),
    }, rounds_per_repeat)
    pair_ratios = [costs["same_surface"] / costs["pr4_workload"]
                   for costs in pair_costs]
    in_run_ratio = statistics.median(pair_ratios)
    control_cost = statistics.median(
        costs["pr4_workload"] for costs in pair_costs)
    assert in_run_ratio < 1.1, (
        f"same-surface broadcast regressed vs the PR 4 multiuser "
        f"workload measured in this run: median pair ratio "
        f"{in_run_ratio:.2f}x of {[round(r, 2) for r in pair_ratios]}")
    # the cross-run ratio against the committed PR 4 record is evidence,
    # not a gate (absolute timings are machine-dependent)
    baseline_path = (Path(__file__).resolve().parents[1]
                     / "BENCH_MULTIUSER.json")
    baseline_ratio = None
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        baseline_8 = baseline["server_cost_s"].get("8")
        if baseline_8:
            baseline_ratio = (results["same_surface"]["server_cost_s"]
                              / baseline_8)
    out_path = record_dir / "BENCH_SURFACES.json"
    out_path.write_text(json.dumps({
        "experiment": "per-user surface multiplexing: same-surface "
                      "broadcast vs independent per-user views",
        "workload": {
            "screen": "480x360, 12-label panel churn per round per view",
            "configs": {name: {"surfaces": len(groups),
                               "sessions": sum(groups)}
                        for name, groups in configs.items()},
            "devices_per_user": "IR remote + voice mic + personal TV panel "
                                "(3 each), one UniInt proxy/session per "
                                "user",
        },
        "timing_method": "wall-clock best-of-3 x 3 rounds "
                         "(time.perf_counter); server-side broadcast cost "
                         "via reentrancy-guarded timers around "
                         "_flush/surface._composite_and_distribute/"
                         "session._try_send; each same-run ratio is the "
                         f"median of {GATE_PAIRS} alternating pairs of 3 "
                         "rounds each, first side flipped every pair, "
                         "after one warm-up round each: isolated churn vs "
                         "the same-surface home, then the same-surface "
                         "home vs the PR 4 workload, whose cost is its "
                         "median over those pairs",
        "before": "PR 4: one shared UIWindow for every resident — "
                  "see BENCH_MULTIUSER.json (all sessions pay for every "
                  "frame; no per-user tabs/input)",
        "after": results,
        "pr4_workload_server_cost_s_same_run": control_cost,
        "same_surface_vs_pr4_workload_same_run_ratio": in_run_ratio,
        "same_surface_vs_pr4_workload_pair_ratios": pair_ratios,
        "isolated_churn_vs_same_surface_same_run_ratio": isolated_ratio,
        "isolated_churn_vs_same_surface_pair_ratios": isolated_ratios,
        "same_surface_vs_multiuser_baseline_ratio": baseline_ratio,
    }, indent=2) + "\n")
