"""E10 — many-home fleet capacity and per-home isolation.

Workload: N complete homes in one process, each with its own virtual-time
scheduler, real TCP listener, UIP session (PDA client) and one appliance,
all multiplexed by a single ``selectors`` reactor.  A *churn round*
toggles every home's lamp at once and measures, per home, the wall-clock
latency from the toggle to that home's client pushing the resulting frame
to its output device — the full pipeline (DDI redraw → damage → encode →
real TCP → decode → device push) under fleet-wide contention.

Metrics (recorded to ``BENCH_FLEET.json``; smoke runs write a flagged
record to ``benchmarks/.smoke/``, because the isolation acceptance rides
on the recorded numbers):

* p50/p99 frame latency across homes × rounds, healthy fleet,
* the same with **one home stalled** in a self-perpetuating event storm —
  the reactor's per-turn event budget must keep the other homes' p99
  within 2× the unstalled baseline (per-home isolation),
* homes/core: how many 1-update-per-second homes one core sustains at
  the measured per-round cost.
"""

from __future__ import annotations

import json
import time

from repro import HomeFleet
from repro.appliances import DimmableLight
from repro.devices import Pda
from repro.havi.fcm import FcmType


def _build_fleet(n_homes: int) -> HomeFleet:
    fleet = HomeFleet()
    for i in range(n_homes):
        home = fleet.add_home(f"h{i}", width=160, height=120)
        home.add_appliance(DimmableLight(f"lamp-{i}"))
        home.add_device(Pda(f"pda-{i}", home.scheduler))
    fleet.settle()
    assert all(h.server_session.ready for h in fleet)
    return fleet


def _toggle(home):
    lamp = next(iter(home.appliances.values()))
    lamp.dcm.fcm_by_type(FcmType.LIGHT).invoke_local("power.toggle")


def _churn_round(fleet: HomeFleet, homes) -> dict[str, float]:
    """Toggle every home's lamp; per home, wall seconds until its client
    pushed the resulting frame.  Crossing times are sampled inside the
    reactor's run_until predicate, once per turn."""
    baseline = {h.name: h.session.frames_pushed for h in homes}
    latencies: dict[str, float] = {}
    start = time.perf_counter()
    for home in homes:
        _toggle(home)

    def all_painted() -> bool:
        now = time.perf_counter()
        for home in homes:
            if (home.name not in latencies
                    and home.session.frames_pushed > baseline[home.name]):
                latencies[home.name] = now - start
        return len(latencies) == len(homes)

    assert fleet.run_until(all_painted, timeout_s=60.0), (
        f"round did not complete: {len(latencies)}/{len(homes)} homes "
        f"painted")
    return latencies


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _run_rounds(fleet: HomeFleet, homes, rounds: int) -> dict:
    wall_start = time.perf_counter()
    samples: list[float] = []
    for _ in range(rounds):
        samples.extend(_churn_round(fleet, homes).values())
    wall = time.perf_counter() - wall_start
    per_round = wall / rounds
    return {
        "rounds": rounds,
        "homes_measured": len(homes),
        "p50_frame_latency_s": _percentile(samples, 0.50),
        "p99_frame_latency_s": _percentile(samples, 0.99),
        "max_frame_latency_s": max(samples),
        "wall_s_per_round": per_round,
        # at a nominal 1 update/s per home, one core sustains this many
        # homes at the measured per-home round cost
        "homes_per_core_at_1hz": len(homes) / per_round,
    }


def test_fleet_churn_capacity_and_stall_isolation(smoke, record_dir):
    n_homes = 64 if smoke else 128
    rounds = 3 if smoke else 10

    fleet = _build_fleet(n_homes)
    try:
        all_homes = list(fleet)
        # warm-up: first paint includes lazy caches and page faults
        _churn_round(fleet, all_homes)

        healthy = _run_rounds(fleet, all_homes, rounds)

        # stall one home: a self-perpetuating event storm that the
        # per-turn budget must contain.  Its siblings are re-measured.
        stalled = fleet.home("h0")

        def storm():
            stalled.scheduler.call_soon(storm)

        stalled.scheduler.call_soon(storm)
        siblings = [h for h in all_homes if h is not stalled]
        under_stall = _run_rounds(fleet, siblings, rounds)

        assert not stalled.reactor_member.failed, \
            "a storming home is throttled, not quarantined"
        # the isolation acceptance: one runaway tenant may not blow up
        # its neighbours' tail latency (small additive cushion absorbs
        # scheduler-timer noise on loaded CI runners)
        budget = 2.0 * healthy["p99_frame_latency_s"] + 0.05
        assert under_stall["p99_frame_latency_s"] <= budget, (
            f"sibling p99 {under_stall['p99_frame_latency_s']:.4f}s "
            f"exceeds isolation budget {budget:.4f}s "
            f"(healthy p99 {healthy['p99_frame_latency_s']:.4f}s)")

        out_path = record_dir / "BENCH_FLEET.json"
        out_path.write_text(json.dumps({
            "experiment": "many-home fleet reactor: capacity and "
                          "per-home stall isolation",
            "workload": {
                "homes": n_homes,
                "screen": "160x120 per home, 1 appliance, 1 PDA client "
                          "over a real TCP loopback socket per home",
                "churn_round": "toggle every home's lamp, wait for "
                               "every client's frame push",
                "stall": "one home in a self-perpetuating call_soon "
                         "storm, budget-throttled by the reactor",
                "smoke": bool(smoke),
            },
            "timing_method": "wall-clock (time.perf_counter) from toggle "
                             "to client frame push, sampled once per "
                             "reactor turn; percentiles over "
                             "homes x rounds",
            "healthy": healthy,
            "one_home_stalled": under_stall,
            "isolation": {
                "p99_ratio_stalled_vs_healthy": (
                    under_stall["p99_frame_latency_s"]
                    / max(healthy["p99_frame_latency_s"], 1e-9)),
                "budget": "p99(stalled siblings) <= 2x p99(healthy) "
                          "+ 50 ms cushion",
                "stalled_home_events_fired":
                    stalled.reactor_member.events_fired,
            },
        }, indent=2) + "\n")
    finally:
        fleet.close()
