"""E11 — self-healing under the standard fault schedule.

Workload: the chaos acceptance scenario at benchmark scale.  A 32-home
TCP fleet (one reactor, one PDA client + one lamp per home) is subjected
to the seeded storm from ``tests/integration/test_chaos.py`` — hard RSTs
on session upstreams, 2-second partitions, 30% frame drops on device
legs, device-leg resets and one crashed home — and must heal completely.
Then repeated RST rounds measure the wall-clock reconnect distribution:
from the reset to the session being ready again on a fresh redial
(handshake, SetEncodings and one full-frame resync), sampled once per
reactor turn.

Metrics (recorded to ``BENCH_RESILIENCE.json``; smoke runs write a
flagged record to ``benchmarks/.smoke/``, because the healing acceptance
rides on the recorded numbers):

* storm outcome: sessions reconnected, resyncs per reconnect (must be
  exactly 1), device-leg redials, dropped frames, permanent losses (0),
* reconnect wall latency p50/p99 across homes × rounds,
* a crash-looping home driven into its restart cap, with the recorded
  permanent-failure reason.
"""

from __future__ import annotations

import json
import random
import time

from repro import HomeFleet
from repro.appliances import DimmableLight
from repro.devices import Pda
from repro.net import FaultInjector, FaultPlan, FaultyTransport

SEED = 20020
HEARTBEAT_S = 0.25
STALL_S = 2.0


def _populate(home, tag):
    home.add_appliance(DimmableLight(f"lamp-{tag}"))
    home.add_device(Pda(f"pda-{tag}", home.scheduler))
    return home


def _build_fleet(n_homes: int) -> HomeFleet:
    fleet = HomeFleet()
    for i in range(n_homes):
        _populate(fleet.add_home(f"h{i:02d}", width=120, height=90,
                                 resilience=True,
                                 heartbeat_s=HEARTBEAT_S), i)
    fleet.settle()
    assert all(h.server_session.ready for h in fleet)
    return fleet


def _sole_device(home):
    return next(iter(home.devices.values()))


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _run_storm(fleet: HomeFleet, n_homes: int) -> dict:
    """The standard fault schedule; returns the healing scorecard."""
    rng = random.Random(SEED)
    chaos = FaultInjector()
    homes = [fleet.home(f"h{i:02d}") for i in range(n_homes)]
    rng.shuffle(homes)
    n_rst = max(2, n_homes // 5)
    n_stall = max(1, n_homes // 8)
    n_drop = max(1, n_homes // 5)
    n_leg = max(1, n_homes // 8)
    rst_homes = homes[:n_rst]
    stall_homes = homes[n_rst:n_rst + n_stall]
    rest = homes[n_rst + n_stall:]
    drop_homes = rest[:n_drop]
    leg_homes = rest[n_drop:n_drop + n_leg]
    crashed = rest[n_drop + n_leg]

    fleet.enable_supervision(max_restarts=3, rebuild=lambda f, name, h:
                             _populate(h, name))
    for home in rst_homes:
        chaos.rst(home.session.upstream.endpoint)
    for home in stall_homes:
        chaos.partition_home(home, seconds=STALL_S)
        pda = _sole_device(home)
        for k in range(5):  # taps wake the heartbeats during the blackout
            home.scheduler.call_later(0.3 * (k + 1),
                                      lambda p=pda: p.tap(10, 10))
    drop_wrappers = []
    for home in drop_homes:
        pair = _sole_device(home)._pairs[home.proxy.proxy_id]
        pair.a = FaultyTransport(pair.a, FaultPlan(seed=SEED, drop=0.3),
                                 home.scheduler)
        drop_wrappers.append(pair.a)
    for home in leg_homes:
        chaos.rst(_sole_device(home).endpoint_for(home.proxy.proxy_id))
    chaos.crash_home(crashed, reason="injected appliance crash")

    wall_start = time.perf_counter()
    fleet.settle()
    for home in drop_homes:  # loss degrades, must not disconnect
        for _ in range(20):
            _sole_device(home).tap(10, 10)
    fleet.settle()
    restarted = fleet.supervise()
    fleet.settle()
    wall = time.perf_counter() - wall_start

    reconnected = rst_homes + stall_homes
    resyncs = [h.session.upstream.updates_received for h in reconnected]
    assert all(h.session.upstream.ready for h in fleet)
    assert all(n == 1 for n in resyncs), \
        "every reconnect must cost exactly one full-frame resync"
    assert restarted == [crashed.name]
    return {
        "homes": n_homes,
        "schedule": {
            "session_rsts": n_rst,
            "partitions_2s": n_stall,
            "device_legs_at_30pct_drop": n_drop,
            "device_leg_rsts": n_leg,
            "home_crashes": 1,
        },
        "sessions_reconnected": sum(
            h.session.resilience.reconnect_count for h in reconnected),
        "resyncs_per_reconnect": 1.0,
        "device_leg_redials": sum(
            _sole_device(h).link_reconnects for h in leg_homes),
        "device_frames_dropped": sum(
            w.frames_dropped for w in drop_wrappers),
        "homes_restarted_by_supervisor": restarted,
        "sessions_lost_permanently": sum(
            1 for h in fleet if h.session.resilience.failed_permanently),
        "heal_wall_s": wall,
    }


def _reconnect_round(fleet: HomeFleet, homes) -> dict[str, float]:
    """RST every session at once; per home, wall seconds until it is
    ready again on a fresh redial, with its reconnect counted."""
    baseline = {h.name: h.session.resilience.reconnect_count for h in homes}
    latencies: dict[str, float] = {}
    start = time.perf_counter()
    for home in homes:
        home.session.upstream.endpoint.abort()

    def all_back() -> bool:
        now = time.perf_counter()
        for home in homes:
            resilience = home.session.resilience
            if (home.name not in latencies
                    and resilience.reconnect_count > baseline[home.name]
                    and home.session.upstream.ready):
                latencies[home.name] = now - start
        return len(latencies) == len(homes)

    assert fleet.run_until(all_back, timeout_s=60.0), (
        f"reconnect round incomplete: {len(latencies)}/{len(homes)}")
    return latencies


def _run_reconnect_rounds(fleet: HomeFleet, rounds: int) -> dict:
    homes = list(fleet)
    samples: list[float] = []
    wall_start = time.perf_counter()
    for _ in range(rounds):
        samples.extend(_reconnect_round(fleet, homes).values())
        fleet.settle()
    wall = time.perf_counter() - wall_start
    assert all(h.session.upstream.updates_received == 1 for h in homes)
    return {
        "rounds": rounds,
        "homes": len(homes),
        "p50_reconnect_s": _percentile(samples, 0.50),
        "p99_reconnect_s": _percentile(samples, 0.99),
        "max_reconnect_s": max(samples),
        "wall_s_total": wall,
    }


def _run_crash_loop() -> dict:
    """A home that re-crashes on every resurrection until the budget."""
    fleet = HomeFleet()
    _populate(fleet.add_home("flaky", resilience=True), "flaky")
    chaos = FaultInjector()
    fleet.settle()

    def rebuild(f, name, home):
        _populate(home, name)
        chaos.crash_home(home, reason="still broken")

    fleet.enable_supervision(max_restarts=2, rebuild=rebuild)
    chaos.crash_home(fleet.home("flaky"), reason="still broken")
    fleet.settle()
    sweeps = 0
    while fleet.supervise():
        fleet.settle()
        sweeps += 1
        assert sweeps <= 10, "supervision must converge"
    record = fleet.failure_of("flaky")
    assert record.permanent and record.restarts == 2
    fleet.close()
    return {
        "max_restarts": 2,
        "restarts_spent": record.restarts,
        "crashes_observed": len(record.errors),
        "permanent": record.permanent,
        "reason": record.reason,
    }


def test_resilience_heal_and_reconnect_distribution(smoke, record_dir):
    n_homes = 8 if smoke else 32
    rounds = 2 if smoke else 5

    fleet = _build_fleet(n_homes)
    try:
        storm = _run_storm(fleet, n_homes)
        assert storm["sessions_lost_permanently"] == 0
        reconnect = _run_reconnect_rounds(fleet, rounds)
    finally:
        fleet.close()
    crash_loop = _run_crash_loop()

    out = record_dir / "BENCH_RESILIENCE.json"
    out.write_text(json.dumps({
        "experiment": "fault-injection storm healing and session "
                      "reconnect distribution",
        "workload": {
            "homes": n_homes,
            "screen": "120x90 per home, 1 lamp, 1 PDA client over a "
                      "real TCP loopback socket per home",
            "storm": "seeded schedule: session RSTs + 2s partitions + "
                     "30% device-leg frame drops + device-leg RSTs + "
                     "one crashed home (supervisor restart)",
            "reconnect_round": "RST every session's upstream at once, "
                               "wait for each redial (handshake, "
                               "SetEncodings and one full-frame resync)",
            "heartbeat_s": HEARTBEAT_S,
            "smoke": bool(smoke),
        },
        "timing_method": "wall-clock (time.perf_counter) from RST to "
                         "ready redialed session, sampled once per "
                         "reactor turn; percentiles over homes x rounds",
        "storm": storm,
        "reconnect": reconnect,
        "crash_loop": crash_loop,
    }, indent=2) + "\n")
