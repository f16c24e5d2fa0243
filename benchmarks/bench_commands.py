"""E11 — command-spine dispatch overhead and churn throughput.

The unified command spine claims actuation tracking is *free* where it
matters: an actuation driven through the spine (journaled, timeout-
guarded, coalescible) must cost no more than 1.05x the bare
``send_request`` dispatch it replaced, measured on the real actuation
path — a full home, application attached, state events fanning back into
live widgets.

Two scales are recorded:

* **home round trip** (the asserted one) — wall-clock for one actuation
  through a real home: widget-layer command, FCM handler, ``fcm.state``
  event fan-out, panel refresh.  Spine vs direct must be ≤1.05x.
* **bus floor** (recorded, not asserted) — the same comparison against a
  bare echo element with no application attached.  This isolates the
  spine's absolute per-command cost in microseconds; a fixed tracking
  cost that is invisible on the real path is by design visible here.
* **churn throughput** — commands/second with 8 concurrent users
  hammering ``volume.set`` bursts at one appliance, plus the coalescing
  the spine buys on that workload.

Records to ``BENCH_COMMANDS.json`` (written in smoke runs too, so CI
keeps the record fresh and asserts the overhead budget).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import Home
from repro.app.commands import CommandSpine
from repro.appliances import Television
from repro.havi import FcmType, SEID, SoftwareElement
from repro.havi.messaging import MessageSystem
from repro.util import Scheduler
from repro.util.ids import guid_from_seed

OVERHEAD_BUDGET = 1.05
USERS = 8


class EchoFcm(SoftwareElement):
    def __init__(self, seid, messaging):
        super().__init__(seid, messaging)
        self.handled = 0

    def handle_request(self, message):
        self.handled += 1
        self.reply(message, {"echo": True})


# -- home round trip (the asserted comparison) ------------------------------


def _home_rig():
    home = Home()
    tv = Television("TV")
    home.add_appliance(tv)
    home.settle()
    tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
    tuner.invoke_local("power.set", {"on": True})
    home.settle()
    return home, home.app.handle_for("TV", "tuner")


def _home_direct(commands: int) -> float:
    """N direct send_request actuations in a full home (pre-spine path)."""
    home, handle = _home_rig()
    replies = []
    start = time.perf_counter()
    for i in range(commands):
        handle.app.send_request(handle.seid, "volume.set",
                                {"volume": i % 100},
                                on_reply=replies.append)
        home.settle()
    elapsed = time.perf_counter() - start
    assert len(replies) == commands
    assert replies[-1].status == "SUCCESS"
    return elapsed


def _home_spine(commands: int) -> float:
    """N tracked actuations through the handle's spine, same home."""
    home, handle = _home_rig()
    replies = []
    start = time.perf_counter()
    for i in range(commands):
        handle.command("volume.set", {"volume": i % 100},
                       on_reply=replies.append, origin="widget")
        home.settle()
    elapsed = time.perf_counter() - start
    assert len(replies) == commands
    stats = home.command_log.stats()
    assert stats["terminal"]["done"] >= commands
    return elapsed


# -- bus floor (recorded, not asserted) -------------------------------------


def _bus_rig(users: int = 1):
    scheduler = Scheduler()
    messaging = MessageSystem(scheduler)
    requesters = []
    for i in range(users):
        element = SoftwareElement(
            SEID(guid_from_seed(f"bench-user-{i}"), 0), messaging)
        element.attach()
        requesters.append(element)
    fcm = EchoFcm(SEID(guid_from_seed("bench-fcm"), 1), messaging)
    fcm.attach()
    return scheduler, requesters, fcm


def _bus_direct(commands: int) -> float:
    scheduler, (requester,), fcm = _bus_rig()
    replies = []
    start = time.perf_counter()
    for i in range(commands):
        requester.send_request(fcm.seid, "volume.set", {"volume": i % 100},
                               on_reply=replies.append)
        scheduler.run_until_idle()
    elapsed = time.perf_counter() - start
    assert len(replies) == commands
    return elapsed


def _bus_spine(commands: int) -> float:
    scheduler, (requester,), fcm = _bus_rig()
    spine = CommandSpine(requester)
    replies = []
    start = time.perf_counter()
    for i in range(commands):
        spine.submit(fcm.seid, "volume.set", {"volume": i % 100},
                     on_reply=replies.append)
        scheduler.run_until_idle()
    elapsed = time.perf_counter() - start
    assert len(replies) == commands
    assert spine.log.stats()["terminal"]["done"] == commands
    return elapsed


def _churn_throughput(bursts: int):
    """8 users bursting coalescible writes at one appliance."""
    scheduler, requesters, fcm = _bus_rig(USERS)
    spines = [CommandSpine(r) for r in requesters]
    submitted = 0
    start = time.perf_counter()
    for burst in range(bursts):
        for user, spine in enumerate(spines):
            for value in range(4):  # a twisty slider: 4 writes per burst
                spine.submit(fcm.seid, "volume.set",
                             {"volume": (burst + user + value) % 100})
                submitted += 1
        scheduler.run_until_idle()
    elapsed = time.perf_counter() - start
    coalesced = sum(s.coalesced for s in spines)
    dispatched = sum(s.dispatched for s in spines)
    for spine in spines:
        stats = spine.log.stats()
        assert sum(stats["terminal"].values()) == stats["submitted"]
    return {
        "users": USERS,
        "bursts": bursts,
        "commands_submitted": submitted,
        "commands_per_s": submitted / max(elapsed, 1e-9),
        "wire_requests": fcm.handled,
        "dispatched": dispatched,
        "coalesced": coalesced,
        "coalesce_ratio": coalesced / max(submitted, 1),
    }


def _best_of_interleaved(direct, spine, commands: int, rounds: int):
    """Best-of-``rounds`` for both sides, run direct, spine, direct, ...

    Interleaving makes host speed drift hit both sides alike; running
    all direct rounds first let it land on one side only.
    """
    direct_s, spine_s = [], []
    for _ in range(rounds):
        direct_s.append(direct(commands))
        spine_s.append(spine(commands))
    return min(direct_s), min(spine_s)


def test_command_spine_overhead_and_throughput(smoke):
    home_commands = 40 if smoke else 200
    bus_commands = 200 if smoke else 2000
    rounds = 3 if smoke else 6

    home_direct, home_spine = _best_of_interleaved(
        _home_direct, _home_spine, home_commands, rounds)
    home_ratio = home_spine / max(home_direct, 1e-9)

    bus_direct, bus_spine = _best_of_interleaved(
        _bus_direct, _bus_spine, bus_commands, rounds)

    churn = _churn_throughput(bursts=10 if smoke else 100)

    assert home_ratio <= OVERHEAD_BUDGET, (
        f"spine actuation costs {home_ratio:.3f}x a direct send_request "
        f"round trip through the home (budget {OVERHEAD_BUDGET}x)")
    # coalescing must actually bite on the churn workload: 4 writes per
    # burst into a depth-1 lane means at most 2 hit the wire
    assert churn["coalesced"] > 0
    assert churn["wire_requests"] < churn["commands_submitted"]

    out_path = Path(__file__).resolve().parents[1] / "BENCH_COMMANDS.json"
    out_path.write_text(json.dumps({
        "experiment": "command-spine dispatch overhead vs direct "
                      "send_request, and throughput under 8-user churn",
        "workload": {
            "home_round_trip_commands": home_commands,
            "bus_floor_commands": bus_commands,
            "rounds": rounds,
            "smoke": bool(smoke),
        },
        "timing_method": "best-of-N wall-clock (time.perf_counter) for "
                         "submit+settle round trips, direct and spine "
                         "rounds interleaved; home scale includes "
                         "FCM handler, fcm.state fan-out and panel "
                         "refresh; bus floor is a bare echo element",
        "home_round_trip": {
            "direct_s_per_cmd": home_direct / home_commands,
            "spine_s_per_cmd": home_spine / home_commands,
            "overhead_ratio": home_ratio,
            "budget": OVERHEAD_BUDGET,
        },
        "bus_floor": {
            "direct_s_per_cmd": bus_direct / bus_commands,
            "spine_s_per_cmd": bus_spine / bus_commands,
            "spine_cost_us_per_cmd":
                (bus_spine - bus_direct) / bus_commands * 1e6,
            "note": "absolute tracking+timeout-guard cost on a bare "
                    "bus; not asserted (no application attached, so "
                    "nothing amortises the fixed cost)",
        },
        "churn": churn,
    }, indent=2) + "\n")
