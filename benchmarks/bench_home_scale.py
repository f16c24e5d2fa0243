"""E6 — uniform control at scale: many appliances, one application.

Claim operationalised: the uniform-control architecture keeps working as
the number of appliances grows (discovery, registry queries, composed-GUI
generation).  Expected shape: registry query and composed-UI build grow
~linearly in appliance count; hotplug install time is flat per device.
"""

from __future__ import annotations

import itertools
import json
import time

import pytest

from benchmarks.conftest import churn_panel_stack, drive_eager_churn
from repro import Home
from repro.app.composer import compose_ui
from repro.appliances import APPLIANCE_CLASSES
from repro.havi import Comparison, HomeNetwork
from repro.net import CELLULAR_PDC, ETHERNET_100

COUNTS = [1, 4, 16, 64]


def _make_appliances(count: int):
    classes = list(APPLIANCE_CLASSES.values())
    return [classes[i % len(classes)](f"appliance-{i:02d}", unit=i + 1)
            for i in range(count)]


def _populated_home(count: int) -> Home:
    home = Home(width=480, height=360)
    for appliance in _make_appliances(count):
        home.add_appliance(appliance)
    home.settle()
    return home


@pytest.mark.parametrize("count", COUNTS)
def test_hotplug_install(benchmark, count):
    """Bus attach -> DCM install -> registry for N appliances."""

    def run():
        network = HomeNetwork()
        for appliance in _make_appliances(count):
            network.attach_device(appliance)
        network.settle()
        return network

    network = benchmark(run)
    fcms = network.registry.query(Comparison("element.type", "==", "fcm"))
    benchmark.extra_info["appliances"] = count
    benchmark.extra_info["fcms_registered"] = len(fcms)


@pytest.mark.parametrize("count", COUNTS)
def test_registry_query(benchmark, count):
    home = _populated_home(count)
    query = Comparison("element.type", "==", "fcm")

    result = benchmark(lambda: home.network.registry.query(query))
    benchmark.extra_info["appliances"] = count
    benchmark.extra_info["matches"] = len(result)


@pytest.mark.parametrize("count", COUNTS)
def test_composed_ui_build(benchmark, count):
    """compose_ui + full layout for N appliance pages."""
    home = _populated_home(count)
    appliances = home.app.appliances

    def run():
        root = compose_ui(appliances)
        home.window.set_root(root)
        home.window.render()
        return root

    benchmark(run)
    benchmark.extra_info["appliances"] = count
    benchmark.extra_info["widgets"] = sum(
        1 for _ in home.window.root.walk())


# -- E8: framebuffer broadcast at session scale ------------------------------
#
# The damage-tracking pipeline exists so that many viewers of one screen
# (wall display + PDA + phone all mirroring the same appliance panel) cost
# one encode, not one per session: every session's encoder shares the
# surface's content-keyed encode cache.  This benchmark drives a churning
# GUI with N connected UIP sessions.


def _churn_round(scheduler, labels, round_no: int) -> None:
    """Dirty most of the screen with fresh content and settle the flush."""
    for i, label in enumerate(labels):
        label.text = f"round {round_no} value {(round_no * 37 + i) % 997}"
    scheduler.run_until_idle()


@pytest.mark.parametrize("sessions", [1, 4, 8])
def test_framebuffer_broadcast(benchmark, sessions):
    scheduler, display, labels, server, clients = churn_panel_stack(
        [ETHERNET_100] * sessions)
    rounds = itertools.count()

    benchmark(lambda: _churn_round(scheduler, labels, next(rounds)))

    for client in clients:
        assert client.framebuffer == display.framebuffer
    cache = server.default_surface.encode_cache
    benchmark.extra_info["sessions"] = sessions
    benchmark.extra_info["encode_cache_hits"] = cache.hits
    benchmark.extra_info["encode_cache_misses"] = cache.misses


# -- E9 rider: one slow bearer among fast ones -------------------------------
#
# The home-scale worry with heterogeneous bearers: a phone-link viewer in a
# room of Ethernet wall panels must not inflate server-side queue depth (or
# staleness) for anyone.  Credit backpressure confines the backlog to the
# slow session's own pending region.


def test_slow_bearer_does_not_inflate_other_sessions(smoke):
    fast_count = 3 if smoke else 7
    scheduler, display, labels, server, clients = churn_panel_stack(
        [ETHERNET_100] * fast_count + [CELLULAR_PDC], backpressure=True)
    fast_clients, phone_client = clients[:fast_count], clients[-1]
    phone_session = server.sessions[-1]
    # only the phone polls eagerly (pipelined requests); the Ethernet
    # panels pace themselves with one outstanding request, as usual
    drive_eager_churn(scheduler, labels, [phone_client],
                      seconds=3.0 if smoke else 20.0)

    fast_sessions = [s for s in server.sessions if s is not phone_session]
    # the Ethernet panels never saturate, never coalesce, stay shallow
    for session in fast_sessions:
        assert session.updates_coalesced == 0
        assert (session.endpoint.stats.peak_queued_bytes
                < session.endpoint.credit_limit)
    # the phone's backlog stays bounded near its own credit limit
    assert (phone_session.endpoint.stats.peak_queued_bytes
            < 4 * phone_session.endpoint.credit_limit)
    assert phone_session.updates_coalesced > 0
    # and everyone converges on the same pixels once the links drain
    scheduler.run_until_idle()
    for client in (*fast_clients, phone_client):
        assert client.framebuffer == display.framebuffer


# -- E10: multi-user homes ----------------------------------------------------
#
# The paper's headline scenario: one home serving several residents at
# once, each with their own proxy + server session + device fleet.  The
# cost that must stay sublinear is the *server-side broadcast cost* per
# frame: with the surface's shared encode cache, adding a user adds one
# pack, one cache hit per rect and one transport send per update, not
# another encode.  Per-user work (their proxy's mirror decode, their
# output device's transform) is inherently linear and is reported
# separately as end-to-end time.

USER_COUNTS = [1, 2, 4, 8]

#: Devices provisioned per user: an IR remote and a voice mic for input,
#: a personal TV panel for output (Ethernet bearer).
DEVICES_PER_USER = 3


class ServerCostMeter:
    """Cumulative wall-clock spent inside the server's broadcast path.

    Wraps the update-distribution entry points (`_flush`, each surface's
    `_composite_and_distribute`, each session's `_try_send`) with a
    reentrancy-guarded timer, so time is counted once no matter which
    entry point leads.
    """

    def __init__(self, server):
        self.seconds = 0.0
        self._depth = 0
        self._wrap(server, "_flush")
        for surface in server.surfaces:
            self._wrap(surface, "_composite_and_distribute")
        for session in server.sessions:
            self._wrap(session, "_try_send")

    def _wrap(self, obj, name):
        fn = getattr(obj, name)

        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self._depth -= 1

        setattr(obj, name, timed)


def _multiuser_home(users: int):
    """A Home with N residents x 3 devices and a churn-ready label panel.

    All residents share the default user's *view* (``view_of=...``): this
    is the PR 4 workload — one screen, N mirrors — kept as the
    same-surface baseline.  Per-user independent views are measured by
    bench_surfaces.py.
    """
    from repro.devices import RemoteControl, TvDisplay, VoiceInput
    from repro.toolkit import Column, Label

    home = Home(width=480, height=360)
    column = Column()
    labels = [column.add(Label(f"row {i}")) for i in range(12)]
    home.window.set_root(column)
    for index in range(users):
        user = (home.default_user if index == 0
                else home.add_user(f"user-{index}", view_of="resident"))
        uid = user.user_id
        home.add_device(RemoteControl(f"remote-{index}", home.scheduler),
                        user=uid, reselect=False)
        home.add_device(VoiceInput(f"mic-{index}", home.scheduler),
                        user=uid, reselect=False)
        home.add_device(TvDisplay(f"panel-{index}", home.scheduler),
                        user=uid)
    home.settle()
    for user in home.users.values():
        assert user.current_output is not None
    return home, labels


def _multiuser_round(home, labels, round_no: int) -> None:
    for i, label in enumerate(labels):
        label.text = f"round {round_no} value {(round_no * 37 + i) % 997}"
    home.settle()


@pytest.mark.parametrize("users", USER_COUNTS)
def test_multiuser_churn(benchmark, users):
    home, labels = _multiuser_home(users)
    meter = ServerCostMeter(home.uniint_server)
    rounds = itertools.count()

    benchmark(lambda: _multiuser_round(home, labels, next(rounds)))

    for user in home.users.values():
        assert user.session.upstream.framebuffer == home.display.framebuffer
    benchmark.extra_info["users"] = users
    benchmark.extra_info["devices"] = users * DEVICES_PER_USER
    benchmark.extra_info["server_cost_s"] = meter.seconds
    benchmark.extra_info["encode_cache_hits"] = (
        home.default_user.surface.encode_cache.hits)


def test_multiuser_broadcast_scales_and_records(smoke, record_dir):
    """8-user broadcast must cost < 2x the 1-user cost per frame; results
    land in BENCH_MULTIUSER.json."""
    user_counts = (1, 2) if smoke else USER_COUNTS
    repeats = 1 if smoke else 3
    rounds_per_repeat = 1 if smoke else 3
    results = {}
    for users in user_counts:
        home, labels = _multiuser_home(users)
        counter = itertools.count()
        _multiuser_round(home, labels, next(counter))  # warm-up
        meter = ServerCostMeter(home.uniint_server)
        cache = home.default_user.surface.encode_cache
        hits, misses = cache.hits, cache.misses
        best_total = best_server = None
        for _ in range(repeats):
            meter.seconds = 0.0  # one meter; re-wrapping would stack
            start = time.perf_counter()
            for _ in range(rounds_per_repeat):
                _multiuser_round(home, labels, next(counter))
            total = (time.perf_counter() - start) / rounds_per_repeat
            server = meter.seconds / rounds_per_repeat
            best_total = (total if best_total is None
                          else min(best_total, total))
            best_server = (server if best_server is None
                           else min(best_server, server))
        for user in home.users.values():
            assert (user.session.upstream.framebuffer
                    == home.display.framebuffer)
            assert home.devices[user.current_output].frames_received > 0
        results[users] = {
            "server_cost_s": best_server,
            "end_to_end_s": best_total,
            "encode_cache_hits": cache.hits - hits,
            "encode_cache_misses": cache.misses - misses,
        }
    if smoke:  # harness validation only: no perf assertion, no record
        return
    max_users = max(user_counts)
    scaling = (results[max_users]["server_cost_s"]
               / results[1]["server_cost_s"])
    assert scaling < 2.0, (
        f"{max_users}-user broadcast cost {scaling:.2f}x the 1-user cost "
        f"per frame (must be < 2x): {results}")
    out_path = record_dir / "BENCH_MULTIUSER.json"
    out_path.write_text(json.dumps({
        "experiment": "multi-user home: per-user proxy fleet on one "
                      "surface, encodes shared through its encode cache",
        "workload": {
            "screen": "480x360, 12-label panel churn per round",
            "users": list(user_counts),
            "devices_per_user": "IR remote + voice mic + personal TV panel "
                                "(3 each), one UniInt proxy/session per "
                                "user",
        },
        "timing_method": "wall-clock best-of-3 x 3 rounds "
                         "(time.perf_counter); server-side broadcast cost "
                         "via reentrancy-guarded timers around "
                         "_flush/_composite_and_distribute/_try_send",
        "server_cost_s": {
            str(u): results[u]["server_cost_s"] for u in user_counts},
        "server_cost_scaling_8_vs_1": scaling,
        "users": results,
    }, indent=2) + "\n")


@pytest.mark.parametrize("count", [1, 4, 16])
def test_full_rebuild_on_hotplug(benchmark, count):
    """The application's end-to-end reaction to one appliance arriving."""
    home = _populated_home(count)
    extra = _make_appliances(count + 1)[-1]
    attached = {"on": False}

    def run():
        if attached["on"]:
            home.network.detach_device(extra.guid)
        else:
            home.network.attach_device(extra)
        attached["on"] = not attached["on"]
        home.settle()
        return home.app.rebuild_count

    benchmark(run)
    benchmark.extra_info["appliances_before"] = count
