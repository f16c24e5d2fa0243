"""Chaos integration: a seeded fault schedule against a resilient fleet.

The acceptance scenario of the self-healing work: 32 TCP homes, one
reactor, and a reproducible storm — device-leg frame drops, hard RSTs on
session upstreams, 2-second partitions ("stalls"), device-leg resets and
one crashed home.  Every session and device leg must come back on its
own: sessions redial a fresh server session on their user's surface
with exactly one full-frame resync, device legs redial and re-enter
selection, the crashed home is restarted by the fleet supervisor, and no
session is ever permanently lost.
"""

import random

import pytest

from repro import HomeFleet
from repro.appliances import DimmableLight, Television
from repro.devices import Pda
from repro.net import FaultInjector, FaultPlan, FaultyTransport
from tests.helpers import assert_one_session_per_user

SEED = 20020  # ICDCS 2002

N_HOMES = 32
N_RST = 6          # sessions hard-reset mid-life
N_STALL = 4        # homes partitioned off the reactor for 2 s
N_DROP = 6         # device legs running at 30% frame loss
N_LEG_RST = 4      # device legs hard-reset

HEARTBEAT_S = 0.25
STALL_S = 2.0


def populate(home, tag):
    home.add_appliance(DimmableLight(f"lamp-{tag}"))
    home.add_device(Pda(f"pda-{tag}", home.scheduler))
    return home


def build_fleet(n_homes=N_HOMES):
    fleet = HomeFleet()
    for i in range(n_homes):
        populate(fleet.add_home(f"h{i:02d}", width=120, height=90,
                                resilience=True, heartbeat_s=HEARTBEAT_S), i)
    fleet.settle()
    return fleet


def sole_device(home):
    return next(iter(home.devices.values()))


class TestSeededFaultSchedule:
    def test_fleet_heals_from_the_full_storm(self):
        fleet = build_fleet()
        rng = random.Random(SEED)
        chaos = FaultInjector()
        homes = [fleet.home(f"h{i:02d}") for i in range(N_HOMES)]
        rng.shuffle(homes)
        # carve disjoint victim groups out of the shuffled fleet
        rst_homes = homes[:N_RST]
        stall_homes = homes[N_RST:N_RST + N_STALL]
        rest = homes[N_RST + N_STALL:]
        drop_homes = rest[:N_DROP]
        leg_rst_homes = rest[N_DROP:N_DROP + N_LEG_RST]
        crash_home = rest[N_DROP + N_LEG_RST]
        untouched = rest[N_DROP + N_LEG_RST + 1:]

        fleet.enable_supervision(max_restarts=3, rebuild=lambda f, name, h:
                                 populate(h, name))

        # -- the schedule ---------------------------------------------------
        # RSTs: the user's upstream TCP leg dies with a hard reset
        for home in rst_homes:
            chaos.rst(home.session.upstream.endpoint)
        # stalls: the home's network sockets fall off the reactor for 2 s;
        # stylus taps over the still-live device leg wake the heartbeats,
        # which is how the dead link is actually noticed (TCP alone would
        # just buffer)
        for home in stall_homes:
            chaos.partition_home(home, seconds=STALL_S)
            pda = sole_device(home)
            for k in range(5):
                home.scheduler.call_later(0.3 * (k + 1),
                                          lambda p=pda: p.tap(10, 10))
        # drops: 30% frame loss on the device->proxy event leg (framed,
        # so whole events vanish without desyncing the stream)
        drop_wrappers = []
        for home in drop_homes:
            pair = sole_device(home)._pairs[home.proxy.proxy_id]
            pair.a = FaultyTransport(
                pair.a, FaultPlan(seed=SEED, drop=0.3), home.scheduler)
            drop_wrappers.append(pair.a)
        # device-leg RSTs: the input device's bearer link dies outright
        for home in leg_rst_homes:
            chaos.rst(sole_device(home).endpoint_for(home.proxy.proxy_id))
        # and one home crashes in its own event loop
        chaos.crash_home(crash_home, reason="injected appliance crash")

        fleet.settle()

        # -- sessions healed ------------------------------------------------
        for home in rst_homes + stall_homes:
            resilience = home.session.resilience
            assert resilience.reconnect_count == 1, home.name
            assert not resilience.failed_permanently, home.name
            upstream = home.session.upstream
            assert upstream.ready and upstream.endpoint.is_open
            # exactly one full-frame resync per reconnect: the fresh
            # session's one non-incremental update
            assert upstream.updates_received == 1, home.name
            # the dead session is gone; the redial is the user's session
            assert_one_session_per_user(home)
            assert home.user().current_output == sole_device(home).device_id, \
                "device selection survived the reconnect"
        # reconnect latency is a measured quantity, not a guess
        latencies = [lat for home in rst_homes + stall_homes
                     for lat in home.session.resilience.reconnect_latencies]
        assert len(latencies) == N_RST + N_STALL
        # virtual time: an RST reconnect can land in the same instant it
        # died (pure I/O, no timed waits), so 0 is legitimate; a stalled
        # home must at least wait out the miss window
        assert all(lat >= 0 for lat in latencies)
        for home in stall_homes:
            assert home.session.resilience.reconnect_latencies[0] > 0

        # -- device legs healed ---------------------------------------------
        for home in leg_rst_homes:
            device = sole_device(home)
            assert device.link_reconnects == 1, home.name
            assert device.link_reconnects_failed == 0
            assert home.proxy.proxy_id in device._pairs, "leg is back"
            assert home.user().current_output == device.device_id, \
                "re-registration re-entered selection"

        # -- frame drops degrade, never disconnect --------------------------
        for home, wrapper in zip(drop_homes, drop_wrappers):
            device = sole_device(home)
            before = home.session.events_forwarded
            for _ in range(20):
                device.tap(10, 10)
            fleet.settle()
            assert wrapper.frames_dropped > 0, "the loss actually happened"
            assert home.session.events_forwarded > before, \
                "surviving frames still drive the session"
            assert home.session.resilience.reconnect_count == 0, \
                "loss on a device leg must not kill the session"

        # -- the crashed home is restarted by the supervisor ----------------
        assert [h.name for h in fleet.failed_homes] == [crash_home.name]
        assert fleet.supervise() == [crash_home.name]
        fleet.settle()
        assert not fleet.failed_homes
        record = fleet.failure_of(crash_home.name)
        assert record.restarts == 1 and not record.permanent
        assert "injected appliance crash" in str(record.errors[0])
        reborn = fleet.home(crash_home.name)
        assert reborn.session.upstream.ready
        assert reborn.user().current_output is not None

        # -- nothing was permanently lost, fleet-wide -----------------------
        for home in fleet:
            failure = fleet.failure_of(home.name)
            assert failure is None or not failure.permanent, home.name
            assert home.session.upstream.ready, home.name
            assert not home.session.resilience.failed_permanently
        for home in untouched:
            assert home.session.resilience.reconnect_count == 0, \
                "chaos must stay inside its blast radius"
        fleet.close()

    def test_storm_is_reproducible_under_its_seed(self):
        # same seed, same victims: the schedule itself is deterministic
        def victims():
            names = [f"h{i:02d}" for i in range(N_HOMES)]
            rng = random.Random(SEED)
            rng.shuffle(names)
            return names[:N_RST + N_STALL]

        assert victims() == victims()


class TestCrashLoopSupervision:
    def test_crash_looping_home_exhausts_its_restart_budget(self):
        fleet = HomeFleet()
        populate(fleet.add_home("stable", resilience=True), "stable")
        populate(fleet.add_home("flaky", resilience=True), "flaky")
        fleet.settle()
        chaos = FaultInjector()

        # the rebuild hook plants the next crash: every resurrection
        # detonates again, which is what a genuine crash loop looks like
        def rebuild(f, name, home):
            populate(home, name)
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
        assert record.permanent
        assert record.restarts == 2
        assert "crash loop: restart budget of 2 spent" in record.reason
        assert "still broken" in record.reason
        assert fleet.failure_of("stable") is None
        assert len(record.tracebacks) == len(record.errors) == 3
        # the stable sibling never noticed
        stable = fleet.home("stable")
        assert stable.session.upstream.ready
        assert not stable.reactor_member.failed
        before = stable.server_session.endpoint.stats.bytes_sent
        stable.add_appliance(Television("tv-late"))
        fleet.settle()
        assert stable.server_session.endpoint.stats.bytes_sent > before
        fleet.close()
