"""Integration: per-link adaptive encoder selection (paper §3.3).

One display server, two very different bearers.  A link-adaptive server
should spend CPU to save wire bytes on the 9600 bps cellular leg (ZRLE at
max compression) while the loopback leg takes the cheap path (HEXTILE,
no trial encodes at all) — and both client mirrors must stay exact.
"""

import pytest

from repro.net import BLUETOOTH_1, CELLULAR_PDC, LOOPBACK, make_pipe
from repro.net.link import compression_tier
from repro.proxy.upstream import UniIntClient
from repro.server import UniIntServer
from repro.toolkit import Column, Label, UIWindow
from repro.uip import HEXTILE, ZRLE
from repro.util import Scheduler
from repro.windows import DisplayServer


def adaptive_stack(profile, *, width=320, height=240, rows=10):
    scheduler = Scheduler()
    window = UIWindow(width, height)
    column = Column()
    labels = [column.add(Label(f"row {i}")) for i in range(rows)]
    window.set_root(column)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler, backpressure=True,
                          link_adaptive=True)
    pipe = make_pipe(scheduler, profile, name=f"{profile.name}-link")
    session = server.accept(pipe.a)
    client = UniIntClient(pipe.b)
    scheduler.run_until_idle()
    return scheduler, labels, session, client


def drive_churn(scheduler, labels, client, seconds=8.0,
                poll_every=0.05, churn_every=0.1):
    deadline = scheduler.now() + seconds

    def poll():
        if client.ready:
            client.request_update(True)
        if scheduler.now() + poll_every <= deadline:
            scheduler.call_later(poll_every, poll)

    rounds = {"n": 0}

    def churn():
        rounds["n"] += 1
        for i, label in enumerate(labels):
            label.text = f"round {rounds['n']} v{(rounds['n'] * 37 + i) % 997}"
        if scheduler.now() + churn_every <= deadline:
            scheduler.call_later(churn_every, churn)

    scheduler.call_later(poll_every, poll)
    scheduler.call_later(churn_every, churn)
    scheduler.run_for(seconds)


def assert_mirror_exact(session, client):
    import numpy as np
    assert np.array_equal(client.framebuffer.pixels,
                          session.surface.display.framebuffer.pixels)


class TestAdaptiveSelection:
    def test_phone_leg_upgrades_to_zrle(self):
        scheduler, labels, session, client = adaptive_stack(CELLULAR_PDC)
        assert compression_tier(CELLULAR_PDC) == 2
        drive_churn(scheduler, labels, client)
        scheduler.run_until_idle()
        health = session.link_health()
        assert health.tier == 2
        assert health.active_encoding == ZRLE
        assert session.rects_by_encoding[ZRLE] > 0
        assert_mirror_exact(session, client)

    def test_loopback_leg_stays_on_hextile(self):
        scheduler, labels, session, client = adaptive_stack(LOOPBACK)
        assert compression_tier(LOOPBACK) == 0
        drive_churn(scheduler, labels, client, seconds=3.0)
        scheduler.run_until_idle()
        health = session.link_health()
        assert health.tier == 0
        assert health.active_encoding == HEXTILE
        # tier 0 never runs trial encodes, so nothing else ever got sent
        assert set(session.rects_by_encoding) == {HEXTILE}
        assert_mirror_exact(session, client)

    def test_different_legs_pick_different_encoders(self):
        """The acceptance bar: same UI, adaptive server, the phone leg and
        the local leg end up on different wire encodings."""
        _, labels_a, phone, client_a = adaptive_stack(CELLULAR_PDC)
        sched_a = phone.surface.server.scheduler
        drive_churn(sched_a, labels_a, client_a)
        sched_a.run_until_idle()
        _, labels_b, local, client_b = adaptive_stack(LOOPBACK)
        sched_b = local.surface.server.scheduler
        drive_churn(sched_b, labels_b, client_b, seconds=3.0)
        sched_b.run_until_idle()
        assert phone.link_health().active_encoding == ZRLE
        assert local.link_health().active_encoding == HEXTILE

    def test_bluetooth_leg_escalates_under_churn(self):
        """A mid-tier bearer that keeps falling behind shifts to heavier
        compression: withheld sends accumulate, the session escalates to
        tier 2 and re-seeds its candidate order."""
        scheduler, labels, session, client = adaptive_stack(
            BLUETOOTH_1, width=480, height=360, rows=14)
        assert compression_tier(BLUETOOTH_1) == 1
        drive_churn(scheduler, labels, client, seconds=6.0,
                    poll_every=0.005, churn_every=0.005)
        scheduler.run_until_idle()
        health = session.link_health()
        assert session.updates_coalesced >= 3  # the link really fell behind
        assert health.tier == 2
        assert health.reevaluations >= 1
        assert session.rects_by_encoding[ZRLE] > 0
        assert_mirror_exact(session, client)

    def test_link_health_snapshot_contents(self):
        scheduler, labels, session, client = adaptive_stack(CELLULAR_PDC)
        drive_churn(scheduler, labels, client)
        health = session.link_health()
        assert health.profile == CELLULAR_PDC.name
        assert health.bandwidth_bps == CELLULAR_PDC.bandwidth_bps
        assert health.updates_coalesced == session.updates_coalesced
        assert health.bytes_suppressed == session.bytes_suppressed
        assert health.backlog_s >= 0.0
        scheduler.run_until_idle()
        assert session.link_health().backlog_s == 0.0  # fully drained

    def test_stats_exposes_link_health(self):
        scheduler, labels, session, client = adaptive_stack(CELLULAR_PDC)
        drive_churn(scheduler, labels, client, seconds=3.0)
        scheduler.run_until_idle()
        stats = session.stats()
        assert stats["link_health"] is session.link_health() or (
            stats["link_health"] == session.link_health())
        assert stats["rects_by_encoding"] == dict(session.rects_by_encoding)
        assert stats["updates_sent"] == session.updates_sent
