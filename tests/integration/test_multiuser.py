"""Integration tests: multi-user homes, follow-me migration, arbitration.

The paper's headline scenario — one home serving several people at once,
each controlling appliances through whichever devices suit their current
situation — exercised end to end through the Home facade.
"""

import numpy as np
import pytest

from repro import Home
from repro.appliances import MicrowaveOven, Television
from repro.context import UserSituation
from repro.devices import (
    CellPhone,
    Pda,
    RemoteControl,
    TvDisplay,
    VoiceInput,
    WallDisplay,
)
from repro.havi import FcmType
from repro.util.errors import ProxyError


def two_user_home():
    """A TV home with residents alice and bob, personal + shared devices."""
    home = Home()
    home.add_appliance(Television("TV"))
    alice = home.add_user("alice")
    bob = home.add_user("bob")
    home.add_device(Pda("alice-pda", home.scheduler), user="alice")
    home.add_device(CellPhone("alice-phone", home.scheduler), user="alice")
    home.add_device(Pda("bob-pda", home.scheduler), user="bob")
    home.add_device(TvDisplay("tv-panel", home.scheduler), shared=True)
    home.settle()
    return home, alice, bob


class TestMultiUserProvisioning:
    def test_default_user_keeps_legacy_attributes(self):
        home = Home()
        assert home.proxy is home.user().proxy
        assert home.session is home.user().session
        assert home.context is home.user().context
        assert home.server_session in home.uniint_server.sessions

    def test_each_user_gets_own_proxy_and_server_session(self):
        home, alice, bob = two_user_home()
        # resident + alice + bob: three live server sessions
        assert len(home.uniint_server.sessions) == 3
        assert alice.proxy is not bob.proxy
        assert alice.session.upstream.ready
        assert bob.session.upstream.ready
        # both mirrors track the one shared application framebuffer
        home.screenshot()
        assert alice.session.upstream.framebuffer == home.display.framebuffer
        assert bob.session.upstream.framebuffer == home.display.framebuffer

    def test_duplicate_user_rejected(self):
        home, *_ = two_user_home()
        with pytest.raises(ProxyError):
            home.add_user("alice")

    def test_personal_devices_are_invisible_to_other_users(self):
        home, alice, bob = two_user_home()
        alice_sees = {d.device_id for d in alice.proxy.list_devices()}
        bob_sees = {d.device_id for d in bob.proxy.list_devices()}
        assert "alice-pda" in alice_sees and "alice-pda" not in bob_sees
        assert "bob-pda" in bob_sees and "bob-pda" not in alice_sees
        # the shared panel is visible to everyone
        assert "tv-panel" in alice_sees and "tv-panel" in bob_sees

    def test_both_users_control_the_same_appliance(self):
        home, alice, bob = two_user_home()
        tv = home.appliances["TV"]
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        alice.context.reselect()
        bob.context.reselect()
        home.settle()
        # alice powers the TV on through her pda's touch screen
        phone = home.devices["alice-phone"]
        alice.proxy.select_input("alice-phone")
        home.settle()
        phone.press("5")
        home.settle()
        assert tuner.get_state("power") is True
        # bob sees the updated panel on his own mirror
        assert bob.session.upstream.framebuffer == home.display.framebuffer

    def test_remove_user_releases_devices_and_sessions(self):
        home, alice, bob = two_user_home()
        alice.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert home.arbiter.holders.get("tv-panel") == "alice"
        sessions_before = len(home.uniint_server.sessions)
        home.remove_user("alice")
        home.settle()
        assert "alice" not in home.users
        assert "alice-pda" not in home.devices
        assert home.arbiter.holders.get("tv-panel") != "alice"
        assert len(home.uniint_server.sessions) == sessions_before - 1
        # the freed panel is re-arbitrated to bob on the next tick
        bob.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert home.arbiter.holders.get("tv-panel") == "bob"

    def test_remove_shared_device_drops_every_users_leg(self):
        home, alice, bob = two_user_home()
        alice.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert alice.current_output == "tv-panel"
        panel = home.devices["tv-panel"]
        home.remove_device("tv-panel")
        home.settle()
        assert "tv-panel" not in home.devices
        assert "tv-panel" not in alice.proxy.devices
        assert "tv-panel" not in bob.proxy.devices
        assert panel.connected_proxies == ()
        # alice's session fell back to one of her own devices
        assert alice.current_output in ("alice-pda", "alice-phone")
        # a resident who arrives later never gets a leg to it
        home.add_user("carol")
        home.settle()
        assert panel.connected_proxies == ()

    def test_remove_personal_device_reselects_only_its_owner(self):
        home, alice, bob = two_user_home()
        alice.context.reselect()
        bob.context.reselect()
        home.settle()
        bob_output = bob.current_output
        home.remove_device("alice-pda")
        home.settle()
        assert "alice-pda" not in home.devices
        assert "alice-pda" not in alice.devices
        assert "alice-pda" not in alice.proxy.devices
        assert alice.current_output != "alice-pda"
        assert alice.current_input != "alice-pda"
        assert bob.current_output == bob_output

    def test_failed_add_user_leaves_no_resident_behind(self):
        home, alice, bob = two_user_home()
        panel = home.devices["tv-panel"]
        wall = home.add_device(WallDisplay("kitchen-wall", home.scheduler),
                               shared=True)
        home.settle()
        views = list(home.views)
        surfaces = list(home.uniint_server.surfaces)
        legs = panel.connected_proxies
        real_connect = wall.connect

        def refuse(proxy, member=None):
            raise ProxyError("wall refuses new proxies")

        # the panel grows a leg to the newcomer's proxy, then the wall
        # fails: provisioning must take the panel's leg back too
        wall.connect = refuse
        with pytest.raises(ProxyError, match="refuses"):
            home.add_user("carol")
        home.settle()
        assert "carol" not in home.users
        assert home.views == views
        assert home.uniint_server.surfaces == surfaces
        assert len(home.uniint_server.sessions) == 3
        assert panel.connected_proxies == legs
        # nothing of carol lingers: she can move in once the wall relents
        wall.connect = real_connect
        carol = home.add_user("carol")
        home.settle()
        assert carol.session.upstream.ready
        assert "uniint-proxy-carol" in panel.connected_proxies
        assert "uniint-proxy-carol" in wall.connected_proxies

    def test_bell_beeps_on_every_users_output_device(self):
        home = Home()
        home.add_appliance(MicrowaveOven("Oven"))
        home.add_user("guest")
        phone = home.add_device(CellPhone("keitai", home.scheduler))
        guest_pda = home.add_device(Pda("guest-pda", home.scheduler),
                                    user="guest")
        home.settle()
        fcm = home.appliances["Oven"].dcm.fcm_by_type(FcmType.MICROWAVE)
        fcm.invoke_local("timer.start", {"seconds": 45})
        home.settle()
        assert phone.bells_received == 1
        assert guest_pda.bells_received == 1


class TestFollowMeMigration:
    def _roaming_home(self):
        home = Home()
        home.add_appliance(Television("TV"))
        home.add_device(CellPhone("keitai", home.scheduler))
        home.add_device(TvDisplay("tv-panel", home.scheduler), shared=True)
        home.add_device(WallDisplay("kitchen-wall", home.scheduler),
                        shared=True)
        home.settle()
        return home

    def test_room_change_hands_session_to_new_rooms_display(self):
        home = self._roaming_home()
        user = home.default_user
        user.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert user.current_output == "tv-panel"
        wall = home.devices["kitchen-wall"]
        frames_before = wall.frames_received
        record = user.move_to("kitchen")
        home.settle()
        # the session followed the user: output is now the kitchen wall
        assert user.current_output == "kitchen-wall"
        assert record.changed
        # ... which received a fresh full frame (no lost damage):
        assert wall.frames_received == frames_before + 1
        assert (wall.screen_image.width, wall.screen_image.height) == (
            1024, 768)
        # the panel pixels embed the server frame 1:1 (clamped fit)
        rgb = np.frombuffer(wall.screen_image.data,
                            dtype=np.uint8).reshape(768, 1024, 3)
        frame = home.screenshot().bitmap.pixels
        assert np.array_equal(rgb[204:204 + 360, 272:272 + 480], frame)
        # and the switch latency over the panel's bearer was recorded
        assert record.latency_s is not None
        assert record.latency_s > 0.0

    def test_migration_with_damage_in_flight_loses_nothing(self):
        """Damage landing during the handoff still reaches the new device:
        the full-frame push happens after it, or folds it in."""
        home = self._roaming_home()
        user = home.default_user
        user.set_situation(UserSituation.on_the_sofa())
        home.settle()
        tv = home.appliances["TV"]
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})   # damage in flight
        user.move_to("kitchen")                          # migrate now
        home.settle()
        wall = home.devices["kitchen-wall"]
        rgb = np.frombuffer(wall.screen_image.data,
                            dtype=np.uint8).reshape(768, 1024, 3)
        frame = home.screenshot().bitmap.pixels
        assert np.array_equal(rgb[204:204 + 360, 272:272 + 480], frame)

    def test_slow_bearer_migration_keeps_queue_bounded(self):
        """Moving outside hands the session to the 9600 bps phone; churn
        during the handoff must stay within the phone leg's credit."""
        home = self._roaming_home()
        user = home.default_user
        user.set_situation(UserSituation.on_the_sofa())
        home.settle()
        record = user.move_to("outside")
        assert user.current_output == "keitai"
        tv = home.appliances["TV"]
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        # churn the panel while the phone link is still draining the
        # full-frame push of the handoff
        for i in range(8):
            tuner.invoke_local("power.set", {"on": i % 2 == 0})
            home.run_for(0.25)
        home.settle()
        phone = home.devices["keitai"]
        binding = user.proxy.binding("keitai")
        endpoint = binding.endpoint
        # bounded queue: never more than the credit high-watermark plus
        # the one frame that may be accepted while still writable
        max_frame = 3000  # 128x128 mono1 ~2 KiB + headers/framing
        assert endpoint.stats.peak_queued_bytes <= (
            endpoint.credit_limit + max_frame)
        # churn was coalesced, not queued stale
        assert user.session.updates_coalesced > 0
        # and the phone converged on the freshest frame
        assert phone.frames_received >= 1
        assert record.latency_s is not None

    def test_input_only_switch_records_no_output_latency(self):
        """A hands-busy switch swaps the input but keeps the output: no
        handoff happened, so no 'latency' may be stamped by later
        unrelated damage frames."""
        home = Home()
        home.add_appliance(Television("TV"))
        home.add_device(RemoteControl("remote", home.scheduler))
        home.add_device(VoiceInput("mic", home.scheduler))
        home.add_device(TvDisplay("tv-panel", home.scheduler))
        user = home.default_user
        user.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert user.current_output == "tv-panel"
        record = user.update(hands_busy=True)   # remote -> voice input
        assert record.changed
        assert record.output_device == "tv-panel"  # output kept
        tuner = home.appliances["TV"].dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})  # unrelated damage
        home.settle()
        assert record.latency_s is None

    def test_user_added_after_shared_devices_selects_immediately(self):
        home = Home()
        home.add_appliance(Television("TV"))
        home.add_device(WallDisplay("kitchen-wall", home.scheduler),
                        shared=True)
        carol = home.add_user(
            "carol", situation=UserSituation(location="kitchen"))
        home.settle()
        assert carol.current_output == "kitchen-wall"
        assert home.devices["kitchen-wall"].frames_received >= 1

    def test_follow_me_tour_keeps_appliance_state(self):
        home = self._roaming_home()
        user = home.default_user
        tv = home.appliances["TV"]
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        user.set_situation(UserSituation.on_the_sofa())
        home.settle()
        tuner.invoke_local("power.set", {"on": True})
        tuner.invoke_local("channel.set", {"channel": 8})
        home.settle()
        for room in ("kitchen", "bedroom", "living_room"):
            user.move_to(room)
            home.settle()
        assert tuner.get_state("channel") == 8
        assert user.session.upstream.ready


class TestOwnershipArbitration:
    def test_tie_keeps_the_incumbent(self):
        home, alice, bob = two_user_home()
        alice.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert home.arbiter.holders.get("tv-panel") == "alice"
        # bob wants the same panel with an identical situation: tie ->
        # alice keeps it, bob falls back to his own pda
        bob.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert home.arbiter.holders.get("tv-panel") == "alice"
        assert alice.current_output == "tv-panel"
        assert bob.current_output == "bob-pda"

    def test_released_device_is_picked_up_by_the_waiting_user(self):
        home, alice, bob = two_user_home()
        alice.set_situation(UserSituation.on_the_sofa())
        bob.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert bob.current_output == "bob-pda"
        panel = home.devices["tv-panel"]
        frames_before = panel.frames_received
        # alice walks out to cook: the panel frees up, and bob's deferred
        # reselect grabs it without bob's situation changing at all
        alice.set_situation(UserSituation.cooking())
        home.settle()
        assert home.arbiter.holders.get("tv-panel") == "bob"
        assert bob.current_output == "tv-panel"
        assert panel.frames_received > frames_before  # fresh full frame

    def test_preemption_releases_and_reselects_the_loser(self):
        home, alice, bob = two_user_home()
        # the default resident is out, so the contest is alice vs bob
        home.default_user.set_situation(UserSituation(location="outside"))
        # bob holds the panel while merely standing around in the room
        bob.set_situation(UserSituation())
        home.settle()
        assert home.arbiter.holders.get("tv-panel") == "bob"
        preemptions_before = home.arbiter.preemptions
        # alice sits down to watch TV: she outscores bob for the panel
        alice.set_situation(UserSituation.on_the_sofa())
        home.settle()
        assert home.arbiter.preemptions == preemptions_before + 1
        assert home.arbiter.holders.get("tv-panel") == "alice"
        assert alice.current_output == "tv-panel"
        # the loser was released and re-selected his next-best device
        assert bob.current_output == "bob-pda"
        handoff = home.arbiter.handoffs[-1]
        assert (handoff.device_id, handoff.preempted) == ("tv-panel", True)
        assert (handoff.from_user, handoff.to_user) == ("bob", "alice")

    def test_two_sessions_never_drive_one_screen(self):
        """Across an arbitration handoff, frames pushed to the contested
        panel come from exactly one user's session at a time."""
        home, alice, bob = two_user_home()
        bob.set_situation(UserSituation())
        home.settle()
        alice.set_situation(UserSituation.on_the_sofa())
        home.settle()
        # after the dust settles only alice's session owns the panel
        assert bob.proxy.current_output != "tv-panel"
        assert alice.proxy.current_output == "tv-panel"
        tv = home.appliances["TV"]
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        panel = home.devices["tv-panel"]
        before = panel.frames_received
        tuner.invoke_local("power.set", {"on": True})
        home.settle()
        # one churn -> frames only from the single owning session
        assert panel.frames_received == before + 1


class TestMultiUserSocketTransport:
    def test_two_users_over_real_socketpairs(self):
        # device legs of a TCP home are socketpairs on the home's reactor
        home = Home(transport="tcp")
        home.add_appliance(Television("TV"))
        home.add_user("guest")
        home.add_device(Pda("pda", home.scheduler))
        home.add_device(Pda("guest-pda", home.scheduler), user="guest")
        home.settle()
        assert home.user().session.upstream.ready
        assert home.user("guest").session.upstream.ready
        assert home.devices["pda"].frames_received >= 1
        assert home.devices["guest-pda"].frames_received >= 1
        home.close()
