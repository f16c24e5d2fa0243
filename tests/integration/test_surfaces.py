"""Integration tests: per-user UI surfaces and the appliance-churn sweep.

Each resident gets their own DisplayServer + HomeApplianceApplication
(one discovery/event fan-out, N views) multiplexed by one UniIntServer.
These tests pin the isolation contract — one user's tab switches and
input never reach another user's wire — plus the churn bugfixes that
ride along (guid reuse, stale active tab, per-surface bells).
"""

import pytest

from repro import Home
from repro.appliances import AirConditioner, MicrowaveOven, Television
from repro.havi import FcmType
from repro.util.errors import HaviError


def two_view_home():
    """TV + microwave home where alice and bob each have their own view."""
    home = Home()
    home.add_appliance(Television("TV"))
    home.add_appliance(MicrowaveOven("Micro"))
    alice = home.add_user("alice")
    bob = home.add_user("bob")
    home.settle()
    return home, alice, bob


def active_appliance(user) -> str:
    tabs = user.app._tabs()
    assert tabs is not None
    return user.app.appliances[tabs.active].name


class TestPerUserSurfaces:
    def test_each_user_gets_their_own_view(self):
        home, alice, bob = two_view_home()
        assert alice.view is not bob.view
        assert alice.display is not bob.display
        assert alice.app is not bob.app
        assert alice.surface is not bob.surface
        # one server multiplexes all surfaces
        assert len(home.uniint_server.surfaces) == len(home.views) == 3
        # sessions bind to their user's surface
        assert alice.server_session.surface is alice.surface
        assert bob.server_session.surface is bob.surface

    def test_independent_active_tabs(self):
        home, alice, bob = two_view_home()
        alice.show_appliance("TV")
        bob.show_appliance("Micro")
        home.settle()
        assert active_appliance(alice) == "TV"
        assert active_appliance(bob) == "Micro"
        # each user's mirror tracks their own display, not a shared one
        assert alice.session.upstream.framebuffer == alice.display.framebuffer
        assert bob.session.upstream.framebuffer == bob.display.framebuffer
        assert alice.display.framebuffer != bob.display.framebuffer

    def test_tab_switch_sends_zero_bytes_to_other_surfaces(self):
        home, alice, bob = two_view_home()
        bob.show_appliance("Micro")
        home.settle()
        bob_wire = bob.server_session.endpoint.stats.bytes_sent
        bob_tab = active_appliance(bob)
        alice.show_appliance("TV")
        home.settle()
        # alice's switch repainted *her* surface only: bob's session saw
        # zero wire bytes and his active tab is untouched
        assert bob.server_session.endpoint.stats.bytes_sent == bob_wire
        assert active_appliance(bob) == bob_tab
        assert active_appliance(alice) == "TV"

    def test_pointer_input_is_isolated_per_surface(self):
        home, alice, bob = two_view_home()
        bob_wire = bob.server_session.endpoint.stats.bytes_sent
        alice.session.upstream.click(20, 20)
        home.settle()
        assert alice.server_session.pointer_events == 2  # press + release
        assert bob.server_session.pointer_events == 0
        assert bob.server_session.endpoint.stats.bytes_sent == bob_wire

    def test_key_input_is_isolated_per_surface(self):
        home, alice, bob = two_view_home()
        alice_focus = alice.window.focus
        bob_focus = bob.window.focus
        alice.session.upstream.press_key(0xFF09)  # Tab: move alice's focus
        home.settle()
        assert alice.window.focus is not alice_focus
        assert bob.window.focus is bob_focus
        assert bob.server_session.key_events == 0

    def test_two_users_drive_different_appliances_concurrently(self):
        """The paper's premise, finally multi-user: alice runs the TV from
        one room while bob runs the microwave from another."""
        home, alice, bob = two_view_home()
        alice.show_appliance("TV")
        bob.show_appliance("Micro")
        home.settle()
        tv_guid8 = home.appliances["TV"].guid[:8]
        micro_guid8 = home.appliances["Micro"].guid[:8]
        # alice toggles TV power on her view
        power = alice.window.root.find(f"{tv_guid8}.tuner.power")
        cx, cy = power.abs_rect().center
        alice.session.upstream.click(cx, cy)
        home.settle()
        # bob queues 10 minutes and starts the microwave on his view
        for widget_id in (f"{micro_guid8}.microwave.add600",
                          f"{micro_guid8}.microwave.start"):
            widget = bob.window.root.find(widget_id)
            assert widget is not None
            cx, cy = widget.abs_rect().center
            bob.session.upstream.click(cx, cy)
            home.run_for(1.0)  # deliver events without finishing the cook
        tuner = home.appliances["TV"].dcm.fcm_by_type(FcmType.TUNER)
        oven = home.appliances["Micro"].dcm.fcm_by_type(FcmType.MICROWAVE)
        assert tuner.get_state("power") is True
        assert oven.get_state("running") is True
        # tabs stayed where each user put them
        assert active_appliance(alice) == "TV"
        assert active_appliance(bob) == "Micro"

    def test_state_changes_propagate_to_every_view(self):
        """One event fan-out, N views: an appliance driven by one user is
        mirrored on everyone's panels regardless of surface."""
        home, alice, bob = two_view_home()
        alice.show_appliance("TV")
        bob.show_appliance("TV")
        home.settle()
        tuner = home.appliances["TV"].dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        home.settle()
        guid8 = home.appliances["TV"].guid[:8]
        for user in (alice, bob, home.default_user):
            widget = user.window.root.find(f"{guid8}.tuner.power")
            assert widget.value is True
        # and both mirrors converged on their own surface's pixels
        assert alice.session.upstream.framebuffer == alice.display.framebuffer
        assert bob.session.upstream.framebuffer == bob.display.framebuffer


class TestSharedViews:
    def test_view_of_shares_one_surface(self):
        home = Home()
        home.add_appliance(Television("TV"))
        alice = home.add_user("alice")
        carol = home.add_user("carol", view_of="alice")
        home.settle()
        assert carol.view is alice.view
        assert carol.server_session.surface is alice.surface
        assert len(home.views) == 2  # resident + alice's shared view
        assert carol.session.upstream.framebuffer == alice.display.framebuffer

    def test_same_surface_sessions_share_encodes(self):
        """A same-surface family shares one encode per rect through the
        surface's encode cache, while single-session surfaces never hit
        each other's entries."""
        home = Home()
        home.add_appliance(Television("TV"))
        home.add_user("alice", view_of="resident")
        home.add_user("bob", view_of="resident")
        home.settle()
        cache = home.default_user.surface.encode_cache
        hits, misses = cache.hits, cache.misses
        tuner = home.appliances["TV"].dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        home.settle()
        # 3 sessions, 1 surface: one encode, two cache hits per rect
        assert cache.misses > misses
        assert cache.hits - hits >= 2 * (cache.misses - misses)
        for user in home.users.values():
            assert (user.session.upstream.framebuffer
                    == home.display.framebuffer)

    def test_separate_surfaces_do_not_share_encodes(self):
        home, alice, bob = two_view_home()
        caches = [view.surface.encode_cache for view in home.views]
        assert len({id(cache) for cache in caches}) == 3
        assert [cache.hits for cache in caches] == [0, 0, 0]
        tuner = home.appliances["TV"].dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        home.settle()
        # every surface has exactly one session and its own cache: the
        # same new pixels are encoded once per surface, and no surface
        # hits another's entries (which would mix frames up)
        assert [cache.hits for cache in caches] == [0, 0, 0]
        for user in (alice, bob):
            assert (user.session.upstream.framebuffer
                    == user.display.framebuffer)

    def test_owner_departure_keeps_shared_view_alive(self):
        home = Home()
        home.add_appliance(Television("TV"))
        alice = home.add_user("alice")
        carol = home.add_user("carol", view_of="alice")
        home.settle()
        home.remove_user("alice")
        home.settle()
        assert carol.view in home.views
        assert not carol.view.app.closed
        assert carol.session.upstream.ready
        # carol still sees appliance churn on the inherited view
        rebuilds = carol.app.rebuild_count
        home.add_appliance(MicrowaveOven("Micro"))
        home.settle()
        assert carol.app.rebuild_count > rebuilds


class TestViewLifecycle:
    def test_remove_user_tears_down_their_view(self):
        home = Home()
        home.add_appliance(Television("TV"))
        alice = home.add_user("alice")
        home.settle()
        app, surface = alice.app, alice.surface
        views_before = len(home.views)
        home.remove_user("alice")
        home.settle()
        assert len(home.views) == views_before - 1
        assert app.closed
        assert surface not in home.uniint_server.surfaces
        assert surface.sessions == []
        # a closed app no longer rebuilds on discovery churn
        rebuilds = app.rebuild_count
        home.add_appliance(MicrowaveOven("Micro"))
        home.settle()
        assert app.rebuild_count == rebuilds

    def test_surfaces_track_sessions_after_removal(self):
        home, alice, bob = two_view_home()
        total_before = len(home.uniint_server.sessions)
        home.remove_user("alice")
        home.settle()
        assert len(home.uniint_server.sessions) == total_before - 1
        assert all(s.surface in home.uniint_server.surfaces
                   for s in home.uniint_server.sessions)


class TestBellRouting:
    def _bell_home(self, shared_view: bool):
        from repro.devices import Pda
        home = Home()
        home.add_appliance(MicrowaveOven("Oven"))
        home.add_user("guest",
                      view_of=("resident" if shared_view else None))
        home.add_device(Pda("resident-pda", home.scheduler))
        home.add_device(Pda("guest-pda", home.scheduler), user="guest")
        home.settle()
        return home

    @pytest.mark.parametrize("shared_view", [False, True])
    def test_bell_reaches_every_surface_exactly_once(self, shared_view):
        """One ding per resident, whether their sessions share a surface
        or each have their own — never N dings for N views."""
        home = self._bell_home(shared_view)
        fcm = home.appliances["Oven"].dcm.fcm_by_type(FcmType.MICROWAVE)
        fcm.invoke_local("timer.start", {"seconds": 45})
        home.settle()
        assert home.devices["resident-pda"].bells_received == 1
        assert home.devices["guest-pda"].bells_received == 1

    def test_home_bell_hook_fires_once_per_event(self):
        home = self._bell_home(shared_view=False)
        bells = []
        home.on_bell = bells.append
        fcm = home.appliances["Oven"].dcm.fcm_by_type(FcmType.MICROWAVE)
        fcm.invoke_local("timer.start", {"seconds": 30})
        home.settle()
        assert len(bells) == 1


class TestApplianceChurn:
    def test_remove_unknown_appliance_is_a_clear_error(self):
        home = Home()
        with pytest.raises(HaviError, match="no appliance 'Ghost'"):
            home.remove_appliance("Ghost")

    def test_duplicate_appliance_name_rejected(self):
        home = Home()
        home.add_appliance(Television("TV"))
        with pytest.raises(HaviError, match="already"):
            home.add_appliance(Television("TV", unit=2))

    def test_guid_reuse_after_settled_removal(self):
        """Remove, settle, re-add a same-GUID appliance: full reinstall."""
        home = Home()
        original = home.add_appliance(Television("TV"))
        home.settle()
        home.remove_appliance("TV")
        home.settle()
        assert home.app.appliances == []
        replacement = Television("TV-mk2")  # same model/unit -> same guid
        assert replacement.guid == original.guid
        home.add_appliance(replacement)
        home.settle()
        assert replacement.dcm is not None
        tuner = replacement.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        home.settle()
        assert tuner.get_state("power") is True
        assert home.app.appliance_by_name("TV-mk2") is not None

    def test_guid_reuse_within_one_coalesced_reset(self):
        """Remove + re-add inside the bus settle window coalesce into one
        reset; the stale DCM of the departed instance must not survive."""
        home = Home()
        original = home.add_appliance(Television("TV"))
        home.settle()
        home.remove_appliance("TV")
        replacement = Television("TV-mk2")
        home.add_appliance(replacement)  # same guid, no settle between
        home.settle()
        # the *new* instance is the one installed and discoverable
        assert replacement.dcm is not None
        assert home.app.appliance_by_name("TV-mk2") is not None
        assert home.app.appliance_by_name("TV") is None
        tuner = replacement.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        home.settle()
        assert tuner.get_state("power") is True
        # the departed instance's DCM is fully uninstalled
        assert original.dcm is not None
        assert not original.dcm.attached


class TestStaleTabFallback:
    def _three_appliance_home(self):
        home = Home()
        home.add_appliance(AirConditioner("AC"))        # tab 0
        home.add_appliance(MicrowaveOven("Micro"))      # tab 1
        home.add_appliance(Television("TV"))            # tab 2
        home.settle()
        return home

    def test_unplugging_last_active_tab_falls_back_to_new_last(self):
        home = self._three_appliance_home()
        user = home.default_user
        user.show_appliance("TV")
        home.settle()
        home.remove_appliance("TV")
        home.settle()
        assert active_appliance(user) == "Micro"

    def test_unplugging_middle_active_tab_falls_to_next(self):
        home = self._three_appliance_home()
        user = home.default_user
        user.show_appliance("Micro")
        home.settle()
        home.remove_appliance("Micro")
        home.settle()
        # the appliance that slid into the vacated slot, not tab 0
        assert active_appliance(user) == "TV"

    def test_unplug_repaints_and_other_views_keep_their_tab(self):
        home = self._three_appliance_home()
        bob = home.add_user("bob")
        home.settle()
        user = home.default_user
        user.show_appliance("TV")
        bob.show_appliance("AC")
        home.settle()
        home.remove_appliance("TV")
        home.settle()
        assert active_appliance(user) == "Micro"
        assert active_appliance(bob) == "AC"
        # no stale pixels: every mirror converged on the rebuilt UI
        assert user.session.upstream.framebuffer == user.display.framebuffer
        assert bob.session.upstream.framebuffer == bob.display.framebuffer

    def test_survivor_tab_is_restored_by_guid(self):
        home = self._three_appliance_home()
        user = home.default_user
        user.show_appliance("Micro")
        home.settle()
        home.remove_appliance("AC")  # before the active tab
        home.settle()
        assert active_appliance(user) == "Micro"
