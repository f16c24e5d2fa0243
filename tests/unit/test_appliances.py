"""Unit tests for the simulated appliances and their FCM state machines."""

import pytest

from repro.appliances import (
    AirConditioner,
    Amplifier,
    DimmableLight,
    DvdPlayer,
    MicrowaveOven,
    Refrigerator,
    Television,
    VideoRecorder,
)
from repro.havi import Comparison, FcmCommandError, FcmType, HomeNetwork


def installed(appliance):
    """Attach the appliance to a fresh network and settle."""
    network = HomeNetwork()
    network.attach_device(appliance)
    network.settle()
    return network


def fcm_of(appliance, fcm_type):
    fcm = appliance.dcm.fcm_by_type(fcm_type)
    assert fcm is not None
    return fcm


class TestHotplug:
    def test_attach_installs_dcm_and_fcms(self):
        tv = Television("Living Room TV")
        network = installed(tv)
        assert tv.dcm is not None
        dcms = network.registry.query(Comparison("element.type", "==", "dcm"))
        fcms = network.registry.query(Comparison("element.type", "==", "fcm"))
        assert dcms == [tv.dcm.seid]
        assert len(fcms) == 2  # tuner + display

    def test_detach_uninstalls(self):
        tv = Television("TV")
        network = installed(tv)
        network.detach_device(tv.guid)
        network.settle()
        assert len(network.registry) == 0

    def test_install_events_posted(self):
        network = HomeNetwork()
        seen = []
        network.events.subscribe("dcm.", lambda e: seen.append(e.opcode))
        tv = Television("TV")
        network.attach_device(tv)
        network.settle()
        network.detach_device(tv.guid)
        network.settle()
        assert seen == ["dcm.installed", "dcm.uninstalled"]

    def test_burst_attach_coalesces_resets(self):
        network = HomeNetwork()
        for i in range(4):
            network.attach_device(DimmableLight(f"L{i}", unit=i + 1))
        network.settle()
        assert network.bus.reset_count == 1
        assert len(network.dcm_manager.dcms) == 4

    def test_same_model_units_get_distinct_guids(self):
        a = DimmableLight("A", unit=1)
        b = DimmableLight("B", unit=2)
        assert a.guid != b.guid

    def test_guids_are_stable_across_runs(self):
        assert Television("x").guid == Television("y").guid


class TestTelevision:
    def setup_method(self):
        self.tv = Television("TV")
        self.network = installed(self.tv)
        self.tuner = fcm_of(self.tv, FcmType.TUNER)

    def test_power_cycle(self):
        assert self.tuner.get_state("power") is False
        self.tuner.invoke_local("power.set", {"on": True})
        assert self.tuner.get_state("power") is True

    def test_commands_require_power(self):
        with pytest.raises(FcmCommandError) as err:
            self.tuner.invoke_local("channel.set", {"channel": 4})
        assert err.value.status == "EPOWER_OFF"

    def test_channel_bounds(self):
        self.tuner.invoke_local("power.set", {"on": True})
        with pytest.raises(FcmCommandError):
            self.tuner.invoke_local("channel.set", {"channel": 0})
        with pytest.raises(FcmCommandError):
            self.tuner.invoke_local("channel.set", {"channel": 13})

    def test_channel_up_skips_to_next_broadcast(self):
        self.tuner.invoke_local("power.set", {"on": True})
        self.tuner.invoke_local("channel.set", {"channel": 4})
        self.tuner.invoke_local("channel.up")
        assert self.tuner.get_state("channel") == 6
        assert self.tuner.get_state("station") == "TBS"

    def test_channel_wraps(self):
        self.tuner.invoke_local("power.set", {"on": True})
        self.tuner.invoke_local("channel.set", {"channel": 12})
        self.tuner.invoke_local("channel.up")
        assert self.tuner.get_state("channel") == 1

    def test_channel_down_skips_to_previous_broadcast(self):
        self.tuner.invoke_local("power.set", {"on": True})
        self.tuner.invoke_local("channel.set", {"channel": 6})
        self.tuner.invoke_local("channel.down")
        assert self.tuner.get_state("channel") == 4
        assert self.tuner.get_state("station") == "Nittele"
        assert self.tuner.get_state("station_text") == "CH 4 Nittele"

    def test_channel_down_wraps_to_highest(self):
        self.tuner.invoke_local("power.set", {"on": True})
        self.tuner.invoke_local("channel.down")
        assert self.tuner.get_state("channel") == 12

    def test_unlisted_channel_tunes_to_no_station(self):
        self.tuner.invoke_local("power.set", {"on": True})
        self.tuner.invoke_local("channel.set", {"channel": 5})
        assert self.tuner.get_state("station") == "---"
        # stepping from a gap lands on the neighbouring broadcasts
        self.tuner.invoke_local("channel.down")
        assert self.tuner.get_state("channel") == 4

    def test_volume_unmutes(self):
        self.tuner.invoke_local("power.set", {"on": True})
        self.tuner.invoke_local("mute.set", {"on": True})
        self.tuner.invoke_local("volume.set", {"volume": 40})
        assert self.tuner.get_state("mute") is False

    def test_volume_zero_keeps_mute_and_bounds_hold(self):
        self.tuner.invoke_local("power.set", {"on": True})
        self.tuner.invoke_local("mute.set", {"on": True})
        self.tuner.invoke_local("volume.set", {"volume": 0})
        assert self.tuner.get_state("mute") is True
        with pytest.raises(FcmCommandError) as err:
            self.tuner.invoke_local("volume.set", {"volume": 101})
        assert err.value.status == "EINVALID_ARG"
        assert self.tuner.get_state("volume") == 0

    def test_state_change_posts_event(self):
        seen = []
        self.network.events.subscribe("fcm.state.channel",
                                      lambda e: seen.append(e.payload))
        self.tuner.invoke_local("power.set", {"on": True})
        self.tuner.invoke_local("channel.set", {"channel": 8})
        self.network.settle()
        assert seen[-1]["value"] == 8

    def test_display_source_validation(self):
        display = fcm_of(self.tv, FcmType.DISPLAY)
        display.invoke_local("source.set", {"source": "vcr"})
        assert display.get_state("source") == "vcr"
        with pytest.raises(FcmCommandError):
            display.invoke_local("source.set", {"source": "betamax"})

    def test_display_brightness_needs_no_power(self):
        display = fcm_of(self.tv, FcmType.DISPLAY)
        display.invoke_local("brightness.set", {"brightness": 70})
        assert display.get_state("brightness") == 70
        with pytest.raises(FcmCommandError) as err:
            display.invoke_local("brightness.set", {"brightness": 101})
        assert err.value.status == "EINVALID_ARG"
        assert display.get_state("brightness") == 70

    def test_plugged_stream_retunes_the_display(self):
        display = fcm_of(self.tv, FcmType.DISPLAY)
        display.invoke_local("plug.attach", {"source_type": "av_disc",
                                             "source_seid": "dvd-0"})
        assert display.get_state("source") == "dvd"
        assert display.get_state("stream_source") == "dvd-0"
        with pytest.raises(FcmCommandError) as err:
            display.invoke_local("plug.attach", {"source_type": "camera"})
        assert err.value.status == "EINVALID_ARG"
        assert display.get_state("source") == "dvd"
        display.invoke_local("plug.detach")
        assert display.get_state("source") == "tuner"
        assert display.get_state("stream_source") is None

    def test_command_over_message_system(self):
        from repro.havi import SEID, SoftwareElement
        client = SoftwareElement(SEID("1234123412341234", 0),
                                 self.network.messaging)
        client.attach()
        replies = []
        client.send_request(self.tuner.seid, "power.set", {"on": True},
                            on_reply=replies.append)
        self.network.settle()
        assert replies[0].status == "SUCCESS"
        assert self.tuner.get_state("power") is True

    def test_describe_lists_commands(self):
        desc = self.tuner.invoke_local("fcm.describe")
        assert "channel.up" in desc["commands"]
        assert desc["fcm_type"] == "tuner"


class TestVcr:
    def setup_method(self):
        self.vcr = VideoRecorder("Deck")
        self.network = installed(self.vcr)
        self.deck = fcm_of(self.vcr, FcmType.VCR)
        self.deck.invoke_local("power.set", {"on": True})

    def test_play_advances_counter_in_real_time(self):
        self.deck.invoke_local("transport.play")
        self.network.scheduler.run_for(10.0)
        assert self.deck.counter() == pytest.approx(10.0)

    def test_ff_is_faster_than_play(self):
        self.deck.invoke_local("transport.ff")
        self.network.scheduler.run_for(5.0)
        assert self.deck.counter() == pytest.approx(40.0)

    def test_rew_runs_backwards_and_clamps(self):
        self.deck.invoke_local("transport.play")
        self.network.scheduler.run_for(8.0)
        self.deck.invoke_local("transport.rew")
        self.network.scheduler.run_for(100.0)
        assert self.deck.counter() == 0.0

    def test_pause_freezes_counter(self):
        self.deck.invoke_local("transport.play")
        self.network.scheduler.run_for(5.0)
        self.deck.invoke_local("transport.pause")
        self.network.scheduler.run_for(100.0)
        assert self.deck.counter() == pytest.approx(5.0)

    def test_pause_requires_motion(self):
        with pytest.raises(FcmCommandError):
            self.deck.invoke_local("transport.pause")

    def test_eject_requires_stop_first_then_clears_tape(self):
        self.deck.invoke_local("transport.play")
        self.deck.invoke_local("tape.eject")
        assert self.deck.get_state("tape_loaded") is False
        assert self.deck.get_state("transport") == "stop"
        with pytest.raises(FcmCommandError) as err:
            self.deck.invoke_local("transport.play")
        assert err.value.status == "ENO_MEDIA"

    def test_load_resets_counter(self):
        self.deck.invoke_local("transport.play")
        self.network.scheduler.run_for(5.0)
        self.deck.invoke_local("tape.eject")
        self.deck.invoke_local("tape.load")
        assert self.deck.counter() == 0.0

    def test_load_with_a_tape_in_is_rejected(self):
        with pytest.raises(FcmCommandError) as err:
            self.deck.invoke_local("tape.load")
        assert err.value.status == "EINVALID_STATE"

    def test_record_advances_counter_and_can_pause(self):
        self.deck.invoke_local("transport.record")
        self.network.scheduler.run_for(6.0)
        assert self.deck.counter() == pytest.approx(6.0)
        self.deck.invoke_local("transport.pause")
        self.network.scheduler.run_for(50.0)
        assert self.deck.get_state("transport") == "pause"
        assert self.deck.counter() == pytest.approx(6.0)

    def test_record_needs_a_tape(self):
        self.deck.invoke_local("tape.eject")
        with pytest.raises(FcmCommandError) as err:
            self.deck.invoke_local("transport.record")
        assert err.value.status == "ENO_MEDIA"

    def test_counter_reset_keeps_the_tape_moving(self):
        self.deck.invoke_local("transport.play")
        self.network.scheduler.run_for(5.0)
        assert self.deck.invoke_local("counter.reset") == {"counter": 0.0}
        self.network.scheduler.run_for(3.0)
        assert self.deck.get_state("transport") == "play"
        assert self.deck.invoke_local("counter.get") == {"counter": 3.0}

    def test_power_off_stops_transport(self):
        self.deck.invoke_local("transport.play")
        self.deck.invoke_local("power.set", {"on": False})
        assert self.deck.get_state("transport") == "stop"

    def test_vcr_has_its_own_tuner(self):
        assert fcm_of(self.vcr, FcmType.TUNER) is not None


class TestAmplifier:
    def test_tone_controls(self):
        amp = Amplifier("Amp")
        installed(amp)
        fcm = fcm_of(amp, FcmType.AMPLIFIER)
        fcm.invoke_local("power.set", {"on": True})
        fcm.invoke_local("tone.set", {"bass": 5, "treble": -3})
        assert fcm.get_state("bass") == 5
        assert fcm.get_state("treble") == -3
        with pytest.raises(FcmCommandError):
            fcm.invoke_local("tone.set", {"bass": 20})
        with pytest.raises(FcmCommandError):
            fcm.invoke_local("tone.set", {})

    def test_source_selection(self):
        amp = Amplifier("Amp")
        installed(amp)
        fcm = fcm_of(amp, FcmType.AMPLIFIER)
        fcm.invoke_local("power.set", {"on": True})
        fcm.invoke_local("source.set", {"source": "aux"})
        assert fcm.get_state("source") == "aux"
        with pytest.raises(FcmCommandError) as err:
            fcm.invoke_local("source.set", {"source": "phono"})
        assert err.value.status == "EINVALID_ARG"
        assert fcm.get_state("source") == "aux"

    def test_volume_unmutes_and_bounds_hold(self):
        amp = Amplifier("Amp")
        installed(amp)
        fcm = fcm_of(amp, FcmType.AMPLIFIER)
        fcm.invoke_local("power.set", {"on": True})
        fcm.invoke_local("mute.set", {"on": True})
        assert fcm.get_state("mute") is True
        fcm.invoke_local("volume.set", {"volume": 55})
        assert fcm.get_state("volume") == 55
        assert fcm.get_state("mute") is False
        with pytest.raises(FcmCommandError):
            fcm.invoke_local("volume.set", {"volume": -5})
        assert fcm.get_state("volume") == 55

    def test_mute_and_volume_need_power(self):
        amp = Amplifier("Amp")
        installed(amp)
        fcm = fcm_of(amp, FcmType.AMPLIFIER)
        for opcode, payload in (("mute.set", {"on": True}),
                                ("volume.set", {"volume": 10})):
            with pytest.raises(FcmCommandError) as err:
                fcm.invoke_local(opcode, payload)
            assert err.value.status == "EPOWER_OFF"

    def test_plugged_stream_switches_to_aux_until_detached(self):
        amp = Amplifier("Amp")
        installed(amp)
        fcm = fcm_of(amp, FcmType.AMPLIFIER)
        fcm.invoke_local("plug.attach", {"source_seid": "tuner-0"})
        assert fcm.get_state("source") == "aux"
        assert fcm.get_state("stream_source") == "tuner-0"
        fcm.invoke_local("plug.detach")
        assert fcm.get_state("stream_source") is None
        # detaching leaves the selector where the stream put it
        assert fcm.get_state("source") == "aux"


class TestDvd:
    def setup_method(self):
        self.dvd = DvdPlayer("DVD")
        installed(self.dvd)
        self.disc = fcm_of(self.dvd, FcmType.AV_DISC)
        self.disc.invoke_local("power.set", {"on": True})

    def test_play_and_chapters(self):
        self.disc.invoke_local("playback.play")
        self.disc.invoke_local("chapter.next")
        self.disc.invoke_local("chapter.next")
        assert self.disc.get_state("chapter") == 3
        self.disc.invoke_local("chapter.prev")
        assert self.disc.get_state("chapter") == 2

    def test_chapter_bounds_clamp(self):
        self.disc.invoke_local("chapter.set", {"chapter": 12})
        self.disc.invoke_local("chapter.next")
        assert self.disc.get_state("chapter") == 12

    def test_open_tray_stops_playback(self):
        self.disc.invoke_local("playback.play")
        self.disc.invoke_local("tray.open")
        assert self.disc.get_state("playback") == "stop"
        with pytest.raises(FcmCommandError):
            self.disc.invoke_local("playback.play")

    def test_stop_rewinds_to_chapter_one(self):
        self.disc.invoke_local("playback.play")
        self.disc.invoke_local("chapter.set", {"chapter": 5})
        self.disc.invoke_local("playback.stop")
        assert self.disc.get_state("chapter") == 1

    def test_chapter_set_outside_disc_rejected(self):
        for chapter in (0, 13):
            with pytest.raises(FcmCommandError) as err:
                self.disc.invoke_local("chapter.set", {"chapter": chapter})
            assert err.value.status == "EINVALID_ARG"
        assert self.disc.get_state("chapter") == 1

    def test_pause_only_while_playing(self):
        with pytest.raises(FcmCommandError) as err:
            self.disc.invoke_local("playback.pause")
        assert err.value.status == "EINVALID_STATE"
        self.disc.invoke_local("playback.play")
        self.disc.invoke_local("playback.pause")
        assert self.disc.get_state("playback") == "pause"

    def test_tray_toggle_opens_then_closes(self):
        self.disc.invoke_local("playback.play")
        assert self.disc.invoke_local("tray.toggle") == {"tray_open": True}
        assert self.disc.get_state("playback") == "stop"
        with pytest.raises(FcmCommandError) as err:
            self.disc.invoke_local("chapter.next")
        assert err.value.status == "EINVALID_STATE"
        assert self.disc.invoke_local("tray.toggle") == {"tray_open": False}
        self.disc.invoke_local("playback.play")
        assert self.disc.get_state("playback") == "play"

    def test_tray_close_needs_power(self):
        self.disc.invoke_local("tray.open")
        self.disc.invoke_local("power.set", {"on": False})
        with pytest.raises(FcmCommandError) as err:
            self.disc.invoke_local("tray.close")
        assert err.value.status == "EPOWER_OFF"
        assert self.disc.get_state("tray_open") is True

    def test_power_off_stops_playback(self):
        self.disc.invoke_local("playback.play")
        self.disc.invoke_local("power.set", {"on": False})
        assert self.disc.get_state("playback") == "stop"
        assert self.disc.get_state("power") is False


class TestAircon:
    def setup_method(self):
        self.ac = AirConditioner("AC")
        self.network = installed(self.ac)
        self.fcm = fcm_of(self.ac, FcmType.AIRCON)

    def test_room_cools_toward_target(self):
        self.fcm.invoke_local("power.set", {"on": True})
        self.fcm.invoke_local("temp.set", {"temp": 20})
        start = self.fcm.room_temp()
        self.network.scheduler.run_for(600.0)
        mid = self.fcm.room_temp()
        self.network.scheduler.run_for(3600.0)
        late = self.fcm.room_temp()
        assert start > mid > late
        assert late == pytest.approx(20.0, abs=0.5)

    def test_off_drifts_back_to_ambient(self):
        self.fcm.invoke_local("power.set", {"on": True})
        self.fcm.invoke_local("temp.set", {"temp": 18})
        self.network.scheduler.run_for(3600.0)
        self.fcm.invoke_local("power.set", {"on": False})
        self.network.scheduler.run_for(7200.0)
        from repro.appliances.aircon import AMBIENT
        assert self.fcm.room_temp() == pytest.approx(AMBIENT, abs=0.5)

    def test_temp_bounds(self):
        self.fcm.invoke_local("power.set", {"on": True})
        with pytest.raises(FcmCommandError):
            self.fcm.invoke_local("temp.set", {"temp": 10})
        with pytest.raises(FcmCommandError):
            self.fcm.invoke_local("temp.set", {"temp": 35})

    def test_mode_validation(self):
        self.fcm.invoke_local("power.set", {"on": True})
        self.fcm.invoke_local("mode.set", {"mode": "heat"})
        assert self.fcm.get_state("mode") == "heat"
        with pytest.raises(FcmCommandError):
            self.fcm.invoke_local("mode.set", {"mode": "arctic"})

    def test_dry_mode_settles_a_degree_above_target(self):
        self.fcm.invoke_local("power.set", {"on": True})
        self.fcm.invoke_local("temp.set", {"temp": 22})
        self.fcm.invoke_local("mode.set", {"mode": "dry"})
        self.network.scheduler.run_for(4 * 3600.0)
        assert self.fcm.room_temp() == pytest.approx(23.0, abs=0.1)

    def test_fan_mode_only_circulates(self):
        from repro.appliances.aircon import AMBIENT
        self.fcm.invoke_local("power.set", {"on": True})
        self.fcm.invoke_local("temp.set", {"temp": 18})
        self.fcm.invoke_local("mode.set", {"mode": "fan"})
        self.network.scheduler.run_for(3600.0)
        assert self.fcm.room_temp() == pytest.approx(AMBIENT)

    def test_fan_speed(self):
        with pytest.raises(FcmCommandError) as err:
            self.fcm.invoke_local("fan.set", {"fan": "high"})
        assert err.value.status == "EPOWER_OFF"
        self.fcm.invoke_local("power.set", {"on": True})
        assert self.fcm.invoke_local("fan.set", {"fan": "high"}) == {
            "fan": "high"}
        assert self.fcm.get_state("fan") == "high"
        with pytest.raises(FcmCommandError) as err:
            self.fcm.invoke_local("fan.set", {"fan": "turbo"})
        assert err.value.status == "EINVALID_ARG"
        assert self.fcm.get_state("fan") == "high"

    def test_read_temp_publishes_the_rounded_room_temp(self):
        self.fcm.invoke_local("power.set", {"on": True})
        self.fcm.invoke_local("temp.set", {"temp": 20})
        self.network.scheduler.run_for(900.0)
        reading = self.fcm.invoke_local("temp.read")["room_temp"]
        assert reading == round(self.fcm.room_temp(), 1)
        assert self.fcm.get_state("room_temp") == reading
        assert 20.0 < reading < 28.0


class TestLight:
    def test_toggle_and_dim(self):
        light = DimmableLight("Ceiling")
        installed(light)
        fcm = fcm_of(light, FcmType.LIGHT)
        fcm.invoke_local("power.toggle")
        assert fcm.get_state("power") is True
        fcm.invoke_local("brightness.set", {"brightness": 40})
        assert fcm.get_state("brightness") == 40
        fcm.invoke_local("power.toggle")
        assert fcm.get_state("power") is False

    def test_dimming_needs_power_and_a_valid_level(self):
        light = DimmableLight("Desk")
        installed(light)
        fcm = fcm_of(light, FcmType.LIGHT)
        with pytest.raises(FcmCommandError) as err:
            fcm.invoke_local("brightness.set", {"brightness": 30})
        assert err.value.status == "EPOWER_OFF"
        assert fcm.invoke_local("power.set", {"on": True}) == {"power": True}
        with pytest.raises(FcmCommandError) as err:
            fcm.invoke_local("brightness.set", {"brightness": 101})
        assert err.value.status == "EINVALID_ARG"
        assert fcm.get_state("brightness") == 100
        fcm.invoke_local("power.set", {"on": False})
        assert fcm.get_state("power") is False


class TestMicrowave:
    def setup_method(self):
        self.oven = MicrowaveOven("Oven")
        self.network = installed(self.oven)
        self.fcm = fcm_of(self.oven, FcmType.MICROWAVE)

    def test_cook_countdown_and_ding(self):
        bells = []
        self.network.events.subscribe("appliance.bell",
                                      lambda e: bells.append(e))
        self.fcm.invoke_local("timer.start", {"seconds": 90})
        self.network.scheduler.run_for(30.0)
        assert self.fcm.remaining() == pytest.approx(60.0)
        self.network.scheduler.run_until_idle()
        assert self.fcm.get_state("running") is False
        assert self.fcm.get_state("remaining_s") == 0
        assert self.fcm.get_state("cook_count") == 1
        assert len(bells) == 1

    def test_door_open_interrupts(self):
        self.fcm.invoke_local("timer.start", {"seconds": 60})
        self.network.scheduler.run_for(20.0)
        self.fcm.invoke_local("door.open")
        assert self.fcm.get_state("running") is False
        assert self.fcm.get_state("remaining_s") == pytest.approx(40, abs=1)
        # the cancelled finish event must never ding
        self.network.scheduler.run_until_idle()
        assert self.fcm.get_state("cook_count") == 0

    def test_cannot_start_with_door_open(self):
        self.fcm.invoke_local("door.open")
        with pytest.raises(FcmCommandError) as err:
            self.fcm.invoke_local("timer.start", {"seconds": 10})
        assert err.value.status == "EDOOR_OPEN"

    def test_cannot_start_twice(self):
        self.fcm.invoke_local("timer.start", {"seconds": 10})
        with pytest.raises(FcmCommandError):
            self.fcm.invoke_local("timer.start", {"seconds": 10})

    def test_stop_keeps_remaining(self):
        self.fcm.invoke_local("timer.start", {"seconds": 100})
        self.network.scheduler.run_for(25.0)
        result = self.fcm.invoke_local("timer.stop")
        assert result["remaining_s"] == 75

    def test_power_level_bounds(self):
        self.fcm.invoke_local("power_level.set", {"level": 10})
        assert self.fcm.get_state("power_level") == 10
        with pytest.raises(FcmCommandError):
            self.fcm.invoke_local("power_level.set", {"level": 11})

    def test_added_time_accumulates_and_clamps(self):
        self.fcm.invoke_local("timer.add", {"seconds": 60})
        self.fcm.invoke_local("timer.add", {"seconds": 10})
        assert self.fcm.get_state("pending_s") == 70
        assert self.fcm.get_state("time_text") == "1:10"
        with pytest.raises(FcmCommandError) as err:
            self.fcm.invoke_local("timer.add", {"seconds": 0})
        assert err.value.status == "EINVALID_ARG"
        from repro.appliances.microwave import MAX_SECONDS
        self.fcm.invoke_local("timer.add", {"seconds": 2 * MAX_SECONDS})
        assert self.fcm.get_state("pending_s") == MAX_SECONDS

    def test_clear_drops_pending_time(self):
        self.fcm.invoke_local("timer.add", {"seconds": 600})
        assert self.fcm.invoke_local("timer.clear") == {"pending_s": 0}
        assert self.fcm.get_state("time_text") == "0:00"
        with pytest.raises(FcmCommandError) as err:
            self.fcm.invoke_local("timer.start")
        assert err.value.status == "EINVALID_ARG"

    def test_start_cooks_the_pending_time(self):
        self.fcm.invoke_local("timer.add", {"seconds": 60})
        self.fcm.invoke_local("timer.add", {"seconds": 10})
        assert self.fcm.invoke_local("timer.start") == {
            "running": True, "remaining_s": 70}
        assert self.fcm.get_state("pending_s") == 0
        assert self.fcm.get_state("status") == "COOKING"
        with pytest.raises(FcmCommandError) as err:
            self.fcm.invoke_local("timer.add", {"seconds": 10})
        assert err.value.status == "EINVALID_STATE"
        self.network.scheduler.run_until_idle()
        assert self.fcm.get_state("status") == "READY"
        assert self.fcm.get_state("cook_count") == 1

    def test_remaining_reports_the_countdown(self):
        self.fcm.invoke_local("timer.start", {"seconds": 100})
        self.network.scheduler.run_for(40.0)
        assert self.fcm.invoke_local("timer.remaining") == {
            "remaining_s": 60, "running": True}
        assert self.fcm.get_state("remaining_s") == 60

    def test_stop_when_idle_rejected(self):
        with pytest.raises(FcmCommandError) as err:
            self.fcm.invoke_local("timer.stop")
        assert err.value.status == "EINVALID_STATE"

    def test_door_toggle_and_close(self):
        assert self.fcm.invoke_local("door.toggle") == {"door_open": True}
        assert self.fcm.get_state("status") == "DOOR OPEN"
        assert self.fcm.invoke_local("door.toggle") == {"door_open": False}
        assert self.fcm.get_state("status") == "READY"
        self.fcm.invoke_local("door.open")
        self.fcm.invoke_local("door.close")
        assert self.fcm.get_state("door_open") is False
        self.fcm.invoke_local("timer.start", {"seconds": 5})
        assert self.fcm.get_state("running") is True


class TestRefrigerator:
    def setup_method(self):
        self.fridge = Refrigerator("Fridge")
        installed(self.fridge)
        self.fcm = fcm_of(self.fridge, FcmType.REFRIGERATOR)

    def test_always_powered(self):
        assert self.fcm.get_state("power") is True
        assert "power.set" not in self.fcm.commands

    def test_fridge_target_bounds(self):
        self.fcm.invoke_local("fridge.temp.set", {"temp": 2})
        assert self.fcm.get_state("fridge_target") == 2
        assert self.fcm.get_state("fridge_temp") == 2
        for temp in (0, 8):
            with pytest.raises(FcmCommandError) as err:
                self.fcm.invoke_local("fridge.temp.set", {"temp": temp})
            assert err.value.status == "EINVALID_ARG"
        assert self.fcm.get_state("fridge_target") == 2

    def test_freezer_target_bounds(self):
        self.fcm.invoke_local("freezer.temp.set", {"temp": -20})
        assert self.fcm.get_state("freezer_target") == -20
        assert self.fcm.get_state("freezer_temp") == -20
        for temp in (-25, -15):
            with pytest.raises(FcmCommandError):
                self.fcm.invoke_local("freezer.temp.set", {"temp": temp})
        assert self.fcm.get_state("freezer_target") == -20

    def test_quick_cool_switch(self):
        assert self.fcm.get_state("quick-cool") is False
        self.fcm.invoke_local("fridge.quick_cool.set", {"on": True})
        assert self.fcm.get_state("quick-cool") is True
        with pytest.raises(FcmCommandError) as err:
            self.fcm.invoke_local("fridge.quick_cool.set", {})
        assert err.value.status == "EINVALID_ARG"

    def test_ice_mode_choice(self):
        assert self.fcm.get_state("ice-mode") == "normal"
        self.fcm.invoke_local("ice.mode.set", {"mode": "fast"})
        assert self.fcm.get_state("ice-mode") == "fast"
        with pytest.raises(FcmCommandError):
            self.fcm.invoke_local("ice.mode.set", {"mode": "crushed"})
        assert self.fcm.get_state("ice-mode") == "fast"

    def test_dispense_drains_the_bin_to_empty(self):
        levels = [self.fcm.invoke_local("ice.dispense")["ice_level"]
                  for _ in range(8)]
        assert levels == [50, 40, 30, 20, 10, 0, 0, 0]


class TestFcmDispatch:
    def setup_method(self):
        self.tv = Television("TV")
        self.network = installed(self.tv)
        self.tuner = fcm_of(self.tv, FcmType.TUNER)

    def test_unknown_verb_over_messaging_is_unsupported(self):
        from repro.havi import SEID, SoftwareElement
        client = SoftwareElement(SEID("1234123412341234", 0),
                                 self.network.messaging)
        client.attach()
        replies = []
        client.send_request(self.tuner.seid, "channel.teleport", {},
                            on_reply=replies.append)
        self.network.settle()
        assert [r.status for r in replies] == ["EUNSUPPORTED"]

    def test_command_error_travels_as_reply_status(self):
        from repro.havi import SEID, SoftwareElement
        client = SoftwareElement(SEID("1234123412341234", 0),
                                 self.network.messaging)
        client.attach()
        replies = []
        client.send_request(self.tuner.seid, "channel.set", {"channel": 4},
                            on_reply=replies.append)
        self.network.settle()
        assert replies[0].status == "EPOWER_OFF"
        assert "powered off" in replies[0].payload["detail"]

    def test_unknown_verb_locally_raises(self):
        with pytest.raises(FcmCommandError) as err:
            self.tuner.invoke_local("channel.teleport")
        assert err.value.status == "EUNSUPPORTED"

    def test_missing_argument_rejected(self):
        self.tuner.invoke_local("power.set", {"on": True})
        with pytest.raises(FcmCommandError) as err:
            self.tuner.invoke_local("channel.set", {})
        assert err.value.status == "EINVALID_ARG"
        assert "channel" in str(err.value)
