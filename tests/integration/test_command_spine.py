"""Integration tests: the command spine end-to-end through a real home.

Covers the PR's acceptance criteria: ``Home.submit_command`` drives an
appliance and stays trackable under injected faults; every actuation
origin (widget, ddi, voice, api) lands in the per-home journal; and the
spine migration left the wire byte-identical on the happy path.
"""

import pytest

from repro import Home
from repro.app.commands import CommandState
from repro.app.handles import DdiController, FcmHandle
from repro.appliances import MicrowaveOven, Television
from repro.devices import Pda
from repro.havi import FcmType, SEID
from repro.net.faults import FaultPlan
from repro.toolkit import Slider, ToggleButton
from repro.tools.report import render_command_journal
from repro.util.ids import guid_from_seed


def make_home(*appliances):
    home = Home()
    for appliance in appliances:
        home.add_appliance(appliance)
    home.settle()
    return home


class TestSubmitCommand:
    def test_drives_microwave_to_done(self):
        oven = MicrowaveOven("Oven")
        home = make_home(oven)
        command = home.submit_command("Oven", "timer.add", {"seconds": 90})
        assert command.state is CommandState.INFLIGHT
        home.settle()
        assert command.ok
        assert command.result == {"pending_s": 90}
        fcm = oven.dcm.fcm_by_type(FcmType.MICROWAVE)
        assert fcm.get_state("pending_s") == 90

    def test_routes_by_capability_descriptor(self):
        home = make_home(Television("TV"))
        command = home.submit_command("TV", "volume.set", {"volume": 40})
        home.settle()
        # volume.set only exists on the tuner FCM: the spine found it
        assert command.status in ("SUCCESS", "EPOWER_OFF")
        assert command.done

    def test_unknown_appliance_raises(self):
        from repro.util.errors import HaviError
        home = make_home(MicrowaveOven("Oven"))
        with pytest.raises(HaviError, match="Toaster"):
            home.submit_command("Toaster", "timer.add", {"seconds": 5})

    def test_times_out_under_total_drop(self):
        oven = MicrowaveOven("Oven")
        home = make_home(oven)
        home.network.messaging.inject_faults(FaultPlan(drop=1.0), "bus")
        command = home.submit_command("Oven", "timer.add", {"seconds": 30})
        home.settle()  # fires the 2 s guard timer on the virtual clock
        home.network.messaging.clear_faults()
        assert command.state is CommandState.TIMED_OUT
        assert command.status == "ETIMEOUT"
        assert home.network.messaging.messages_fault_dropped >= 1
        assert home.network.messaging.requests_timed_out == 1
        # the oven never cooked
        fcm = oven.dcm.fcm_by_type(FcmType.MICROWAVE)
        assert fcm.get_state("pending_s") == 0

    def test_survives_delay_faults(self):
        home = make_home(MicrowaveOven("Oven"))
        home.network.messaging.inject_faults(
            FaultPlan(delay=1.0, delay_s=0.4), "bus")
        command = home.submit_command("Oven", "timer.add", {"seconds": 30})
        home.settle()
        home.network.messaging.clear_faults()
        # request and reply each held 0.4 s: slow, but inside the guard
        assert command.ok
        assert command.latency_s is not None
        assert command.latency_s >= 0.4
        assert home.network.messaging.messages_fault_delayed >= 1

    def test_journal_records_fault_run(self):
        home = make_home(MicrowaveOven("Oven"))
        ok = home.submit_command("Oven", "timer.add", {"seconds": 10})
        home.settle()
        home.network.messaging.inject_faults(FaultPlan(drop=1.0), "bus")
        bad = home.submit_command("Oven", "timer.add", {"seconds": 20})
        home.settle()
        home.network.messaging.clear_faults()
        assert ok.ok and bad.state is CommandState.TIMED_OUT
        journal = [c for c in home.command_log if c.origin == "api"]
        assert [c.state for c in journal] == [
            CommandState.DONE, CommandState.TIMED_OUT]
        text = render_command_journal(home.command_log)
        assert "timer.add" in text
        assert "timed_out" in text
        assert f"{ok.command_id:>5}" in text


class TestJournalRendering:
    def test_a_long_journal_shows_the_latest_rows_and_counts_the_rest(self):
        home = make_home(Television("TV"))
        for channel in range(5):
            home.submit_command("TV", "channel.set", {"channel": channel + 1})
            home.settle()
        text = render_command_journal(home.command_log, limit=2)
        assert text.count("channel.set") == 2
        assert f"... {len(home.command_log) - 2} older in ring, 0 rotated out" \
            in text


class TestOriginCoverage:
    def test_every_origin_reaches_the_home_journal(self):
        """Widget click, DDI action and the programmatic API all surface
        in ``home.command_log`` with their origin."""
        tv = Television("TV")
        home = make_home(tv, MicrowaveOven("Oven"))

        # widget: a panel toggle, exactly as if clicked on screen
        guid8 = tv.guid[:8]
        power = home.window.root.find(f"{guid8}.tuner.power")
        assert isinstance(power, ToggleButton)
        power.toggle()
        home.settle()

        # ddi: a native DDI controller over the TV's tree, sharing the
        # home journal
        controller = DdiController(
            SEID(guid_from_seed("spine-ddi"), 0), home.network.messaging,
            home.network.events, command_log=home.command_log)
        controller.attach()
        controller.open(tv.dcm.seid)
        home.settle()
        ddi_cmd = controller.action("1:volume", "set", 25)
        home.settle()
        assert ddi_cmd.ok

        # api: the programmatic seam
        api_cmd = home.submit_command("Oven", "timer.add", {"seconds": 60})
        home.settle()
        assert api_cmd.ok

        origins = home.command_log.stats()["by_origin"]
        for origin in ("widget", "ddi", "api"):
            assert origins.get(origin, 0) >= 1, origins
        # and the whole history partitions cleanly
        stats = home.command_log.stats()
        assert sum(stats["terminal"].values()) == stats["submitted"]


class TestWireParity:
    """The migration guard: routing every actuation through the spine
    must not change a single byte on a thin client's link."""

    SCENARIO_VOLUMES = (35, 60, 80)

    def _run_scenario(self, tv):
        home = make_home(tv, MicrowaveOven("Oven"))
        pda = Pda("meter", home.scheduler)
        pda.connect(home.proxy)
        home.proxy.select_output("meter")
        home.settle()
        bytes_seen = [pda.link_stats.bytes_received]
        guid8 = tv.guid[:8]
        power = home.window.root.find(f"{guid8}.tuner.power")
        power.toggle()
        home.settle()
        bytes_seen.append(pda.link_stats.bytes_received)
        for volume in self.SCENARIO_VOLUMES:
            slider = home.window.root.find(f"{guid8}.tuner.volume")
            assert isinstance(slider, Slider)
            slider._set_and_notify(volume)
            home.settle()
            bytes_seen.append(pda.link_stats.bytes_received)
        return bytes_seen

    def test_panel_churn_bytes_identical_to_direct_dispatch(
            self, monkeypatch):
        spine_bytes = self._run_scenario(Television("TV"))

        def direct_command(self, opcode, payload=None, on_reply=None,
                           origin="api"):
            # the pre-spine FcmHandle.command, verbatim: straight to
            # send_request, errors recorded, nothing tracked
            self.commands_sent += 1

            def handle_reply(message):
                if message.status != "SUCCESS":
                    detail = message.payload.get("detail", "")
                    error = f"{opcode}: {message.status} {detail}".strip()
                    self.errors.append(error)
                if on_reply is not None:
                    on_reply(message)

            self.app.send_request(self.seid, opcode, payload or {},
                                  on_reply=handle_reply)

        monkeypatch.setattr(FcmHandle, "command", direct_command)
        direct_bytes = self._run_scenario(Television("TV"))
        assert spine_bytes == direct_bytes
        # the scenario actually shipped frames at every step
        assert all(b > 0 for b in spine_bytes)
        assert spine_bytes == sorted(spine_bytes)
