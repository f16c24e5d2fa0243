"""Unit tests for the HAVi stream manager."""

import pytest

from repro.appliances import Amplifier, DvdPlayer, Television, VideoRecorder
from repro.havi import FcmType, HomeNetwork
from repro.havi.streams import Plug
from repro.util.errors import HaviError


def home_with(*appliances):
    network = HomeNetwork()
    for appliance in appliances:
        network.attach_device(appliance)
    network.settle()
    return network


class TestConnect:
    def setup_method(self):
        self.tv = Television("TV")
        self.vcr = VideoRecorder("VCR")
        self.network = home_with(self.tv, self.vcr)
        self.display = self.tv.dcm.fcm_by_type(FcmType.DISPLAY)
        self.deck = self.vcr.dcm.fcm_by_type(FcmType.VCR)

    def test_watch_tape_retunes_display(self):
        """Connecting VCR video-out to TV video-in switches the source."""
        assert self.display.get_state("source") == "tuner"
        connection = self.network.streams.connect(
            self.deck.seid, "video-out", self.display.seid, "video-in")
        assert connection.media == "av"
        assert self.display.get_state("source") == "vcr"
        assert self.display.get_state("stream_source") == str(self.deck.seid)

    def test_disconnect_reverts_to_tuner(self):
        connection = self.network.streams.connect(
            self.deck.seid, "video-out", self.display.seid, "video-in")
        self.network.streams.disconnect(connection.connection_id)
        assert self.display.get_state("source") == "tuner"
        assert self.network.streams.connections == []

    def test_direction_validation(self):
        with pytest.raises(HaviError):
            self.network.streams.connect(
                self.display.seid, "video-in", self.deck.seid, "video-out")

    def test_sink_must_be_an_input(self):
        dvd = DvdPlayer("DVD")
        self.network.attach_device(dvd)
        self.network.settle()
        disc = dvd.dcm.fcm_by_type(FcmType.AV_DISC)
        with pytest.raises(HaviError, match="not an input"):
            self.network.streams.connect(
                self.deck.seid, "video-out", disc.seid, "av-out")

    def test_plug_direction_must_be_in_or_out(self):
        with pytest.raises(HaviError, match="in/out"):
            Plug("video", "both")

    def test_unknown_plug_rejected(self):
        with pytest.raises(HaviError):
            self.network.streams.connect(
                self.deck.seid, "scart", self.display.seid, "video-in")

    def test_sink_exclusivity(self):
        dvd = DvdPlayer("DVD")
        self.network.attach_device(dvd)
        self.network.settle()
        disc = dvd.dcm.fcm_by_type(FcmType.AV_DISC)
        self.network.streams.connect(
            self.deck.seid, "video-out", self.display.seid, "video-in")
        with pytest.raises(HaviError):
            self.network.streams.connect(
                disc.seid, "av-out", self.display.seid, "video-in")

    def test_source_fan_out_allowed(self):
        """One source may feed several sinks (video + audio)."""
        amp = Amplifier("Amp")
        self.network.attach_device(amp)
        self.network.settle()
        amp_fcm = amp.dcm.fcm_by_type(FcmType.AMPLIFIER)
        self.network.streams.connect(
            self.deck.seid, "video-out", self.display.seid, "video-in")
        self.network.streams.connect(
            self.deck.seid, "video-out", amp_fcm.seid, "audio-in")
        assert [c.source for c in self.network.streams.connections] \
            == [self.deck.seid, self.deck.seid]
        assert amp_fcm.get_state("source") == "aux"

    def test_dvd_to_display(self):
        dvd = DvdPlayer("DVD")
        self.network.attach_device(dvd)
        self.network.settle()
        disc = dvd.dcm.fcm_by_type(FcmType.AV_DISC)
        self.network.streams.connect(
            disc.seid, "av-out", self.display.seid, "video-in")
        assert self.display.get_state("source") == "dvd"

    def test_events_posted(self):
        seen = []
        self.network.events.subscribe("stream.",
                                      lambda e: seen.append(e.opcode))
        connection = self.network.streams.connect(
            self.deck.seid, "video-out", self.display.seid, "video-in")
        self.network.streams.disconnect(connection.connection_id)
        self.network.settle()
        assert seen == ["stream.connected", "stream.disconnected"]

    def test_disconnect_unknown_rejected(self):
        with pytest.raises(HaviError):
            self.network.streams.disconnect(99)


class TestHotplugTeardown:
    def test_source_departure_tears_down_connection(self):
        tv = Television("TV")
        vcr = VideoRecorder("VCR")
        network = home_with(tv, vcr)
        display = tv.dcm.fcm_by_type(FcmType.DISPLAY)
        deck = vcr.dcm.fcm_by_type(FcmType.VCR)
        network.streams.connect(deck.seid, "video-out",
                                display.seid, "video-in")
        network.detach_device(vcr.guid)
        network.settle()
        assert network.streams.connections == []
        assert display.get_state("source") == "tuner"

    def test_sink_departure_tears_down_connection(self):
        tv = Television("TV")
        vcr = VideoRecorder("VCR")
        network = home_with(tv, vcr)
        display = tv.dcm.fcm_by_type(FcmType.DISPLAY)
        deck = vcr.dcm.fcm_by_type(FcmType.VCR)
        network.streams.connect(deck.seid, "video-out",
                                display.seid, "video-in")
        network.detach_device(tv.guid)
        network.settle()
        assert network.streams.connections == []
