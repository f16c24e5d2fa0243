"""Lifecycle and misuse error paths across layers."""

import pytest

from repro import Home
from repro.appliances import Television
from repro.havi import HomeNetwork
from repro.havi.dcm import Dcm
from repro.havi.fcm import Fcm, FcmType
from repro.util.errors import FcmError, HaviError


class TestDcmLifecycle:
    def _dcm(self, network):
        return Dcm("aabbccdd00112233", network.messaging, network.events,
                   network.registry, "tv", "ReproWorks", "T-1", "TV")

    def test_double_install_rejected(self):
        network = HomeNetwork()
        dcm = self._dcm(network)
        dcm.install()
        with pytest.raises(HaviError):
            dcm.install()

    def test_uninstall_without_install_rejected(self):
        network = HomeNetwork()
        dcm = self._dcm(network)
        with pytest.raises(HaviError):
            dcm.uninstall()

    def test_add_fcm_after_install_rejected(self):
        network = HomeNetwork()
        dcm = self._dcm(network)
        dcm.install()
        with pytest.raises(HaviError):
            dcm.add_fcm(Fcm)

    def test_install_uninstall_cycles(self):
        network = HomeNetwork()
        dcm = self._dcm(network)
        dcm.add_fcm(Fcm)
        for _ in range(3):
            dcm.install()
            assert len(network.registry) == 2
            dcm.uninstall()
            assert len(network.registry) == 0

    def test_describe_over_messaging(self):
        from repro.havi import SEID, SoftwareElement
        network = HomeNetwork()
        dcm = self._dcm(network)
        dcm.add_fcm(Fcm)
        dcm.install()
        client = SoftwareElement(SEID("9999888877776666", 0),
                                 network.messaging)
        client.attach()
        replies = []
        client.send_request(dcm.seid, "dcm.describe",
                            on_reply=replies.append)
        network.settle()
        assert replies[0].payload["name"] == "TV"
        assert len(replies[0].payload["fcm_seids"]) == 1


class TestFcmErrors:
    def test_duplicate_command_rejected(self):
        network = HomeNetwork()
        from repro.havi import SEID
        fcm = Fcm(SEID("ab" * 8, 1), network.messaging, network.events,
                  "ab" * 8, "x")
        with pytest.raises(FcmError):
            fcm.register_command("fcm.describe", lambda p: {})

    def test_invoke_local_unknown_command(self):
        from repro.havi import SEID
        from repro.havi.fcm import FcmCommandError
        network = HomeNetwork()
        fcm = Fcm(SEID("ab" * 8, 1), network.messaging, network.events,
                  "ab" * 8, "x")
        with pytest.raises(FcmCommandError):
            fcm.invoke_local("no.such")

    def test_require_arg(self):
        from repro.havi.fcm import FcmCommandError
        with pytest.raises(FcmCommandError) as err:
            Fcm.require_arg({}, "volume")
        assert err.value.status == "EINVALID_ARG"
        assert Fcm.require_arg({"volume": 5}, "volume") == 5


class TestBusErrors:
    def test_double_attach_rejected(self):
        network = HomeNetwork()
        tv = Television("TV")
        network.attach_device(tv)
        with pytest.raises(HaviError):
            network.attach_device(tv)

    def test_detach_unknown_rejected(self):
        network = HomeNetwork()
        with pytest.raises(HaviError):
            network.detach_device("nope")


class TestHomeFacade:
    def test_screenshot_composites(self):
        home = Home()
        home.add_appliance(Television("TV"))
        home.settle()
        window = home.screenshot()
        # the app painted something other than wallpaper
        assert window.bitmap.get_pixel(10, 10) != (0, 24, 64)

    def test_remove_unknown_appliance_raises(self):
        from repro.util.errors import HaviError
        home = Home()
        with pytest.raises(HaviError, match="no appliance 'ghost'"):
            home.remove_appliance("ghost")

    def test_a_device_is_shared_or_owned_not_both(self):
        from repro.devices import Pda
        from repro.util.errors import ProxyError
        home = Home()
        pda = Pda("pda", home.scheduler)
        with pytest.raises(ProxyError, match="not both"):
            home.add_device(pda, user="resident", shared=True)
        assert "pda" not in home.devices

    def test_unknown_user_raises(self):
        from repro.util.errors import ProxyError
        home = Home()
        assert home.user().user_id == "resident"
        with pytest.raises(ProxyError, match="no user 'ghost'"):
            home.user("ghost")

    def test_unknown_fleet_home_raises(self):
        from repro import HomeFleet
        from repro.util.errors import ProxyError
        fleet = HomeFleet()
        try:
            with pytest.raises(ProxyError, match="no home 'ghost'"):
                fleet.home("ghost")
        finally:
            fleet.close()

    def test_remove_unknown_device_raises(self):
        from repro.util.errors import ProxyError
        home = Home()
        with pytest.raises(ProxyError, match="no device 'ghost'"):
            home.remove_device("ghost")

    def test_run_for_advances_time(self):
        home = Home()
        start = home.scheduler.now()
        home.run_for(5.0)
        assert home.scheduler.now() == start + 5.0
