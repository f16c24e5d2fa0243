"""Unit tests for the HAVi middleware substrate."""

import pytest

from repro.havi import (
    Comparison,
    HaviEvent,
    HaviMessage,
    HomeNetwork,
    MessageSystem,
    MessageType,
    QueryAnd,
    QueryNot,
    QueryOr,
    Registry,
    SEID,
    SoftwareElement,
)
from repro.util import Scheduler
from repro.util.errors import MessagingError, RegistryError


def seid(n, guid="aabbccdd00112233"):
    return SEID(guid, n)


class TestSeid:
    def test_roundtrip_str(self):
        s = SEID("deadbeef", 3)
        assert SEID.parse(str(s)) == s

    def test_text_without_a_guid_is_rejected(self):
        with pytest.raises(ValueError, match="malformed SEID"):
            SEID.parse("7")

    def test_validation(self):
        with pytest.raises(ValueError):
            SEID("", 0)
        with pytest.raises(ValueError):
            SEID("abc", -1)

    def test_ordering_stable(self):
        a = SEID("aaaa", 1)
        b = SEID("aaaa", 2)
        c = SEID("bbbb", 0)
        assert sorted([c, b, a]) == [a, b, c]


class TestMessageSystem:
    def setup_method(self):
        self.sched = Scheduler()
        self.ms = MessageSystem(self.sched)

    def test_delivery_is_asynchronous(self):
        got = []
        self.ms.register(seid(1), got.append)
        self.ms.send(HaviMessage(seid(2), seid(1), MessageType.REQUEST,
                                 "ping"))
        assert got == []  # not yet delivered
        self.sched.run_until_idle()
        assert len(got) == 1
        assert got[0].opcode == "ping"

    def test_request_response_correlation(self):
        def echo(message):
            self.ms.send(message.reply({"echo": message.payload["x"]}))

        self.ms.register(seid(1), echo)
        self.ms.register(seid(2), lambda m: None)
        replies = []
        self.ms.send_request(seid(2), seid(1), "echo", {"x": 42},
                             on_reply=replies.append)
        self.sched.run_until_idle()
        assert len(replies) == 1
        assert replies[0].payload == {"echo": 42}
        assert replies[0].status == "SUCCESS"

    def test_unknown_destination_bounces_error(self):
        self.ms.register(seid(2), lambda m: None)
        replies = []
        self.ms.send_request(seid(2), seid(99), "anything",
                             on_reply=replies.append)
        self.sched.run_until_idle()
        assert replies[0].status == "EUNKNOWN_ELEMENT"
        assert self.ms.messages_dropped == 1

    def test_duplicate_registration_rejected(self):
        self.ms.register(seid(1), lambda m: None)
        with pytest.raises(MessagingError):
            self.ms.register(seid(1), lambda m: None)

    def test_unregister_unknown_rejected(self):
        with pytest.raises(MessagingError):
            self.ms.unregister(seid(9))

    def test_reply_to_non_request_rejected(self):
        response = HaviMessage(seid(1), seid(2), MessageType.RESPONSE, "x")
        with pytest.raises(MessagingError):
            response.reply()

    def test_latency_applied(self):
        ms = MessageSystem(self.sched, latency=0.5)
        times = []
        ms.register(seid(1), lambda m: times.append(self.sched.now()))
        ms.send(HaviMessage(seid(2), seid(1), MessageType.REQUEST, "x"))
        self.sched.run_until_idle()
        assert times == [0.5]

    def test_unregister_drops_pending_reply(self):
        def late_echo(message):
            self.sched.call_later(1.0, lambda: self.ms.send(message.reply()))

        self.ms.register(seid(1), late_echo)
        self.ms.register(seid(2), lambda m: None)
        replies = []
        self.ms.send_request(seid(2), seid(1), "x", on_reply=replies.append)
        self.sched.run_for(0.01)
        self.ms.unregister(seid(2))
        self.sched.run_until_idle()
        assert replies == []


class TestRegistryQueries:
    def setup_method(self):
        self.registry = Registry()
        self.registry.register(seid(1), {"fcm.type": "tuner", "volume": 10})
        self.registry.register(seid(2), {"fcm.type": "vcr"})
        self.registry.register(seid(3, "ffff000011112222"),
                               {"fcm.type": "tuner", "volume": 90})

    def test_equality_query(self):
        result = self.registry.query(Comparison("fcm.type", "==", "tuner"))
        assert len(result) == 2

    def test_missing_attribute_never_matches(self):
        result = self.registry.query(Comparison("volume", ">", 0))
        assert seid(2) not in result

    def test_numeric_comparisons(self):
        assert self.registry.query(Comparison("volume", ">", 50)) == [
            seid(3, "ffff000011112222")]
        assert self.registry.query(Comparison("volume", "<=", 10)) == [
            seid(1)]

    @pytest.mark.parametrize("op, value, matched", [
        ("!=", "tuner", [2]),
        ("<", 50, [1]),
        (">=", 90, [3]),
        ("contains", "tun", [1, 3]),
    ])
    def test_other_comparisons(self, op, value, matched):
        attribute = "fcm.type" if isinstance(value, str) else "volume"
        seids = {1: seid(1), 2: seid(2), 3: seid(3, "ffff000011112222")}
        assert self.registry.query(Comparison(attribute, op, value)) == [
            seids[n] for n in matched]

    def test_exists(self):
        assert len(self.registry.query(Comparison("volume", "exists"))) == 2

    def test_and_or_not(self):
        tuner = Comparison("fcm.type", "==", "tuner")
        loud = Comparison("volume", ">", 50)
        assert self.registry.query(QueryAnd([tuner, loud])) == [
            seid(3, "ffff000011112222")]
        assert len(self.registry.query(QueryOr([tuner, loud]))) == 2
        assert self.registry.query(QueryAnd([tuner, QueryNot(loud)])) == [
            seid(1)]

    def test_operator_sugar(self):
        tuner = Comparison("fcm.type", "==", "tuner")
        loud = Comparison("volume", ">", 50)
        assert self.registry.query(tuner & ~loud) == [seid(1)]
        assert len(self.registry.query(tuner | loud)) == 2

    def test_query_none_returns_all(self):
        assert len(self.registry.query()) == 3

    @pytest.mark.parametrize("query", [QueryAnd, QueryOr])
    def test_a_boolean_query_needs_a_child(self, query):
        with pytest.raises(RegistryError, match="at least one child"):
            query([])

    def test_attributes_of_an_unknown_seid_are_refused(self):
        assert self.registry.get_attributes(seid(2)) == {"fcm.type": "vcr"}
        with pytest.raises(RegistryError, match="not in registry"):
            self.registry.get_attributes(seid(9))

    def test_type_mismatch_is_false_not_error(self):
        query = Comparison("fcm.type", ">", 5)  # str > int
        assert self.registry.query(query) == []

    def test_unknown_op_rejected(self):
        with pytest.raises(RegistryError):
            Comparison("a", "~=", 1)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            self.registry.register(seid(1), {})

    def test_unregister(self):
        self.registry.unregister(seid(2))
        assert len(self.registry) == 2
        with pytest.raises(RegistryError):
            self.registry.unregister(seid(2))

    def test_change_observers(self):
        changes = []
        self.registry.on_change.append(
            lambda kind, entry: changes.append((kind, entry.seid)))
        self.registry.register(seid(9), {})
        self.registry.unregister(seid(9))
        assert changes == [("registered", seid(9)),
                           ("unregistered", seid(9))]


class TestEventManager:
    def test_prefix_filtering(self):
        sched = Scheduler()
        from repro.havi.events import EventManager
        em = EventManager(sched)
        got = []
        em.subscribe("fcm.state", got.append)
        em.post(HaviEvent(seid(1), "fcm.state.power", {"value": True}))
        em.post(HaviEvent(seid(1), "dcm.installed", {}))
        sched.run_until_idle()
        assert [e.opcode for e in got] == ["fcm.state.power"]

    def test_unsubscribe(self):
        sched = Scheduler()
        from repro.havi.events import EventManager
        em = EventManager(sched)
        got = []
        ident = em.subscribe("", got.append)
        em.post(HaviEvent(seid(1), "one"))
        sched.run_until_idle()
        em.unsubscribe(ident)
        em.post(HaviEvent(seid(1), "two"))
        sched.run_until_idle()
        assert [e.opcode for e in got] == ["one"]

    def test_unsubscribe_in_flight(self):
        sched = Scheduler()
        from repro.havi.events import EventManager
        em = EventManager(sched)
        got = []
        ident = em.subscribe("", got.append)
        em.post(HaviEvent(seid(1), "x"))
        em.unsubscribe(ident)  # before delivery
        sched.run_until_idle()
        assert got == []


class TestSoftwareElement:
    def test_attach_detach(self):
        sched = Scheduler()
        ms = MessageSystem(sched)
        element = SoftwareElement(seid(1), ms)
        element.attach()
        assert ms.is_registered(seid(1))
        element.detach()
        assert not ms.is_registered(seid(1))
        element.detach()  # idempotent

    def test_double_attach_rejected(self):
        sched = Scheduler()
        ms = MessageSystem(sched)
        element = SoftwareElement(seid(1), ms)
        element.attach()
        with pytest.raises(MessagingError):
            element.attach()

    def test_unknown_request_gets_eunsupported(self):
        sched = Scheduler()
        ms = MessageSystem(sched)
        server = SoftwareElement(seid(1), ms)
        client = SoftwareElement(seid(2), ms)
        server.attach()
        client.attach()
        replies = []
        client.send_request(seid(1), "no.such.op", on_reply=replies.append)
        sched.run_until_idle()
        assert replies[0].status == "EUNSUPPORTED"


class TestHomeBusResetIsolation:
    """A faulty or re-entrant reset observer must not starve the rest
    (regression for the observer loop aborting on the first exception)."""

    def _bus(self):
        from repro.havi.bus import HomeBus
        scheduler = Scheduler()
        return scheduler, HomeBus(scheduler)

    def _device(self, guid):
        from repro.havi.bus import DeviceInfo

        class FakeDevice:
            def __init__(self, info):
                self.info = info

        return FakeDevice(DeviceInfo(guid=guid, device_class="x",
                                     manufacturer="m", model="mo",
                                     name=guid))

    def test_raising_observer_does_not_starve_the_rest(self):
        scheduler, bus = self._bus()
        seen = []

        def bad(devices):
            raise RuntimeError("observer exploded")

        bus.observe_resets(bad)
        bus.observe_resets(lambda devices: seen.append(len(devices)))
        bus.attach(self._device("g1"))
        with pytest.raises(RuntimeError, match="observer exploded"):
            scheduler.run_until_idle()
        # the second observer still saw the reset, and the failure was
        # counted for diagnostics
        assert seen == [1]
        assert bus.observer_errors == 1
        assert isinstance(bus.last_observer_error, RuntimeError)

    def test_reset_pending_not_wedged_after_observer_error(self):
        scheduler, bus = self._bus()

        errors = [RuntimeError("boom")]

        def bad(devices):
            if errors:
                raise errors.pop()

        bus.observe_resets(bad)
        bus.attach(self._device("g1"))
        with pytest.raises(RuntimeError):
            scheduler.run_until_idle()
        # the coalescing flag dropped before observers ran: the next
        # topology change fires a fresh reset
        seen = []
        bus.observe_resets(lambda devices: seen.append(len(devices)))
        bus.attach(self._device("g2"))
        scheduler.run_until_idle()
        assert seen == [2]
        assert bus.reset_count == 2

    def test_observer_attaching_device_mid_reset_schedules_new_reset(self):
        scheduler, bus = self._bus()
        extra = self._device("g2")
        sizes = []

        def grower(devices):
            if len(devices) == 1:
                bus.attach(extra)  # re-entrant topology change

        bus.observe_resets(grower)
        bus.observe_resets(lambda devices: sizes.append(len(devices)))
        bus.attach(self._device("g1"))
        scheduler.run_until_idle()
        # first reset saw 1 device, the re-entrant attach fired a second
        assert sizes == [1, 2]
        assert bus.reset_count == 2

    def test_observer_subscribing_mid_reset_joins_next_reset_only(self):
        scheduler, bus = self._bus()
        late_calls = []

        def late(devices):
            late_calls.append(len(devices))

        def subscriber(devices):
            if late not in bus._observers:
                bus.observe_resets(late)

        bus.observe_resets(subscriber)
        bus.attach(self._device("g1"))
        scheduler.run_until_idle()
        assert late_calls == []  # snapshot: not notified for this reset
        bus.attach(self._device("g2"))
        scheduler.run_until_idle()
        assert late_calls == [2]
