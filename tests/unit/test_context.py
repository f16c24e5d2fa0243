"""Unit tests for the situation model, preferences and selection policy."""

import pytest

from repro.context import (
    Activity,
    ContextManager,
    DeviceArbiter,
    PreferenceStore,
    SelectionPolicy,
    UserSituation,
)
from repro.devices import (
    CellPhone,
    GesturePad,
    Pda,
    RemoteControl,
    TvDisplay,
    VoiceInput,
    WallDisplay,
)
from repro.util import Scheduler
from repro.util.errors import ContextError


def descriptors():
    scheduler = Scheduler()
    return [
        Pda("pda", scheduler).descriptor,
        CellPhone("phone", scheduler).descriptor,
        VoiceInput("voice", scheduler).descriptor,
        RemoteControl("remote", scheduler).descriptor,
        TvDisplay("tv-panel", scheduler).descriptor,
        WallDisplay("wall", scheduler).descriptor,
        GesturePad("wrist", scheduler).descriptor,
    ]


class TestSituation:
    def test_defaults(self):
        situation = UserSituation()
        assert situation.location == "living_room"
        assert situation.activity is Activity.IDLE

    def test_validation(self):
        with pytest.raises(ContextError):
            UserSituation(location="garage")
        with pytest.raises(ContextError):
            UserSituation(noise=1.5)

    def test_evolve_is_non_destructive(self):
        a = UserSituation()
        b = a.evolve(hands_busy=True)
        assert a.hands_busy is False
        assert b.hands_busy is True

    def test_canned_scenarios(self):
        cooking = UserSituation.cooking()
        assert cooking.location == "kitchen"
        assert cooking.hands_busy
        sofa = UserSituation.on_the_sofa()
        assert sofa.seated


class TestPreferences:
    def test_base_weight(self):
        prefs = PreferenceStore()
        prefs.rule("likes the pda", lambda s: True, pda=2.0)
        assert prefs.score("pda", UserSituation()) == 2.0
        assert prefs.score("phone", UserSituation()) == 0.0

    def test_conditional_rule(self):
        prefs = PreferenceStore()
        prefs.rule("boost voice while cooking",
                   lambda s: s.activity is Activity.COOKING, voice=3.0)
        assert prefs.score("voice", UserSituation()) == 0.0
        assert prefs.score("voice", UserSituation.cooking()) == 3.0

    def test_rules_add_up(self):
        prefs = PreferenceStore()
        prefs.rule("likes voice", lambda s: True, voice=1.0)
        prefs.rule("cooking boost",
                   lambda s: s.activity is Activity.COOKING, voice=3.0)
        assert prefs.score("voice", UserSituation()) == 1.0
        assert prefs.score("voice", UserSituation.cooking()) == 4.0


class TestPolicyScenarios:
    """The paper's §2.1 scenarios as executable policy assertions."""

    def test_cooking_selects_voice(self):
        policy = SelectionPolicy()
        input_id, output_id = policy.choose(descriptors(),
                                            UserSituation.cooking())
        assert input_id == "voice"

    def test_cooking_output_is_kitchen_wall_display(self):
        policy = SelectionPolicy()
        _, output_id = policy.choose(descriptors(), UserSituation.cooking())
        assert output_id == "wall"  # the kitchen display wins on location

    def test_sofa_selects_remote_and_tv(self):
        policy = SelectionPolicy()
        input_id, output_id = policy.choose(descriptors(),
                                            UserSituation.on_the_sofa())
        assert input_id == "remote"
        assert output_id == "tv-panel"

    def test_outside_prefers_carried_devices(self):
        policy = SelectionPolicy()
        situation = UserSituation(location="outside")
        input_id, output_id = policy.choose(descriptors(), situation)
        assert input_id in ("phone", "pda", "remote")
        assert output_id in ("phone", "pda")  # fixed panels penalised away

    def test_noise_suppresses_voice(self):
        policy = SelectionPolicy()
        noisy_cooking = UserSituation.cooking().evolve(noise=0.9)
        ranked = policy.rank_inputs(descriptors(), noisy_cooking)
        voice_score = next(s for s in ranked if s.kind == "voice").score
        gesture_score = next(s for s in ranked if s.kind == "gesture").score
        assert gesture_score > voice_score

    def test_user_preference_overrides_situation(self):
        prefs = PreferenceStore()
        prefs.rule("loves the wrist pad", lambda s: True, gesture=10.0)
        policy = SelectionPolicy(prefs)
        input_id, _ = policy.choose(descriptors(), UserSituation.cooking())
        assert input_id == "wrist"

    def test_ranking_is_deterministic(self):
        policy = SelectionPolicy()
        a = policy.rank_inputs(descriptors(), UserSituation())
        b = policy.rank_inputs(list(reversed(descriptors())),
                               UserSituation())
        assert [s.device_id for s in a] == [s.device_id for s in b]

    def test_scores_carry_reasons(self):
        policy = SelectionPolicy()
        scored = policy.score_input(
            VoiceInput("voice", Scheduler()).descriptor,
            UserSituation.cooking())
        reasons = dict(scored.reasons)
        assert "hands busy: hands-free input" in reasons

    def test_no_devices_selects_none(self):
        policy = SelectionPolicy()
        assert policy.choose([], UserSituation()) == (None, None)

    def test_output_only_devices_never_chosen_for_input(self):
        policy = SelectionPolicy()
        scheduler = Scheduler()
        only_displays = [TvDisplay("tv", scheduler).descriptor]
        input_id, output_id = policy.choose(only_displays, UserSituation())
        assert input_id is None
        assert output_id == "tv"


class TestDeviceArbiter:
    """Unit-level arbitration: managers over shared proxies, no sessions."""

    def _pair(self):
        from repro.proxy import UniIntProxy
        scheduler = Scheduler()
        arbiter = DeviceArbiter(scheduler)
        managers = {}
        for user_id in ("alice", "bob"):
            proxy = UniIntProxy(scheduler, proxy_id=f"proxy-{user_id}")
            manager = ContextManager(proxy, SelectionPolicy(),
                                     user_id=user_id, arbiter=arbiter)
            arbiter.register(manager)
            managers[user_id] = manager
        return scheduler, arbiter, managers["alice"], managers["bob"]

    def _share(self, device_cls, device_id, scheduler, *managers):
        device = device_cls(device_id, scheduler)
        for manager in managers:
            device.connect(manager.proxy)
        return device

    def test_first_claim_wins_and_is_recorded(self):
        scheduler, arbiter, alice, bob = self._pair()
        self._share(TvDisplay, "panel", scheduler, alice, bob)
        alice.reselect()
        assert arbiter.holders.get("panel") == "alice"
        assert arbiter.handoffs[-1].to_user == "alice"
        assert arbiter.handoffs[-1].preempted is False

    def test_equal_score_cannot_preempt(self):
        scheduler, arbiter, alice, bob = self._pair()
        self._share(TvDisplay, "panel", scheduler, alice, bob)
        alice.reselect()
        bob.reselect()           # identical situation: strict > required
        assert arbiter.holders.get("panel") == "alice"
        assert arbiter.preemptions == 0

    def test_higher_score_preempts_and_wakes_loser(self):
        scheduler, arbiter, alice, bob = self._pair()
        self._share(TvDisplay, "panel", scheduler, alice, bob)
        self._share(Pda, "spare", scheduler, alice, bob)
        alice.reselect()   # alice standing in the room takes the panel
        bob.set_situation(UserSituation.on_the_sofa())   # bob outscores
        assert arbiter.holders.get("panel") == "bob"
        assert arbiter.preemptions == 1
        scheduler.run_until_idle()   # the loser's deferred reselect runs
        assert alice.history[-1].output_device == "spare"

    def test_duplicate_registration_rejected(self):
        scheduler, arbiter, alice, bob = self._pair()
        with pytest.raises(ContextError):
            arbiter.register(alice)

    def test_unregister_releases_and_wakes_survivors(self):
        scheduler, arbiter, alice, bob = self._pair()
        self._share(TvDisplay, "panel", scheduler, alice, bob)
        alice.reselect()
        bob.reselect()
        assert arbiter.holders.get("panel") == "alice"
        arbiter.unregister("alice")
        scheduler.run_until_idle()
        assert arbiter.holders.get("panel") == "bob"

    def test_without_arbiter_behaviour_is_single_user(self):
        from repro.proxy import UniIntProxy
        scheduler = Scheduler()
        proxy = UniIntProxy(scheduler)
        manager = ContextManager(proxy, SelectionPolicy())
        TvDisplay("panel", scheduler).connect(proxy)
        record = manager.reselect()
        assert record.output_device == "panel"
        assert record.user_id == "resident"
