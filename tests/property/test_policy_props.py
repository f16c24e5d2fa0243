"""Property tests for the device selection policy."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import PreferenceStore, SelectionPolicy, UserSituation
from repro.context.model import LOCATIONS, Activity
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

_SCHEDULER = Scheduler()
ALL_DESCRIPTORS = [
    Pda("pda", _SCHEDULER).descriptor,
    CellPhone("phone", _SCHEDULER).descriptor,
    VoiceInput("voice", _SCHEDULER).descriptor,
    RemoteControl("remote", _SCHEDULER).descriptor,
    TvDisplay("tv-panel", _SCHEDULER).descriptor,
    WallDisplay("wall", _SCHEDULER).descriptor,
    GesturePad("wrist", _SCHEDULER).descriptor,
]

situations = st.builds(
    UserSituation,
    location=st.sampled_from(LOCATIONS),
    activity=st.sampled_from(list(Activity)),
    hands_busy=st.booleans(),
    eyes_busy=st.booleans(),
    seated=st.booleans(),
    noise=st.floats(0.0, 1.0, allow_nan=False),
)

device_subsets = st.lists(st.sampled_from(ALL_DESCRIPTORS), min_size=0,
                          max_size=7, unique_by=lambda d: d.device_id)


class TestPolicyProperties:
    @given(situations, device_subsets)
    @settings(max_examples=80)
    def test_choice_is_deterministic(self, situation, devices):
        policy = SelectionPolicy()
        assert (policy.choose(devices, situation)
                == policy.choose(list(reversed(devices)), situation))

    @given(situations, device_subsets)
    @settings(max_examples=80)
    def test_choice_respects_roles(self, situation, devices):
        policy = SelectionPolicy()
        input_id, output_id = policy.choose(devices, situation)
        by_id = {d.device_id: d for d in devices}
        if input_id is not None:
            assert by_id[input_id].is_input
        if output_id is not None:
            assert by_id[output_id].is_output

    @given(situations)
    @settings(max_examples=60)
    def test_full_fleet_always_yields_both_roles(self, situation):
        policy = SelectionPolicy()
        input_id, output_id = policy.choose(ALL_DESCRIPTORS, situation)
        assert input_id is not None
        assert output_id is not None

    @given(situations, st.sampled_from(
        [d.kind for d in ALL_DESCRIPTORS if d.is_input]),
        st.floats(0.1, 20.0, allow_nan=False))
    @settings(max_examples=80)
    def test_preference_is_monotone(self, situation, kind, boost):
        """Raising a kind's weight never lowers its rank."""
        plain = SelectionPolicy()
        prefs = PreferenceStore()
        prefs.rule("standing weight", lambda s: True, **{kind: boost})
        boosted = SelectionPolicy(prefs)

        def rank(policy):
            order = [s.kind for s in policy.rank_inputs(ALL_DESCRIPTORS,
                                                        situation)]
            return order.index(kind)

        assert rank(boosted) <= rank(plain)

    @given(situations)
    @settings(max_examples=60)
    def test_scores_explain_their_totals(self, situation):
        policy = SelectionPolicy()
        for descriptor in ALL_DESCRIPTORS:
            if descriptor.is_input:
                scored = policy.score_input(descriptor, situation)
                assert scored.score == sum(d for _, d in scored.reasons)
            if descriptor.is_output:
                scored = policy.score_output(descriptor, situation)
                assert scored.score == sum(d for _, d in scored.reasons)

    @given(situations, device_subsets)
    @settings(max_examples=60)
    def test_ranking_sorted_descending(self, situation, devices):
        policy = SelectionPolicy()
        for ranked in (policy.rank_inputs(devices, situation),
                       policy.rank_outputs(devices, situation)):
            scores = [s.score for s in ranked]
            assert scores == sorted(scores, reverse=True)
