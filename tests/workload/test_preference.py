"""Tests for ground-truth preference curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.types import ActionType, DayPeriod, UserClass
from repro.workload.preference import (
    PAPER_ANCHORS,
    PERIOD_EXPONENTS,
    REFERENCE_LATENCY_MS,
    GroundTruth,
    PreferenceCurve,
    paper_curve,
)


class TestPreferenceCurve:
    def test_hits_anchors(self):
        curve = paper_curve(ActionType.SELECT_MAIL)
        anchors = PAPER_ANCHORS[ActionType.SELECT_MAIL.value]
        for latency, value in anchors.items():
            assert np.isclose(float(curve(np.array([latency]))[0]), value)

    def test_normalized_at_reference(self):
        curve = paper_curve(ActionType.SEARCH)
        out = curve.normalized(np.array([REFERENCE_LATENCY_MS]))
        assert np.isclose(out[0], 1.0)

    def test_paper_headline_values(self):
        """SelectMail: 0.88 / 0.68 / 0.61 at 500/1000/1500 ms (Section 3.2)."""
        curve = paper_curve(ActionType.SELECT_MAIL, UserClass.BUSINESS)
        values = curve.normalized(np.array([500.0, 1000.0, 1500.0]))
        assert np.allclose(values, [0.88, 0.68, 0.61], atol=1e-9)

    def test_monotone_decreasing_above_reference(self):
        for action in ActionType:
            curve = paper_curve(action)
            queries = np.linspace(300.0, 3000.0, 200)
            values = curve(queries)
            assert np.all(np.diff(values) <= 1e-9), action

    def test_flat_tails(self):
        curve = paper_curve(ActionType.SELECT_MAIL)
        assert float(curve(np.array([10.0]))[0]) == float(curve(np.array([50.0]))[0])
        assert float(curve(np.array([5000.0]))[0]) == float(curve(np.array([3000.0]))[0])

    def test_exponent_preserves_reference(self):
        curve = paper_curve(ActionType.SELECT_MAIL)
        out = curve.normalized(np.array([REFERENCE_LATENCY_MS]), exponent=1.7)
        assert np.isclose(out[0], 1.0)

    def test_exponent_steepens(self):
        curve = paper_curve(ActionType.SELECT_MAIL)
        base = curve.normalized(np.array([1000.0]))[0]
        steep = curve.normalized(np.array([1000.0]), exponent=1.5)[0]
        assert steep < base

    def test_rejects_single_anchor(self):
        with pytest.raises(ConfigError):
            PreferenceCurve.from_mapping({300.0: 1.0})

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ConfigError):
            PreferenceCurve.from_mapping({300.0: 1.0, 500.0: 0.0})

    def test_consumer_shallower_than_business(self):
        business = paper_curve(ActionType.SELECT_MAIL, UserClass.BUSINESS)
        consumer = paper_curve(ActionType.SELECT_MAIL, UserClass.CONSUMER)
        for latency in (500.0, 1000.0, 2000.0):
            assert (consumer.normalized(np.array([latency]))[0]
                    > business.normalized(np.array([latency]))[0])

    def test_consumer_fallback_softens(self):
        business = paper_curve(ActionType.SEARCH, UserClass.BUSINESS)
        consumer = paper_curve(ActionType.SEARCH, UserClass.CONSUMER)
        assert (consumer.normalized(np.array([1500.0]))[0]
                >= business.normalized(np.array([1500.0]))[0])

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError):
            paper_curve("NotAnAction")

    def test_max_value(self):
        curve = paper_curve(ActionType.SELECT_MAIL)
        assert curve.max_value >= 1.13


class TestGroundTruth:
    def test_paper_default_covers_all_pairs(self):
        truth = GroundTruth.paper_default()
        for action in ActionType:
            for user_class in UserClass:
                assert truth.curve_for(action.value, user_class.value) is not None

    def test_missing_pair_raises(self):
        truth = GroundTruth({("a", "b"): paper_curve(ActionType.SEARCH)})
        with pytest.raises(ConfigError):
            truth.curve_for("x", "y")

    def test_class_agnostic_fallback(self):
        truth = GroundTruth({("a", ""): paper_curve(ActionType.SEARCH)})
        assert truth.curve_for("a", "whatever") is truth.curves[("a", "")]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            GroundTruth({})

    def test_period_exponent_default_ones(self):
        truth = GroundTruth.paper_default(time_of_day_effect=False)
        exps = truth.period_exponent(np.array([3.0, 12.0, 22.0]))
        assert np.allclose(exps, 1.0)

    def test_period_exponent_enabled(self):
        truth = GroundTruth.paper_default(time_of_day_effect=True)
        exps = truth.period_exponent(np.array([10.0, 4.0]))
        assert exps[0] == PERIOD_EXPONENTS[DayPeriod.MORNING]
        assert exps[1] == PERIOD_EXPONENTS[DayPeriod.LATE_NIGHT]

    @pytest.mark.parametrize("exponents", [
        PERIOD_EXPONENTS, {DayPeriod.NIGHT: 0.5}, {DayPeriod.LATE_NIGHT: 2.0}])
    def test_period_exponent_is_of_hour_per_sample(self, exponents):
        edges = np.array([0.0, 2.0, 8.0, 14.0, 20.0, 24.0])
        hours = np.concatenate([
            np.linspace(-30.0, 54.0, 2001), edges, np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf), [-0.0, np.nan]]).reshape(43, 47)
        truth = GroundTruth({("a", ""): paper_curve(ActionType.SELECT_MAIL)},
                            period_exponents=exponents)
        expected = np.array([exponents.get(DayPeriod.of_hour(h), 1.0)
                             for h in hours.ravel()]).reshape(hours.shape)
        exps = truth.period_exponent(hours)
        assert exps.shape == hours.shape
        np.testing.assert_array_equal(exps, expected)

    def test_preference_combines_exponents(self):
        truth = GroundTruth.paper_default(time_of_day_effect=True)
        latencies = np.array([1000.0])
        base = truth.preference(latencies, "SelectMail", "business",
                                hours=None, user_exponent=1.0)
        night = truth.preference(latencies, "SelectMail", "business",
                                 hours=np.array([4.0]), user_exponent=1.0)
        assert night[0] > base[0]  # late-night exponent < 1 lifts preference

    def test_expected_nlp_period(self):
        truth = GroundTruth.paper_default(time_of_day_effect=True)
        flat = truth.expected_nlp(np.array([1000.0]), "SelectMail", "business")
        morning = truth.expected_nlp(np.array([1000.0]), "SelectMail", "business",
                                     period=DayPeriod.MORNING)
        assert morning[0] < flat[0]


@given(
    latency=st.floats(min_value=50.0, max_value=3000.0),
    exponent=st.floats(min_value=0.4, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_exponent_order_preserving(latency, exponent):
    """Property: power transforms preserve which side of 1.0 a value is on."""
    curve = paper_curve(ActionType.SELECT_MAIL)
    base = float(curve(np.array([latency]))[0])
    transformed = float(curve(np.array([latency]), exponent=exponent)[0])
    assert (base > 1.0) == (transformed > 1.0) or np.isclose(base, 1.0, atol=1e-6)
