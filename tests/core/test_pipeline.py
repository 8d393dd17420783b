"""Tests for the AutoSens engine (pipeline-level behaviour)."""

import numpy as np
import pytest

from repro.errors import ConfigError, InsufficientDataError
from repro.core import AutoSens, AutoSensConfig
from repro.core.validation import compare_to_truth, monotone_ordering
from repro.types import ActionType, DayPeriod, UserClass


class TestConfig:
    def test_defaults_match_paper(self):
        config = AutoSensConfig()
        assert config.bin_width_ms == 10.0
        assert config.smoothing_window == 101
        assert config.smoothing_degree == 3
        assert config.reference_ms == 300.0
        assert config.time_correction is True

    def test_bins(self):
        assert AutoSensConfig().bins().count == 300

    def test_validation(self):
        with pytest.raises(ConfigError):
            AutoSensConfig(n_reference_slots=0)


class TestPreferenceCurve:
    def test_basic_curve(self, owa_logs, engine):
        curve = engine.preference_curve(owa_logs, action="SelectMail",
                                        user_class="business")
        assert curve.n_actions > 1000
        assert "SelectMail" in curve.slice_description
        assert float(curve.at(1000.0)) < float(curve.at(400.0))

    def test_reference_value_is_one(self, owa_logs, engine):
        curve = engine.preference_curve(owa_logs, action="SelectMail")
        assert float(curve.at(300.0)) == pytest.approx(1.0, abs=0.03)

    def test_accepts_enums(self, owa_logs, engine):
        curve = engine.preference_curve(owa_logs,
                                        action=ActionType.SELECT_MAIL,
                                        user_class=UserClass.BUSINESS)
        assert curve.n_actions > 0

    def test_insufficient_slice_raises(self, owa_logs, engine):
        with pytest.raises(InsufficientDataError):
            engine.preference_curve(owa_logs, action="NoSuchAction")

    def test_metadata_reference_slots(self, owa_logs, engine):
        curve = engine.preference_curve(owa_logs, action="SelectMail")
        refs = curve.metadata["reference_slots"]
        assert len(refs) == engine.config.n_reference_slots

    def test_no_time_correction_mode(self, owa_logs):
        engine = AutoSens(AutoSensConfig(seed=1, time_correction=False))
        curve = engine.preference_curve(owa_logs, action="SelectMail")
        assert "reference_slots" not in curve.metadata

    def test_deterministic_given_seed(self, owa_logs):
        a = AutoSens(AutoSensConfig(seed=5)).preference_curve(
            owa_logs, action="SelectMail")
        b = AutoSens(AutoSensConfig(seed=5)).preference_curve(
            owa_logs, action="SelectMail")
        assert np.allclose(a.nlp, b.nlp, equal_nan=True)


class TestSegmentations:
    def test_curves_by_action(self, owa_logs, engine):
        curves = engine.curves_by_action(owa_logs, user_class="business")
        assert set(curves) == {a.value for a in ActionType}

    def test_curves_by_user_class(self, owa_logs, engine):
        curves = engine.curves_by_user_class(owa_logs, action="SelectMail")
        assert set(curves) == {"business", "consumer"}

    def test_curves_by_period(self, owa_logs, engine):
        curves = engine.curves_by_period(owa_logs, action="SelectMail")
        assert len(curves) == 4

    def test_curves_by_quartile(self, conditioning_result, engine):
        curves = engine.curves_by_quartile(conditioning_result.logs,
                                           action="SelectMail")
        assert set(curves) == {"Q1", "Q2", "Q3", "Q4"}
        assert all("quartile=" in c.slice_description for c in curves.values())

    def test_curves_by_month_autodetect(self, owa_logs, engine):
        curves = engine.curves_by_month(owa_logs, action="SelectMail",
                                        days_per_month=3)
        assert 0 in curves

    def test_monotone_ordering_helper(self, owa_logs, engine):
        curves = engine.curves_by_action(owa_logs, user_class="business")
        order = monotone_ordering(curves, at_latency=800.0)
        assert order[0] in ("SelectMail", "SwitchFolder")
        assert order[-1] == "ComposeSend"


class TestDistributions:
    def test_alpha_profile_period_scheme(self, owa_logs, engine):
        alpha = engine.alpha_profile(owa_logs, scheme="period",
                                     action="SelectMail")
        assert alpha.reference_slot == 0  # 8am-2pm
        assert alpha.alpha_by_slot.size == 4
        labels = alpha.labels()
        by_label = dict(zip(labels, alpha.alpha_by_slot))
        assert by_label["2am-8am"] < by_label["8am-2pm"]


class TestValidationHelpers:
    def test_compare_to_truth_reports(self, owa_logs, engine):
        curve = engine.preference_curve(owa_logs, action="SelectMail",
                                        user_class="business")
        report = compare_to_truth(curve, lambda lat: np.ones_like(lat),
                                  anchor_latencies=(500.0,))
        assert len(report.anchors) == 1
        assert report.anchors[0].expected == 1.0
        assert report.rows()[0]["latency_ms"] == 500.0

    def test_compare_out_of_range_anchors_skipped(self, owa_logs, engine):
        curve = engine.preference_curve(owa_logs, action="SelectMail")
        with pytest.raises(InsufficientDataError):
            compare_to_truth(curve, lambda lat: np.ones_like(lat),
                             anchor_latencies=(99_999.0,))
