"""The stacked reference pass against its definition.

``reference_averaged_curve`` computes every α reference in one stacked pass
(one α broadcast, one U, one smoothing of the ratio stack). By definition
its curve is the NaN-aware average of one curve per reference, each built
from the one-reference public calls: ``alpha_from_counts(counts,
reference_slot=r)`` → ``corrected_histograms_from_counts`` →
``PreferenceComputer.compute`` on 1-D histograms. The two agree to 1e-12:
a smoothing solve with several right-hand sides may differ from one-column
solves in the last bits.
"""

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro.core import AutoSens, AutoSensConfig, DegradePolicy
from repro.core.alpha import alpha_from_counts, corrected_histograms_from_counts
from repro.core.preference import average_results
from repro.errors import InsufficientDataError
from repro.workload import owa_scenario

STORES = [dict(seed=5, duration_days=3.0, n_users=40),
          dict(seed=8, duration_days=4.0, n_users=25)]


def _definition(counts, config):
    """One curve per reference from the one-row public calls, averaged."""
    curves, used = [], []
    for reference in counts.busiest_slots(config.n_reference_slots):
        alpha = alpha_from_counts(
            counts, reference_slot=reference,
            bin_average=config.alpha_bin_average,
            min_bin_count=config.alpha_min_bin_count)
        biased, unbiased = corrected_histograms_from_counts(counts, alpha)
        try:
            curves.append(config.computer().compute(biased, unbiased))
        except InsufficientDataError:
            continue
        used.append(reference)
    return average_results(curves), used


@pytest.fixture(scope="module", params=range(len(STORES)))
def recorded(request):
    """Every (counts, config, curve) the curves_by_* sweeps of one store
    pass through ``reference_averaged_curve``."""
    logs = owa_scenario(**STORES[request.param]).generate().logs
    calls = []
    original = pipeline.reference_averaged_curve

    def recording(counts, config, *args, **kwargs):
        result = original(counts, config, *args, **kwargs)
        calls.append((counts, config, result))
        return result

    patch = pytest.MonkeyPatch()
    patch.setattr(pipeline, "reference_averaged_curve", recording)
    try:
        engine = AutoSens(AutoSensConfig(seed=1), degrade=DegradePolicy())
        engine.curves_by_action(logs)
        engine.curves_by_user_class(logs)
        engine.curves_by_period(logs)
        engine.curves_by_quartile(logs)
        engine.curves_by_month(logs, days_per_month=2)
        for action in ("SelectMail", "ComposeSend"):
            engine.curves_by_period(logs, action=action)
    finally:
        patch.undo()
    return calls


def test_stacked_pass_matches_per_reference_definition(recorded):
    min_actions = AutoSensConfig().min_actions
    assert len(recorded) > 15
    # The sweep reaches a slice within 10 % of the min_actions floor.
    assert min(int(c.biased_counts.sum()) for c, _, _ in recorded) \
        < 1.1 * min_actions
    for counts, config, got in recorded:
        want, used = _definition(counts, config)
        assert got.metadata["reference_slots"] == used
        for field in ("nlp", "raw_ratio", "smoothed_ratio"):
            a, b = getattr(got, field), getattr(want, field)
            assert np.array_equal(np.isnan(a), np.isnan(b)), field
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=field)
