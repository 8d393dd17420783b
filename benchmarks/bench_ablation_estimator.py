"""Ablation C: estimator fidelity knob.

Sweeps the Savitzky-Golay smoothing window, measuring the recovered
SelectMail curve against ground truth at the paper's anchors. Shows why
the default (window 101) is reasonable: a much narrower window keeps
noise, a much wider one adds shape bias. (U is exact, so the number of
random-time draws is no longer a knob.)
"""

from repro.core import AutoSens, AutoSensConfig, compare_to_truth
from repro.viz import format_table
from repro.workload import owa_scenario
from repro.workload.preference import paper_curve

ANCHORS = (500.0, 1000.0)


def _recovery_error(logs, window: int) -> float:
    engine = AutoSens(AutoSensConfig(seed=3, smoothing_window=window))
    curve = engine.preference_curve(logs, action="SelectMail",
                                    user_class="business")
    truth = paper_curve("SelectMail", "business")
    report = compare_to_truth(curve, lambda lat: truth.normalized(lat),
                              anchor_latencies=ANCHORS)
    return report.mean_abs_error


def test_estimator_ablation(benchmark):
    def run():
        result = owa_scenario(seed=11, duration_days=8.0, n_users=450,
                              candidates_per_user_day=150.0).generate()
        return {w: _recovery_error(result.logs, w)
                for w in (21, 51, 101, 201, 401)}

    windowsweep = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print("Ablation C: smoothing window")
    print(format_table(
        ["window (10 ms bins)", "mean abs anchor error"],
        [[w, err] for w, err in windowsweep.items()],
    ))

    # The paper's default is within 2.5x of the best window.
    best = min(windowsweep.values())
    assert windowsweep[101] <= max(2.5 * best, 0.06)
