"""The time confounder, end to end: why naive B/U inference inverts.

Recreates the paper's Table 1 story on full synthetic telemetry: at night
the service is fast *and* users are asleep, so without correction the
method concludes users prefer high latency. The per-hour activity factor
normalization (Section 2.4.1) repairs the inference.

Run:  python examples/confounder_demo.py
"""

import numpy as np

from repro.core import AutoSens, AutoSensConfig, estimate_alpha, worked_example
from repro.stats.histogram import latency_bins
from repro.viz import format_table
from repro.workload import owa_scenario

SEED = 23


def main() -> None:
    # The paper's own worked example, exactly (Table 1).
    example = worked_example()
    print("paper Table 1 worked example:")
    print(format_table(
        ["quantity", "value"],
        [["alpha (night vs day)", example.alpha],
         ["night 'low' count normalized", example.normalized_counts["low"]],
         ["night 'high' count normalized", example.normalized_counts["high"]],
         ["naive activity at low latency", example.naive_rates["low"]],
         ["naive activity at high latency", example.naive_rates["high"]],
         ["corrected activity at low latency", example.corrected_rates["low"]],
         ["corrected activity at high latency", example.corrected_rates["high"]]],
    ))
    print("naive says users are MORE active at high latency; "
          "corrected recovers the truth.\n")

    # The same phenomenon on full telemetry.
    result = owa_scenario(seed=SEED, duration_days=7.0, n_users=400,
                          candidates_per_user_day=150.0).generate()
    logs = result.logs.where(action="SelectMail", user_class="business")

    naive = AutoSens(AutoSensConfig(seed=SEED, time_correction=False))
    corrected = AutoSens(AutoSensConfig(seed=SEED, time_correction=True))
    curve_naive = naive.preference_curve(logs)
    curve_corrected = corrected.preference_curve(logs)

    rows = []
    for latency in (200.0, 500.0, 1000.0):
        rows.append([
            f"{latency:.0f} ms",
            float(curve_naive.at(latency)),
            float(curve_corrected.at(latency)),
        ])
    print(format_table(["latency", "naive NLP", "alpha-corrected NLP"], rows))
    print("(naive is flattened/inverted at low latencies because low latency "
          "co-occurs with the quiet night hours)\n")

    # Show the estimated alpha curve over the day.
    alpha = estimate_alpha(logs, latency_bins(), scheme="hour-of-day",
                           bin_average="weighted")
    print("estimated hour-of-day activity factor (busiest hour = 1):")
    bars = []
    peak = float(np.nanmax(alpha.alpha_by_slot))
    for slot, value in zip(alpha.slot_ids, alpha.alpha_by_slot):
        bar = "#" * int(round(40 * value / peak))
        bars.append(f"  {int(slot):02d}:00 {bar} {value:.2f}")
    print("\n".join(bars))


if __name__ == "__main__":
    main()
