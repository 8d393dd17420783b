"""Ablation E: the paper's sampled U draw vs the exact slot-clipped Voronoi U.

The paper estimates U by repeated random time draws. Its infinite-draw
limit weights each sample by its 1-D Voronoi cell, clipped at slot
boundaries — which is what ``slotted_counts`` computes. This bench builds
the per-slot tensor both ways for one slice and quantifies three claims:
accuracy against ground truth, run-to-run variance, and wall-clock time.
"""

import time
from dataclasses import replace

import numpy as np

from repro.core import AutoSensConfig, compare_to_truth, curve_from_counts
from repro.core.alpha import slot_of_times, slotted_counts
from repro.core.unbiased import UNBIASED_MASS_PER_ACTION, draw_unbiased_samples
from repro.viz import format_table
from repro.workload import owa_scenario
from repro.workload.preference import paper_curve


def _sampled_fractions(logs, counts, seed):
    """The per-slot time fractions of one paper-sized draw (3 per action)."""
    n_slots, n_bins = counts.time_fractions.shape
    draw = draw_unbiased_samples(
        logs, n_samples=int(UNBIASED_MASS_PER_ACTION * len(logs)), rng=seed)
    slots = slot_of_times(draw.query_times, counts.scheme,
                          float(np.median(logs.tz_offsets)))
    rows = np.minimum(np.searchsorted(counts.slot_ids, slots), n_slots - 1)
    bins = counts.bins.index_of(draw.selected_latencies)
    keep = (counts.slot_ids[rows] == slots) & (bins >= 0)
    tally = np.bincount(rows[keep] * n_bins + bins[keep],
                        minlength=n_slots * n_bins).reshape(n_slots, n_bins)
    return tally / np.maximum(tally.sum(axis=1, keepdims=True), 1)


def test_voronoi_ablation(benchmark):
    def run():
        result = owa_scenario(seed=11, duration_days=8.0, n_users=450,
                              candidates_per_user_day=150.0).generate()
        logs = result.logs.where(action="SelectMail", user_class="business")
        config = AutoSensConfig()
        truth = paper_curve("SelectMail", "business")
        exact = slotted_counts(logs, config.bins())
        estimators = {
            "sampled draw": lambda seed: replace(
                exact, time_fractions=_sampled_fractions(logs, exact, seed)),
            "exact": lambda seed: slotted_counts(logs, config.bins()),
        }
        out = {}
        for name, build in estimators.items():
            values = []
            seconds = 0.0
            for seed in (1, 2, 3, 4):
                t0 = time.perf_counter()
                counts = build(seed)
                seconds += time.perf_counter() - t0
                curve = curve_from_counts(counts, config)
                values.append(float(curve.at(1000.0)))
            report = compare_to_truth(
                curve, lambda lat: truth.normalized(lat),
                anchor_latencies=(500.0, 1000.0))
            out[name] = {
                "mean_at_1000": float(np.mean(values)),
                "seed_spread": float(np.max(values) - np.min(values)),
                "anchor_error": report.mean_abs_error,
                "fraction_gap": float(np.max(np.abs(
                    counts.time_fractions - exact.time_fractions))),
                "seconds": seconds / 4.0,
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print("Ablation E: sampled vs exact per-slot U")
    rows = []
    for name, stats in results.items():
        rows.append([name, stats["mean_at_1000"], stats["seed_spread"],
                     stats["anchor_error"], stats["fraction_gap"],
                     stats["seconds"]])
    print(format_table(
        ["U tensor", "NLP(1000) mean", "cross-seed spread",
         "mean anchor error", "max |f - f_exact|", "sec/tensor"], rows,
    ))

    exact, sampled = results["exact"], results["sampled draw"]
    assert exact["seed_spread"] == 0.0  # no randomness left
    assert exact["anchor_error"] <= sampled["anchor_error"] + 0.02
    assert sampled["fraction_gap"] < 0.05  # the draw converges to the exact tensor
    assert exact["seconds"] <= sampled["seconds"]
