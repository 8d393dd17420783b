"""Applying AutoSens to a different service and to your own logs.

Part 1 runs the pipeline on a *web-search-like* (non-sticky) service, where
ground-truth sensitivity is much steeper than email — the paper's Section 4
argues the method carries over to such services.

Part 2 shows the file-based workflow you would use on real telemetry:
write logs to JSONL, read them back, analyze.

Run:  python examples/custom_service.py
"""

import tempfile
from pathlib import Path

from repro.core import AutoSens, AutoSensConfig, compare_to_truth
from repro.telemetry import read_jsonl, write_jsonl
from repro.viz import format_table
from repro.workload import websearch_scenario

SEED = 99


def main() -> None:
    # Part 1: a non-sticky service with steep Query sensitivity.
    scenario = websearch_scenario(seed=SEED, duration_days=6.0, n_users=400,
                                  candidates_per_user_day=140.0)
    result = scenario.generate()
    engine = AutoSens(AutoSensConfig(seed=SEED))

    rows = []
    for action in ("Query", "ClickResult", "NextPage"):
        curve = engine.preference_curve(result.logs, action=action)
        rows.append([action,
                     float(curve.at(500.0)),
                     float(curve.at(1000.0))])
    print("web-search service, NLP per action:")
    print(format_table(["action", "500 ms", "1000 ms"], rows))

    query_curve = engine.preference_curve(result.logs, action="Query")
    truth = scenario.ground_truth.curve_for("Query", "consumer")
    report = compare_to_truth(query_curve, lambda lat: truth.normalized(lat),
                              anchor_latencies=(500.0, 1000.0))
    print("Query recovery: " + "; ".join(
        f"{a.latency_ms:.0f}ms meas {a.measured:.3f} vs truth {a.expected:.3f}"
        for a in report.anchors))
    print("search users abandon much faster than email users - email is "
          "'sticky', search is not.\n")

    # Part 2: the round-trip you would run on real server logs.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "actions.jsonl.gz"
        count = write_jsonl(result.logs, path)
        print(f"wrote {count} records to {path.name} "
              f"({path.stat().st_size / 1e6:.1f} MB gz)")
        logs = read_jsonl(path)
        curve = engine.preference_curve(logs, action="Query")
        print(f"re-read and re-analyzed: NLP(1000 ms) = "
              f"{float(curve.at(1000.0)):.3f}")


if __name__ == "__main__":
    main()
