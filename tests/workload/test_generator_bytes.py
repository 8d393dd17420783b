"""The generator's output bytes are pinned.

Every recovery test, experiment, sensitivity fixture and bench set-up
starts from ``TelemetryGenerator.generate``, so a change to how it
computes must not change what it computes. Each fixture below covers one
branch of the grouped pass: the activity curves and weekend factors, the
per-user and per-period exponents, both latency backends, the
multi-timezone population, several chunks through one shared stream, and
the executor path's per-chunk streams. The digests are sha256 over each
store column's raw bytes, taken when the generator still masked every
``action x class`` group and sorted with mergesort.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.workload.generator import _time_order
from repro.workload.incidents import IncidentPlan, LoadSpike, SlowDependency
from repro.workload.scenarios import (
    conditioning_scenario,
    global_scenario,
    owa_scenario,
    queue_scenario,
    timeofday_scenario,
    websearch_scenario,
    weekly_scenario,
)

COLUMNS = ("times", "latencies_ms", "action_codes", "user_codes",
           "class_codes", "success", "tz_offsets")


def _chunked(scenario, chunk_size):
    return replace(scenario, config=replace(scenario.config, chunk_size=chunk_size))


def _queue_with_incidents():
    plan = IncidentPlan(specs=(
        LoadSpike(start_frac=0.3, duration_s=5400.0, peak_mult=2.5),
        SlowDependency(start_frac=0.6, duration_s=7200.0, slow_share=0.35,
                       extra_ms=700.0),
    ), seed=4)
    return queue_scenario(seed=17, duration_days=2.0, n_users=120,
                          incident_plan=plan)


#: name -> (scenario builder, executor spec).
FIXTURES = {
    "owa": (lambda: owa_scenario(seed=3, duration_days=2.0, n_users=120), None),
    "owa-level": (lambda: owa_scenario(seed=3, duration_days=2.0, n_users=120,
                                       response_mode="level"), None),
    "owa-chunked": (lambda: _chunked(
        owa_scenario(seed=21, duration_days=2.0, n_users=120), 3000), None),
    "owa-timeofday": (lambda: timeofday_scenario(
        seed=5, duration_days=2.0, n_users=120), None),
    "owa-conditioning": (lambda: conditioning_scenario(
        seed=7, duration_days=2.0, n_users=150), None),
    "owa-weekly": (lambda: weekly_scenario(
        seed=9, duration_days=8.0, n_users=80, candidates_per_user_day=40.0),
        None),
    "owa-global": (lambda: global_scenario(
        seed=11, duration_days=2.0, n_users=150, candidates_per_user_day=60.0),
        None),
    "websearch": (lambda: websearch_scenario(
        seed=13, duration_days=2.0, n_users=120), None),
    "owa-queue-incidents": (_queue_with_incidents, None),
    "owa-executor": (lambda: _chunked(
        owa_scenario(seed=19, duration_days=2.0, n_users=120), 4000), "serial"),
}


def column_digests(result):
    """sha256 of each store column's raw bytes, plus the candidate counts."""
    logs = result.logs
    digests = {name: hashlib.sha256(
        np.ascontiguousarray(getattr(logs, name)).tobytes()).hexdigest()
        for name in COLUMNS}
    digests["counts"] = f"{result.n_candidates}/{result.n_accepted}"
    return digests


def generate(name):
    build, executor = FIXTURES[name]
    return build().generate(executor=executor)


#: Taken from the generator before the grouped pass.
PINNED = json.loads(
    (Path(__file__).parent / "golden" / "generator_columns.json").read_text())


def test_every_fixture_is_pinned():
    assert set(PINNED) == set(FIXTURES)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_generated_columns_are_pinned(name):
    assert column_digests(generate(name)) == PINNED[name]


def test_cli_generate_jsonl_bytes_are_pinned(tmp_path):
    # The same check CI runs with ``sha256sum -c`` on the committed digest.
    from repro.cli.main import main

    golden = Path(__file__).parent / "golden" / "generate-owa-seed3-days2.sha256"
    digest, name = golden.read_text().split()
    out = tmp_path / name
    assert main(["generate", "--scenario", "owa", "--seed", "3", "--days", "2",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTimeOrder:
    def test_distinct_times_sort_as_mergesort(self):
        times = np.random.default_rng(0).uniform(0.0, 86400.0, 50_000)
        order, ordered = _time_order(times)
        np.testing.assert_array_equal(order, np.argsort(times, kind="mergesort"))
        np.testing.assert_array_equal(ordered, times[order])

    def test_ties_keep_their_candidate_order(self):
        rng = np.random.default_rng(1)
        times = rng.integers(0, 500, 20_000).astype(float)  # many ties
        order, ordered = _time_order(times)
        np.testing.assert_array_equal(order, np.argsort(times, kind="mergesort"))
        np.testing.assert_array_equal(ordered, np.sort(times))

    def test_empty(self):
        order, ordered = _time_order(np.array([], dtype=float))
        assert order.size == 0 and ordered.size == 0
