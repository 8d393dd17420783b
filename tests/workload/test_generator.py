"""Tests for the telemetry generator and scenarios."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.types import ActionType
from repro.workload import (
    GeneratorConfig,
    PopulationConfig,
    TelemetryGenerator,
    owa_scenario,
)
from repro.workload.scenarios import (
    SCENARIOS,
    conditioning_scenario,
    flat_preference_scenario,
    timeofday_scenario,
    two_month_scenario,
    websearch_scenario,
)


@pytest.fixture(scope="module")
def small_result():
    config = GeneratorConfig(
        duration_days=2.0, candidates_per_user_day=60.0,
        population=PopulationConfig(n_users=120),
    )
    return TelemetryGenerator(config=config).generate(rng=5)


class TestGenerator:
    def test_produces_logs(self, small_result):
        assert len(small_result.logs) > 1000
        assert small_result.n_candidates >= small_result.n_accepted

    def test_sorted_by_time(self, small_result):
        assert np.all(np.diff(small_result.logs.times) >= 0)

    def test_all_action_types_present(self, small_result):
        assert set(small_result.logs.action_names()) == {
            a.value for a in ActionType
        }

    def test_classes_present(self, small_result):
        assert set(small_result.logs.class_names()) == {"business", "consumer"}

    def test_times_in_window(self, small_result):
        assert small_result.logs.times.min() >= 0.0
        assert small_result.logs.times.max() < 2.0 * 86400.0

    def test_latencies_positive(self, small_result):
        assert np.all(small_result.logs.latencies_ms > 0)

    def test_error_rate_applied(self, small_result):
        failures = 1.0 - small_result.logs.success.mean()
        assert 0.003 < failures < 0.03  # config default 1%

    def test_deterministic_with_seed(self):
        config = GeneratorConfig(duration_days=0.5,
                                 population=PopulationConfig(n_users=40))
        a = TelemetryGenerator(config=config).generate(rng=9)
        b = TelemetryGenerator(config=config).generate(rng=9)
        assert len(a.logs) == len(b.logs)
        assert np.allclose(a.logs.latencies_ms, b.logs.latencies_ms)

    def test_different_seeds_differ(self):
        config = GeneratorConfig(duration_days=0.5,
                                 population=PopulationConfig(n_users=40))
        a = TelemetryGenerator(config=config).generate(rng=1)
        b = TelemetryGenerator(config=config).generate(rng=2)
        assert len(a.logs) != len(b.logs) or not np.allclose(
            a.logs.latencies_ms[:100], b.logs.latencies_ms[:100]
        )

    def test_acceptance_rate_sane(self, small_result):
        assert 0.1 < small_result.acceptance_rate < 0.9

    def test_diurnal_activity_visible(self, small_result):
        hours = (small_result.logs.times % 86400.0) / 3600.0
        day = ((hours >= 10) & (hours < 16)).sum()
        night = ((hours >= 1) & (hours < 7)).sum()
        assert day > 2 * night

    def test_preference_bias_visible(self, small_result):
        """Actions during slow moments are rarer than availability implies.

        Compared within the daytime plateau (10:00-16:00) so the diurnal
        activity confounder cannot mask the preference effect, while the
        band stays wide enough that one relocated congestion incident
        cannot flip the comparison.
        """
        logs = small_result.logs
        grid = small_result.grid
        action_hours = (logs.times % 86400.0) / 3600.0
        grid_hours = (grid.times % 86400.0) / 3600.0
        band_actions = (action_hours >= 10.0) & (action_hours < 16.0)
        band_grid = (grid_hours >= 10.0) & (grid_hours < 16.0)
        level_at_actions = grid.level_at(logs.times[band_actions])
        assert level_at_actions.mean() < grid.levels_ms[band_grid].mean()

    def test_level_mode_runs(self):
        config = GeneratorConfig(duration_days=0.5, response_mode="level",
                                 population=PopulationConfig(n_users=40))
        result = TelemetryGenerator(config=config).generate(rng=3)
        assert len(result.logs) > 100

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(duration_days=0.0)
        with pytest.raises(ConfigError):
            GeneratorConfig(response_mode="psychic")
        with pytest.raises(ConfigError):
            GeneratorConfig(error_rate=1.0)


class TestScenarios:
    def test_registry_complete(self):
        assert set(SCENARIOS) == {
            "owa", "owa-timeofday", "owa-two-months", "owa-conditioning",
            "owa-flat", "owa-weekly", "owa-global", "owa-queue", "websearch",
        }

    def test_all_scenarios_generate(self):
        for name, builder in SCENARIOS.items():
            scenario = builder(seed=3)
            small = scenario.scaled(duration_days=0.25, n_users=30,
                                    candidates_per_user_day=40.0)
            result = small.generate()
            assert len(result.logs) > 0, name

    def test_scaled_does_not_mutate(self):
        scenario = owa_scenario(seed=1)
        smaller = scenario.scaled(n_users=10)
        assert scenario.config.population.n_users != 10
        assert smaller.config.population.n_users == 10

    def test_timeofday_has_period_exponents(self):
        assert timeofday_scenario().ground_truth.period_exponents

    def test_flat_scenario_flat_truth(self):
        truth = flat_preference_scenario().ground_truth
        curve = truth.curve_for("SelectMail", "business")
        values = curve(np.linspace(100, 2500, 50))
        assert np.allclose(values, 1.0)

    def test_conditioning_scenario_gamma(self):
        scenario = conditioning_scenario()
        assert scenario.config.population.conditioning_gamma > 0

    def test_two_month_duration(self):
        assert two_month_scenario().config.duration_days == 60.0

    def test_websearch_actions(self):
        result = websearch_scenario(seed=2).scaled(
            duration_days=0.25, n_users=30).generate()
        assert "Query" in result.logs.action_names()

    def test_seed_override(self):
        scenario = owa_scenario(seed=1).scaled(duration_days=0.25, n_users=30)
        a = scenario.generate(seed=5)
        b = scenario.generate(seed=5)
        assert np.allclose(a.logs.latencies_ms, b.logs.latencies_ms)


class TestLatencyBackends:
    def test_queue_backend_generates(self):
        from repro.workload.scenarios import queue_scenario

        result = queue_scenario(seed=4).scaled(
            duration_days=0.5, n_users=40).generate()
        assert len(result.logs) > 0
        assert result.incident_windows == []

    def test_incident_windows_surface_in_result(self):
        from repro.workload import IncidentPlan, LoadSpike
        from repro.workload.scenarios import queue_scenario

        scenario = queue_scenario(
            seed=4,
            incident_plan=IncidentPlan(specs=(LoadSpike(start_frac=0.5),)),
        ).scaled(duration_days=1.0, n_users=40)
        result = scenario.generate()
        assert len(result.incident_windows) == 1
        assert result.incident_windows[0].scenario == "load-spike"

    def test_backend_validation(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(latency_backend="banana")

    def test_incidents_require_queue_backend(self):
        from repro.workload import IncidentPlan, LoadSpike

        with pytest.raises(ConfigError):
            GeneratorConfig(
                latency_backend="ou",
                incident_plan=IncidentPlan(specs=(LoadSpike(),)),
            )

    def test_with_latency_backend_round_trip(self):
        scenario = owa_scenario(seed=1).with_latency_backend("queue")
        assert scenario.config.latency_backend == "queue"
        back = scenario.with_latency_backend("ou")
        assert back.config.latency_backend == "ou"

    def test_backends_share_population(self):
        # Same seed, different latency backend: the user population and
        # candidate schedule are identical; only latencies change.
        base = owa_scenario(seed=6).scaled(duration_days=0.5, n_users=40)
        ou = base.generate()
        queue = base.with_latency_backend("queue").generate()
        assert ou.logs.n_users() == queue.logs.n_users()
        assert abs(len(ou.logs) - len(queue.logs)) < 0.2 * len(ou.logs)
