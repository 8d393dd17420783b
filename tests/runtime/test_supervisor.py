"""Supervisor composition: scalar coercions, scope, shed log, summary."""

import pytest

from repro.runtime import (
    CircuitBreaker,
    Deadline,
    MemoryGovernor,
    Supervisor,
    active_supervisor,
)


class TestCoercions:
    def test_idle_by_default(self):
        supervisor = Supervisor()
        assert not supervisor.enabled
        assert supervisor.deadline is None
        assert supervisor.breaker is None
        assert supervisor.memory is None

    def test_scalars_build_components(self):
        supervisor = Supervisor(
            deadline_s=120.0, breaker=True, memory_budget_mb=64.0,
        )
        assert supervisor.enabled
        assert supervisor.deadline.budget_s == 120.0
        assert supervisor.breaker.name == "stage"
        assert supervisor.memory.soft_limit_bytes == 64 * 1024 * 1024

    def test_prebuilt_components_pass_through(self):
        deadline = Deadline(5.0)
        breaker = CircuitBreaker(name="ingest")
        governor = MemoryGovernor(1 << 20)
        supervisor = Supervisor(
            deadline_s=deadline, breaker=breaker, memory_budget_mb=governor,
        )
        assert supervisor.deadline is deadline
        assert supervisor.breaker is breaker
        assert supervisor.memory is governor


class TestScope:
    def test_scope_installs_supervisor_and_deadline(self):
        supervisor = Supervisor(deadline_s=60.0)
        assert active_supervisor() is None
        with supervisor.scope() as entered:
            assert entered is supervisor
            assert active_supervisor() is supervisor
            assert active_supervisor().deadline is supervisor.deadline
        assert active_supervisor() is None

    def test_scope_uninstalls_on_error(self):
        supervisor = Supervisor(deadline_s=60.0)
        with pytest.raises(RuntimeError):
            with supervisor.scope():
                raise RuntimeError("boom")
        assert active_supervisor() is None


class TestShedAndSummary:
    def test_shed_records_locally_and_in_obs(self):
        import repro.obs as obs

        supervisor = Supervisor(deadline_s=60.0)
        with obs.session(enabled=True) as ctx:
            supervisor.shed(
                "deadline_exceeded", task="slice [weekend]",
                detail="sweep task shed: deadline spent",
            )
        assert supervisor.shed_log == [{
            "kind": "deadline_exceeded", "task": "slice [weekend]",
            "detail": "sweep task shed: deadline spent",
        }]
        assert any(
            d.get("kind") == "deadline_exceeded" for d in ctx.degradations
        )

    def test_summary_covers_configured_components(self):
        supervisor = Supervisor(
            deadline_s=60.0, breaker=True, memory_budget_mb=32.0,
        )
        summary = supervisor.summary()
        assert set(summary) == {"shed", "deadline_s", "deadline_elapsed_s",
                                "breaker_state", "breaker_trips", "memory"}
        assert summary["shed"] == 0
        assert summary["deadline_s"] == 60.0
        assert summary["deadline_elapsed_s"] >= 0.0
        assert summary["breaker_state"] == "closed"
        assert summary["breaker_trips"] == 0
        assert summary["memory"] == {
            "n_refused": 0, "soft_limit_bytes": 32 * 1024 * 1024,
            "hard_limit_bytes": 32 * 1024 * 1024,
        }

    def test_idle_summary_is_minimal(self):
        assert Supervisor().summary() == {"shed": 0}


class TestExportGauges:
    def test_scope_exports_supervision_state_as_gauges(self):
        import repro.obs as obs

        with obs.session(enabled=True):
            supervisor = Supervisor(
                deadline_s=60.0, memory_budget_mb=64, breaker=True)
            with supervisor.scope():
                pass
            snapshot = obs.metrics().snapshot()
            assert snapshot["autosens_breaker_state"]["series"][
                '{breaker="stage"}'] == 0.0
            remaining = snapshot["autosens_deadline_remaining_s"]["series"][""]
            assert 0.0 < remaining <= 60.0

    def test_deterministic_runs_skip_the_wall_clock_gauge(self):
        import repro.obs as obs

        with obs.session(enabled=True, deterministic=True):
            supervisor = Supervisor(deadline_s=60.0)
            with supervisor.scope():
                pass
            assert ("autosens_deadline_remaining_s"
                    not in obs.metrics().snapshot())

    def test_disabled_obs_exports_nothing(self):
        import repro.obs as obs

        supervisor = Supervisor(deadline_s=5.0)
        supervisor.export_gauges()
        assert len(obs.metrics()) == 0
