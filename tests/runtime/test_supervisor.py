"""Supervisor composition: scalar coercions, scope, shed log, summary."""

import pytest

from repro.runtime import (
    CircuitBreaker,
    Deadline,
    MemoryGovernor,
    Supervisor,
    Watchdog,
    active_deadline,
    active_supervisor,
)


class TestCoercions:
    def test_idle_by_default(self, tmp_path):
        supervisor = Supervisor(workdir=tmp_path)
        assert not supervisor.enabled
        assert supervisor.deadline is None
        assert supervisor.breaker is None
        assert supervisor.watchdog is None
        assert supervisor.memory is None

    def test_scalars_build_components(self, tmp_path):
        supervisor = Supervisor(
            deadline_s=120.0, breaker=True, watchdog=15.0,
            memory_budget_mb=64.0, workdir=tmp_path,
        )
        assert supervisor.enabled
        assert supervisor.deadline.budget_s == 120.0
        assert supervisor.breaker.name == "stage"
        assert supervisor.watchdog.stall_timeout_s == 15.0
        assert supervisor.memory.soft_limit_bytes == 64 * 1024 * 1024

    def test_prebuilt_components_pass_through(self, tmp_path):
        deadline = Deadline(5.0)
        breaker = CircuitBreaker(name="ingest")
        watchdog = Watchdog(tmp_path / "hb", stall_timeout_s=3.0)
        governor = MemoryGovernor(1 << 20)
        supervisor = Supervisor(
            deadline_s=deadline, breaker=breaker, watchdog=watchdog,
            memory_budget_mb=governor, workdir=tmp_path,
        )
        assert supervisor.deadline is deadline
        assert supervisor.breaker is breaker
        assert supervisor.watchdog is watchdog
        assert supervisor.memory is governor

    def test_watchdog_true_uses_default_stall(self, tmp_path):
        supervisor = Supervisor(watchdog=True, workdir=tmp_path)
        assert supervisor.watchdog.stall_timeout_s == 30.0


class TestScope:
    def test_scope_installs_supervisor_and_deadline(self, tmp_path):
        supervisor = Supervisor(deadline_s=60.0, workdir=tmp_path)
        assert active_supervisor() is None
        with supervisor.scope() as entered:
            assert entered is supervisor
            assert active_supervisor() is supervisor
            assert active_deadline() is supervisor.deadline
        assert active_supervisor() is None
        assert active_deadline() is None

    def test_scope_runs_the_watchdog_thread(self, tmp_path):
        supervisor = Supervisor(watchdog=5.0, workdir=tmp_path)
        supervisor.watchdog.poll_interval_s = 0.01
        with supervisor.scope():
            assert supervisor.watchdog._thread.is_alive()
        assert supervisor.watchdog._thread is None

    def test_scope_uninstalls_on_error(self, tmp_path):
        supervisor = Supervisor(deadline_s=60.0, workdir=tmp_path)
        with pytest.raises(RuntimeError):
            with supervisor.scope():
                raise RuntimeError("boom")
        assert active_supervisor() is None
        assert active_deadline() is None


class TestShedAndSummary:
    def test_shed_records_locally_and_in_obs(self, tmp_path):
        import repro.obs as obs

        supervisor = Supervisor(deadline_s=60.0, workdir=tmp_path)
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

    def test_summary_covers_configured_components(self, tmp_path):
        supervisor = Supervisor(
            deadline_s=60.0, breaker=True, watchdog=10.0,
            memory_budget_mb=32.0, workdir=tmp_path,
        )
        summary = supervisor.summary()
        assert summary["shed"] == 0
        assert summary["deadline_s"] == 60.0
        assert summary["deadline_elapsed_s"] >= 0.0
        assert summary["breaker_state"] == "closed"
        assert summary["breaker_trips"] == 0
        assert summary["watchdog_kills"] == 0
        assert summary["memory"]["n_spills"] == 0

    def test_idle_summary_is_minimal(self, tmp_path):
        assert Supervisor(workdir=tmp_path).summary() == {"shed": 0}


class TestExportGauges:
    def test_scope_exports_supervision_state_as_gauges(self, tmp_path):
        import repro.obs as obs

        with obs.session(enabled=True):
            supervisor = Supervisor(
                deadline_s=60.0, memory_budget_mb=64, breaker=True,
                watchdog=True, workdir=tmp_path)
            with supervisor.scope():
                pass
            snapshot = obs.metrics().snapshot()
            assert snapshot["autosens_breaker_state"]["series"][
                '{breaker="stage"}'] == 0.0
            assert snapshot["autosens_memory_governor_bytes"]["series"][
                ""] == 0.0
            assert snapshot["autosens_watchdog_requeues"]["series"][""] == 0.0
            remaining = snapshot["autosens_deadline_remaining_s"]["series"][""]
            assert 0.0 < remaining <= 60.0

    def test_deterministic_runs_skip_the_wall_clock_gauge(self, tmp_path):
        import repro.obs as obs

        with obs.session(enabled=True, deterministic=True):
            supervisor = Supervisor(deadline_s=60.0, workdir=tmp_path)
            with supervisor.scope():
                pass
            assert ("autosens_deadline_remaining_s"
                    not in obs.metrics().snapshot())

    def test_disabled_obs_exports_nothing(self, tmp_path):
        import repro.obs as obs

        supervisor = Supervisor(deadline_s=5.0, workdir=tmp_path)
        supervisor.export_gauges()
        assert len(obs.metrics()) == 0
