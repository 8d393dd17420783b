"""The ``curves_by_*`` sweep loop: backend parity and deadline shedding.

Two contracts. First, a process-backend sweep is indistinguishable from a
serial one: bitwise-equal curves, the same engine degradation notes, obs
degradations and health findings, and the same Prometheus text — a
worker's whole obs state is shipped back, never dropped. Second, under a
supervised deadline the sweep sheds exactly the work it has not done yet:
finished curves stay bitwise, each shed task is recorded once, and
``on_over_budget="raise"`` raises instead. Deadlines run on an injected clock, advanced from hooks
around the curve and the pool map, so no test sleeps or races.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import repro.obs as obs
from repro.core import AutoSens, AutoSensConfig, DegradePolicy, SubsamplePolicy
from repro.core.preference import PreferenceComputer
from repro.errors import DeadlineExceededError, InsufficientDataError
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.runtime import Deadline, MemoryGovernor, Supervisor
from repro.runtime.memory import estimate_counts_bytes
from repro.types import ALL_DAY_PERIODS
from repro.workload import owa_scenario

PERIODS = [period.value for period in ALL_DAY_PERIODS]


class _StarveSecondReference(PreferenceComputer):
    """Refuses the second reference slot of every curve it computes."""

    def compute(self, *args, **kwargs):
        rows = super().compute(*args, **kwargs)
        rows[1] = InsufficientDataError("injected: reference slot starved")
        return rows


@dataclass(frozen=True)
class _StarvedReferenceConfig(AutoSensConfig):
    """A picklable config whose curves each lose one reference slot."""

    def computer(self) -> PreferenceComputer:
        return _StarveSecondReference(
            smoothing_window=self.smoothing_window,
            smoothing_degree=self.smoothing_degree,
            reference_ms=self.reference_ms,
            min_unbiased_count=self.min_unbiased_count,
        )


class _OverBudgetComputer(PreferenceComputer):
    """Reports a spent deadline from inside every curve."""

    def compute(self, *args, **kwargs):
        raise DeadlineExceededError("injected: budget spent in a task")


@dataclass(frozen=True)
class _OverBudgetConfig(AutoSensConfig):
    """A picklable config whose curves each raise a deadline error."""

    def computer(self) -> PreferenceComputer:
        return _OverBudgetComputer(
            smoothing_window=self.smoothing_window,
            smoothing_degree=self.smoothing_degree,
            reference_ms=self.reference_ms,
            min_unbiased_count=self.min_unbiased_count,
        )


CASES = {
    "subsample": dict(config=AutoSensConfig(seed=3),
                      subsample=SubsamplePolicy(event_fraction=0.5)),
    "starved-reference": dict(config=_StarvedReferenceConfig(seed=3),
                              subsample=None),
}

BACKENDS = {
    "serial": SerialExecutor,
    "process": lambda: ProcessExecutor(max_workers=2),
}


class _Clock:
    """A manual monotonic clock for :class:`Deadline`."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def expire(self) -> None:
        self.now = 1e6


@pytest.fixture(scope="module")
def logs():
    return owa_scenario(seed=3, duration_days=3.0, n_users=60).generate().logs


def _assert_curves_identical(got, want):
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key].nlp, want[key].nlp, equal_nan=True)
        assert np.array_equal(got[key].raw_ratio, want[key].raw_ratio,
                              equal_nan=True)
        assert got[key].n_actions == want[key].n_actions


def _recorded_sweep(logs, case, executor):
    engine = AutoSens(CASES[case]["config"], executor=executor,
                      degrade=DegradePolicy(),
                      subsample=CASES[case]["subsample"])
    with obs.session(enabled=True, deterministic=True, run_id="sweep") as ctx:
        curves = engine.curves_by_action(logs)
    return (curves, engine.degradations, ctx.degradations, ctx.findings,
            ctx.metrics.render_prometheus())


@pytest.fixture(scope="module")
def serial_runs(logs):
    return {case: _recorded_sweep(logs, case, SerialExecutor())
            for case in CASES}


class TestBackendParity:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sweep_records_match_serial(self, logs, serial_runs, case,
                                        backend):
        curves, notes, degradations, findings, metrics = _recorded_sweep(
            logs, case, BACKENDS[backend]())
        want_curves, want_notes, want_degradations, want_findings, \
            want_metrics = serial_runs[case]
        # The cases must actually degrade, or parity would be vacuous.
        assert want_notes and want_degradations and want_findings
        _assert_curves_identical(curves, want_curves)
        assert notes == want_notes
        assert degradations == want_degradations
        assert findings == want_findings
        assert "autosens_degradations_total" in want_metrics
        assert "autosens_health_findings_total" in want_metrics
        assert metrics == want_metrics


def _expire_after_curves(monkeypatch, clock, n_curves):
    """Expire ``clock`` as the ``n_curves``-th curve finishes."""
    original = AutoSens.preference_curve
    done = []

    def counting(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        done.append(1)
        if len(done) == n_curves:
            clock.expire()
        return result

    monkeypatch.setattr(AutoSens, "preference_curve", counting)


def _expire_on_pool_map(monkeypatch, clock, n_call):
    """Expire ``clock`` as the ``n_call``-th process pool map starts."""
    original = ProcessExecutor.map_ordered
    calls = []

    def expiring(self, fn, items, chunk_size=None):
        calls.append(len(items))
        if len(calls) == n_call:
            clock.expire()
        return original(self, fn, items, chunk_size)

    monkeypatch.setattr(ProcessExecutor, "map_ordered", expiring)


def _assert_shed_once(supervisor, ctx, engine, tasks):
    assert [entry["task"] for entry in supervisor.shed_log] == tasks
    assert all(entry["kind"] == "deadline_exceeded"
               for entry in supervisor.shed_log)
    recorded = [d for d in ctx.degradations
                if d["kind"] == "deadline_exceeded"]
    assert recorded == supervisor.shed_log
    shed_notes = [n for n in engine.degradations if n.startswith("slice shed")]
    assert len(shed_notes) == len(tasks)


class TestDeadlineShedding:
    def test_serial_sweep_sheds_only_unrun_tasks(self, logs, monkeypatch):
        config = AutoSensConfig(seed=3)
        clean = AutoSens(config).curves_by_period(logs)
        assert list(clean) == PERIODS

        clock = _Clock()
        supervisor = Supervisor(deadline_s=Deadline(10.0, clock=clock))
        engine = AutoSens(config, degrade=DegradePolicy())
        _expire_after_curves(monkeypatch, clock, 2)
        with obs.session(enabled=True, deterministic=True) as ctx:
            with supervisor.scope():
                got = engine.curves_by_period(logs)

        _assert_curves_identical(got, {p: clean[p] for p in PERIODS[:2]})
        _assert_shed_once(supervisor, ctx, engine, [2, 3])

    def test_process_sweep_sheds_the_whole_wave(self, logs, monkeypatch):
        config = AutoSensConfig(seed=3)
        clean = AutoSens(config).curves_by_period(logs)

        # A soft limit of two working sets cuts the sweep into two waves.
        per_task = estimate_counts_bytes(len(logs), config.bins().count)
        governor = MemoryGovernor(soft_limit_bytes=2 * per_task,
                                  hard_limit_bytes=1 << 40)
        clock = _Clock()
        supervisor = Supervisor(deadline_s=Deadline(10.0, clock=clock),
                                memory_budget_mb=governor)
        engine = AutoSens(config, executor=ProcessExecutor(max_workers=2),
                          degrade=DegradePolicy())
        _expire_on_pool_map(monkeypatch, clock, 2)
        with obs.session(enabled=True, deterministic=True) as ctx:
            with supervisor.scope():
                got = engine.curves_by_period(logs)

        _assert_curves_identical(got, {p: clean[p] for p in PERIODS[:2]})
        _assert_shed_once(supervisor, ctx, engine, [2, 3])

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_raise_policy_raises(self, logs, monkeypatch, backend):
        clock = _Clock()
        supervisor = Supervisor(deadline_s=Deadline(10.0, clock=clock))
        engine = AutoSens(AutoSensConfig(seed=3),
                          executor=BACKENDS[backend](),
                          degrade=DegradePolicy(on_over_budget="raise"))
        if backend == "serial":
            _expire_after_curves(monkeypatch, clock, 1)
        else:
            _expire_on_pool_map(monkeypatch, clock, 1)
        with supervisor.scope():
            with pytest.raises(DeadlineExceededError):
                engine.curves_by_period(logs)
        assert supervisor.shed_log == []

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_unsupervised_deadline_propagates(self, logs, backend):
        """Without a supervisor nothing is shed: a deadline error a task
        raises leaves the sweep, even under a shedding degrade policy."""
        engine = AutoSens(_OverBudgetConfig(seed=3),
                          executor=BACKENDS[backend](),
                          degrade=DegradePolicy())
        with pytest.raises(DeadlineExceededError):
            engine.curves_by_period(logs)
