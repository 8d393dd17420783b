"""Deadline budgets and the ambient cooperative-cancellation checkpoint."""

import pytest

from repro.errors import ConfigError, DeadlineExceededError
from repro.runtime import (
    Deadline,
    Supervisor,
    active_supervisor,
    check_deadline,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestDeadline:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigError):
            Deadline(0.0)
        with pytest.raises(ConfigError):
            Deadline(-5.0)

    def test_elapsed_and_remaining(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        clock.advance(3.0)
        assert deadline.elapsed() == pytest.approx(3.0)
        assert deadline.remaining() == pytest.approx(7.0)
        assert not deadline.expired()

    def test_remaining_clamps_at_zero(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(5.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired()

    def test_check_raises_with_context(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        deadline.check("sweep")  # within budget: no-op
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError) as info:
            deadline.check("sweep")
        assert "sweep" in str(info.value)
        assert info.value.budget_s == 2.0
        assert info.value.elapsed_s >= 2.0

    def test_timeout_or_takes_the_tighter_bound(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.timeout_or(None) == pytest.approx(10.0)
        assert deadline.timeout_or(3.0) == pytest.approx(3.0)
        clock.advance(9.0)
        assert deadline.timeout_or(3.0) == pytest.approx(1.0)


def _ambient_deadline():
    supervisor = active_supervisor()
    return supervisor.deadline if supervisor is not None else None


class TestAmbientScope:
    """The ambient deadline is the innermost entered supervisor's."""

    def test_no_deadline_installed(self):
        assert _ambient_deadline() is None
        check_deadline("anywhere")  # no-op, must not raise

    def test_scope_installs_and_uninstalls(self):
        deadline = Deadline(60.0)
        with Supervisor(deadline_s=deadline).scope() as installed:
            assert installed.deadline is deadline
            assert _ambient_deadline() is deadline
        assert _ambient_deadline() is None

    def test_none_scope_is_a_noop(self):
        """A supervisor without a deadline installs none."""
        with Supervisor().scope():
            assert _ambient_deadline() is None
            check_deadline("anywhere")  # must not raise

    def test_scopes_nest_innermost_wins(self):
        outer, inner = Deadline(60.0), Deadline(30.0)
        with Supervisor(deadline_s=outer).scope():
            with Supervisor(deadline_s=inner).scope():
                assert _ambient_deadline() is inner
            assert _ambient_deadline() is outer
        assert _ambient_deadline() is None

    def test_checkpoint_observes_ambient_expiry(self):
        clock = FakeClock()
        with Supervisor(deadline_s=Deadline(1.0, clock=clock)).scope():
            check_deadline("stage")
            clock.advance(1.5)
            with pytest.raises(DeadlineExceededError):
                check_deadline("stage")

    def test_scope_pops_even_on_error(self):
        with pytest.raises(RuntimeError):
            with Supervisor(deadline_s=Deadline(60.0)).scope():
                raise RuntimeError("boom")
        assert _ambient_deadline() is None
