"""Circuit breaker state machine, driven by a fake clock (no sleeping)."""

import pytest

from repro.errors import CircuitOpenError, ConfigError
from repro.runtime import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _failing(exc=OSError):
    def fn():
        raise exc("dependency down")
    return fn


class TestValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)

    def test_rejects_bad_cooldown(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(reset_timeout_s=0.0)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.retry_after() == 0.0

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        fn = _failing()
        for _ in range(2):
            with pytest.raises(OSError):
                breaker.call(fn)
        assert breaker.state == CLOSED
        with pytest.raises(OSError):
            breaker.call(fn)
        assert breaker.state == OPEN
        assert breaker.n_trips == 1

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        with pytest.raises(OSError):
            breaker.call(_failing())
        assert breaker.call(lambda: 42) == 42
        with pytest.raises(OSError):
            breaker.call(_failing())
        assert breaker.state == CLOSED  # count restarted after the success

    def test_open_refuses_without_calling(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=30.0,
                                 clock=FakeClock())
        with pytest.raises(OSError):
            breaker.call(_failing())
        calls = []
        with pytest.raises(CircuitOpenError) as info:
            breaker.call(lambda: calls.append(1))
        assert calls == []  # refused, not executed
        assert info.value.breaker_name == "default"
        assert info.value.retry_after_s == pytest.approx(30.0)
        assert breaker.n_refused == 1

    def test_cooldown_admits_probe_then_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0,
                                 clock=clock)
        with pytest.raises(OSError):
            breaker.call(_failing())
        assert breaker.state == OPEN
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == CLOSED

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0,
                                 clock=clock)
        with pytest.raises(OSError):
            breaker.call(_failing())
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        with pytest.raises(OSError):
            breaker.call(_failing())
        assert breaker.state == OPEN
        assert breaker.n_trips == 2
        assert breaker.retry_after() == pytest.approx(10.0)
