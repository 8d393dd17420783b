"""Retry policy semantics: backoff, taxonomy, exhaustion."""

import pytest

from repro.errors import (
    ConfigError,
    InsufficientDataError,
    ReproError,
    TaskFailedError,
)
from repro.parallel import RetryPolicy, call_with_retry, is_retryable


class TestRetryPolicy:
    def test_delays_are_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=1.0,
                             backoff_factor=2.0, max_backoff_s=3.0)
        assert list(policy.delays()) == [1.0, 2.0, 3.0, 3.0]

    def test_single_attempt_has_no_delays(self):
        assert list(RetryPolicy(max_attempts=1).delays()) == []

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_base_s": -1.0},
        {"backoff_factor": 0.5},
        {"timeout_s": 0.0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


class TestIsRetryable:
    def test_infrastructure_errors_are_retryable(self):
        from concurrent.futures.process import BrokenProcessPool

        assert is_retryable(OSError("io"))
        assert is_retryable(TimeoutError("slow"))
        assert is_retryable(BrokenProcessPool("dead worker"))

    def test_data_errors_are_not(self):
        assert not is_retryable(InsufficientDataError("sparse"))
        assert not is_retryable(ReproError("nope"))
        assert not is_retryable(ValueError("bug"))
        assert not is_retryable(KeyboardInterrupt())


class TestCallWithRetry:
    def test_success_needs_no_retry(self):
        sleeps = []
        assert call_with_retry(lambda x: x + 1, 41, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_transient_failure_recovers(self):
        attempts = []

        def flaky(x):
            attempts.append(x)
            if len(attempts) < 3:
                raise OSError("transient")
            return x * 2

        sleeps = []
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.5,
                             backoff_factor=2.0)
        assert call_with_retry(flaky, 5, policy=policy, sleep=sleeps.append) == 10
        assert attempts == [5, 5, 5]
        assert sleeps == [0.5, 1.0]

    def test_data_error_propagates_immediately(self):
        attempts = []

        def broken(_):
            attempts.append(1)
            raise InsufficientDataError("sparse slice")

        with pytest.raises(InsufficientDataError):
            call_with_retry(broken, 0, sleep=lambda _: None)
        assert len(attempts) == 1

    def test_exhaustion_raises_task_failed(self):
        def always_down(_):
            raise OSError("still down")

        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(TaskFailedError) as excinfo:
            call_with_retry(always_down, 0, policy=policy,
                            task_name="sweep[2]", sleep=lambda _: None)
        err = excinfo.value
        assert err.task_name == "sweep[2]"
        assert err.attempts == 3
        assert isinstance(err.last_cause, OSError)
        assert isinstance(err.__cause__, OSError)
