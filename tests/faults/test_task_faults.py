"""Execution-level fault wrappers: StalledTask and MemoryHog."""

import pickle

import pytest

from tests.faults import MemoryHog, StalledTask


def _double(x):
    return x * 2


def _is_odd(x):
    return x % 2 == 1


class TestStalledTask:
    def test_unselected_items_run_normally(self):
        sleeps = []
        stalled = StalledTask(_double, _is_odd, stall_s=100.0,
                              sleep=sleeps.append)
        assert stalled(4) == 8
        assert sleeps == []

    def test_parent_process_never_stalls_by_default(self):
        # only_in_worker=True: this process built the wrapper, so even a
        # selected item completes — the serial requeue path must succeed.
        sleeps = []
        stalled = StalledTask(_double, _is_odd, stall_s=100.0,
                              sleep=sleeps.append)
        assert stalled(3) == 6
        assert sleeps == []

    def test_stalls_when_worker_semantics_forced_off(self):
        import time

        stalled = StalledTask(_double, _is_odd, stall_s=0.05,
                              only_in_worker=False)
        t0 = time.monotonic()
        assert stalled(3) == 6  # returns after the bounded stall
        assert time.monotonic() - t0 >= 0.05

    def test_simulated_worker_pid_stalls(self):
        import time

        stalled = StalledTask(_double, _is_odd, stall_s=0.05)
        stalled.spawn_pid = -1  # pretend another process built it
        t0 = time.monotonic()
        assert stalled(3) == 6
        assert time.monotonic() - t0 >= 0.05  # the stall path ran

    def test_pickle_round_trip_preserves_semantics(self):
        stalled = StalledTask(_double, _is_odd, stall_s=0.01,
                              sleep=lambda s: None)
        clone = pickle.loads(pickle.dumps(stalled))
        assert clone.spawn_pid == stalled.spawn_pid
        assert clone.stall_s == stalled.stall_s
        assert clone(4) == 8  # unselected: runs clean in any process

    def test_mirrors_wrapped_identity(self):
        stalled = StalledTask(_double, _is_odd)
        assert stalled.__qualname__ == "_double"
        assert stalled.__module__ == _double.__module__


class TestMemoryHog:
    def test_unselected_items_do_not_hog(self):
        hog = MemoryHog(_double, _is_odd, ballast_mb=1.0)
        assert hog(4) == 8
        assert hog.n_hogs == 0

    def test_selected_items_hog_but_results_are_unchanged(self):
        hog = MemoryHog(_double, _is_odd, ballast_mb=2.0, chunk_mb=1.0)
        assert hog(3) == 6
        assert hog(5) == 10
        assert hog.n_hogs == 2

    def test_result_matches_uninjected_run(self):
        import numpy as np

        def kernel(seed):
            return np.random.default_rng(seed).normal(size=256)

        hog = MemoryHog(kernel, lambda s: True, ballast_mb=1.0)
        np.testing.assert_array_equal(hog(7), kernel(7))

    def test_ballast_is_transient(self):
        hog = MemoryHog(_double, _is_odd, ballast_mb=1.0)
        hog(3)
        # Nothing retained on the wrapper besides counters.
        assert not any(
            isinstance(v, list) and v for v in vars(hog).values()
        )

    def test_mirrors_wrapped_identity(self):
        hog = MemoryHog(_double, _is_odd)
        assert hog.__qualname__ == "_double"


class TestFaultsExports:
    def test_package_exports_task_faults(self):
        import tests.faults as faults

        assert "StalledTask" in faults.__all__
        assert "MemoryHog" in faults.__all__
