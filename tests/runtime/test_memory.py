"""Memory governor: estimation, admission control and wave bounding."""

import pytest

from repro.errors import ConfigError, MemoryBudgetError
from repro.runtime import MemoryGovernor, estimate_counts_bytes


class TestEstimateCountsBytes:
    def test_matches_the_tensor_geometry(self):
        # 2 float64 (slots, bins) tensors + 5 per-action columns.
        got = estimate_counts_bytes(n_actions=1000, n_bins=32, n_slots=24)
        assert got == 2 * 24 * 32 * 8 + 5 * 1000 * 8

    def test_scales_with_actions(self):
        small = estimate_counts_bytes(100, 32)
        large = estimate_counts_bytes(100_000, 32)
        assert large > small * 100


class TestAdmission:
    def test_rejects_bad_limits(self):
        with pytest.raises(ConfigError):
            MemoryGovernor(0)
        with pytest.raises(ConfigError):
            MemoryGovernor(1000, hard_limit_bytes=500)

    def test_admit_passes_within_budget(self):
        MemoryGovernor(1 << 20).admit(1 << 10)  # must not raise

    def test_admit_refuses_past_the_hard_limit(self):
        governor = MemoryGovernor(1 << 10)
        with pytest.raises(MemoryBudgetError) as info:
            governor.admit(1 << 20, what="slice [weekday]")
        assert "slice [weekday]" in str(info.value)
        assert info.value.requested_bytes == 1 << 20
        assert info.value.budget_bytes == 1 << 10
        assert governor.n_refused == 1

    def test_max_concurrent_bounds_fanout(self):
        governor = MemoryGovernor(1000)
        assert governor.max_concurrent(per_task_bytes=300, n_tasks=10) == 3
        assert governor.max_concurrent(per_task_bytes=1, n_tasks=2) == 2
        assert governor.max_concurrent(per_task_bytes=99999, n_tasks=10) == 1
        assert governor.max_concurrent(per_task_bytes=0, n_tasks=10) == 10


    def test_stats_shape(self):
        governor = MemoryGovernor(soft_limit_bytes=64, hard_limit_bytes=128)
        assert governor.stats() == {
            "n_refused": 0, "soft_limit_bytes": 64, "hard_limit_bytes": 128,
        }

    def test_of_mb_converts(self):
        governor = MemoryGovernor.of_mb(2.0)
        assert governor.soft_limit_bytes == 2 * 1024 * 1024
