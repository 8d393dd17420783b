"""Memory governor: estimation, admission control, and the spill tier."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, MemoryBudgetError
from repro.runtime import MemoryGovernor, estimate_counts_bytes, estimate_nbytes


class TestEstimateNbytes:
    def test_arrays_count_their_payload(self):
        arr = np.zeros((100, 50), dtype=np.float64)
        assert estimate_nbytes(arr) == 100 * 50 * 8

    def test_containers_recurse(self):
        payload = {"a": np.zeros(1000), "b": [np.zeros(500), np.zeros(500)]}
        assert estimate_nbytes(payload) >= 2000 * 8

    def test_dataclasses_recurse(self):
        @dataclasses.dataclass
        class Box:
            data: np.ndarray
            label: str

        box = Box(data=np.zeros(256), label="x")
        assert estimate_nbytes(box) >= 256 * 8

    def test_scalars_are_small(self):
        assert 0 < estimate_nbytes(3.14) < 1024


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


class TestSpillTier:
    def test_hold_and_fetch_in_memory(self):
        governor = MemoryGovernor(1 << 30)
        value = np.arange(100)
        governor.hold("k", value)
        hit, got = governor.fetch("k")
        assert hit and got is value

    def test_lru_spill_round_trips_bit_identically(self, tmp_path):
        governor = MemoryGovernor(
            soft_limit_bytes=1024, hard_limit_bytes=1 << 30,
            spill_dir=tmp_path,
        )
        values = {f"slice{i}": np.random.default_rng(i).normal(size=100)
                  for i in range(4)}
        for key, value in values.items():
            governor.hold(key, value, nbytes=value.nbytes)
        assert governor.n_spills >= 2  # 4 × 800B against a 1KiB soft limit
        assert governor.held_bytes() <= 2 * 800
        for key, value in values.items():
            hit, got = governor.fetch(key)
            assert hit, f"{key} lost in the spill tier"
            np.testing.assert_array_equal(got, value)

    def test_without_spill_dir_everything_stays_held(self):
        governor = MemoryGovernor(soft_limit_bytes=16)
        for i in range(5):
            governor.hold(i, np.zeros(100))
        assert governor.n_spills == 0
        assert governor.stats()["held_entries"] == 5

    def test_the_newest_entry_is_never_spilled(self, tmp_path):
        governor = MemoryGovernor(soft_limit_bytes=8, spill_dir=tmp_path)
        governor.hold("only", np.zeros(100))
        assert governor.n_spills == 0  # len(_held) > 1 guard

    def test_release_forgets_both_tiers(self, tmp_path):
        governor = MemoryGovernor(soft_limit_bytes=64, spill_dir=tmp_path)
        governor.hold("a", np.zeros(100))
        governor.hold("b", np.zeros(100))  # spills "a"
        governor.release("a")
        governor.release("b")
        assert governor.fetch("a") == (False, None)
        assert governor.fetch("b") == (False, None)
        assert governor.stats()["held_entries"] == 0

    def test_stats_shape(self, tmp_path):
        governor = MemoryGovernor(soft_limit_bytes=64, spill_dir=tmp_path)
        governor.hold("a", np.zeros(100))
        stats = governor.stats()
        assert set(stats) == {
            "held_entries", "held_bytes", "spilled_entries",
            "n_spills", "n_refused", "soft_limit_bytes", "hard_limit_bytes",
        }

    def test_of_mb_converts(self):
        governor = MemoryGovernor.of_mb(2.0)
        assert governor.soft_limit_bytes == 2 * 1024 * 1024
