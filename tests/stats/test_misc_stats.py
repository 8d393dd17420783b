"""Tests for correlation and RNG helpers."""

import numpy as np
import pytest

from repro.errors import EmptyDataError
from repro.stats.correlation import pearson, spearman
from repro.stats.rng import RngFactory, spawn_rng


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert np.isclose(pearson(x, 2 * x + 1), 1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert np.isclose(pearson(x, -x), -1.0)

    def test_constant_input_returns_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_nan_pairs_dropped(self):
        x = np.array([1.0, 2.0, np.nan, 4.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.isclose(pearson(x, y), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(EmptyDataError):
            pearson(np.arange(3.0), np.arange(4.0))

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        assert abs(pearson(rng.normal(size=5000), rng.normal(size=5000))) < 0.05


class TestSpearman:
    def test_monotone_nonlinear(self):
        x = np.arange(1.0, 20.0)
        assert np.isclose(spearman(x, x**3), 1.0)

    def test_ties_handled(self):
        x = np.array([1.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 1.0, 2.0, 3.0])
        assert np.isclose(spearman(x, y), 1.0)

    def test_anticorrelated(self):
        x = np.arange(10.0)
        assert np.isclose(spearman(x, -np.exp(x)), -1.0)


class TestRng:
    def test_spawn_from_int_deterministic(self):
        a = spawn_rng(1).integers(0, 1000, 10)
        b = spawn_rng(1).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_spawn_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert spawn_rng(gen) is gen

    def test_factory_children_independent(self):
        factory = RngFactory(42)
        a = factory.child("a").integers(0, 10**9, 20)
        b = factory.child("b").integers(0, 10**9, 20)
        assert not np.array_equal(a, b)

    def test_factory_reproducible(self):
        a = RngFactory(7).child("x").integers(0, 10**9, 20)
        b = RngFactory(7).child("x").integers(0, 10**9, 20)
        assert np.array_equal(a, b)

    def test_same_name_advances(self):
        factory = RngFactory(7)
        a = factory.child("x").integers(0, 10**9, 20)
        b = factory.child("x").integers(0, 10**9, 20)
        assert not np.array_equal(a, b)

    def test_fork_independent(self):
        factory = RngFactory(7)
        forked = factory.fork("sub")
        a = factory.child("x").integers(0, 10**9, 10)
        b = forked.child("x").integers(0, 10**9, 10)
        assert not np.array_equal(a, b)
