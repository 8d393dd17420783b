"""``LogStore.where`` through the store's group index.

``where`` takes a named action's candidate rows from a per-store index (one
stable counting sort of the rows by action and class code) and evaluates
the other criteria on those rows only. These tests hold it to a plain mask
over the whole store, kept here as the reference, and check that the index
never reaches a pickle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AutoSens, AutoSensConfig
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.parallel.checkpoint import CheckpointJournal
from repro.telemetry import LogStore
from repro.telemetry import timeutil
from repro.types import ActionType, DayPeriod, UserClass
from repro.workload import owa_scenario

ACTIONS = [action.value for action in ActionType]
CLASSES = [user_class.value for user_class in UserClass]
COLUMNS = ("times", "latencies_ms", "action_codes", "user_codes", "class_codes",
           "success", "tz_offsets")
_PERIOD_HOURS = {
    DayPeriod.MORNING: (8.0, 14.0),
    DayPeriod.AFTERNOON: (14.0, 20.0),
    DayPeriod.NIGHT: (20.0, 2.0),
    DayPeriod.LATE_NIGHT: (2.0, 8.0),
}


def reference_where(store, action=None, user_class=None, period=None, month=None,
                    time_range=None, user_codes=None, tz_offset=None,
                    success_only=True, days_per_month=30):
    """The slice as one mask over every row, indexed column by column."""
    mask = np.ones(len(store), dtype=bool)
    if success_only:
        mask &= store.success
    for value, vocab, codes in ((action, store.action_vocab, store.action_codes),
                                (user_class, store.class_vocab, store.class_codes)):
        if value is not None:
            name = value.value if hasattr(value, "value") else str(value)
            if name not in vocab:
                mask[:] = False
            else:
                mask &= codes == vocab.index(name)
    if period is not None:
        hours = timeutil.hour_of_day(store.times, store.tz_offsets)
        lo, hi = _PERIOD_HOURS[period]
        mask &= ((hours >= lo) & (hours < hi)) if lo < hi else ((hours >= lo) | (hours < hi))
    if month is not None:
        mask &= timeutil.month_index(store.times, days_per_month) == month
    if time_range is not None:
        mask &= (store.times >= time_range[0]) & (store.times < time_range[1])
    if user_codes is not None:
        mask &= np.isin(store.user_codes, np.asarray(user_codes, dtype=np.int64))
    if tz_offset is not None:
        mask &= np.isclose(store.tz_offsets, tz_offset)
    return {name: getattr(store, name)[mask] for name in COLUMNS}


def assert_same_slice(got, want, store):
    for name in COLUMNS:
        column = getattr(got, name)
        assert column.dtype == want[name].dtype, name
        assert np.array_equal(column, want[name], equal_nan=column.dtype.kind == "f"), name
    assert got.action_vocab is store.action_vocab
    assert got.user_vocab is store.user_vocab
    assert got.class_vocab is store.class_vocab


def _coded_store(rng, n, action_vocab, class_vocab, codes_outside=False, shuffled=False):
    """A store with repeated times, three timezones and failures: time-sorted,
    or (``shuffled``) in random order with some NaN times."""
    times = np.sort(np.round(rng.uniform(0.0, 5 * 86400.0, n), -2))
    if shuffled:
        times = rng.permutation(times)
        times[rng.random(n) < 0.2] = np.nan
    action_codes = rng.integers(0, len(action_vocab), n)
    class_codes = rng.integers(0, len(class_vocab), n)
    if codes_outside and n:
        rows = rng.integers(0, n, max(1, n // 5))
        action_codes[rows] = rng.choice([-1, len(action_vocab), len(action_vocab) + 3], rows.size)
        class_codes[rows[::2]] = rng.choice([-2, len(class_vocab)], rows[::2].size)
    return LogStore.from_coded_arrays(
        times=times,
        latencies_ms=rng.uniform(50.0, 2000.0, n),
        action_codes=action_codes,
        action_vocab=action_vocab,
        user_codes=rng.integers(0, 8, n),
        user_vocab=[f"u{i}" for i in range(8)],
        class_codes=class_codes,
        class_vocab=class_vocab,
        success=rng.random(n) < 0.8,
        tz_offsets=rng.choice([-8.0, 0.0, 5.5], n),
    )


@st.composite
def stores(draw):
    kind = draw(st.sampled_from(["random", "concat", "unsorted-nan", "empty", "codes-outside"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 0 if kind == "empty" else draw(st.integers(1, 80))
    store = _coded_store(rng, n, ACTIONS, CLASSES, codes_outside=kind == "codes-outside",
                         shuffled=kind == "unsorted-nan")
    if kind == "concat":
        # The other store names its actions and classes in another order,
        # and one action this store lacks: concat remaps its codes.
        other = _coded_store(rng, draw(st.integers(0, 40)),
                             ACTIONS[::-1] + ["Archive"], CLASSES[::-1])
        store = store.concat(other)
    return store


@st.composite
def predicates(draw):
    predicate = {
        "action": draw(st.sampled_from([None, None, *ACTIONS, ActionType.SEARCH,
                                        "Archive", "Nope"])),
        "user_class": draw(st.sampled_from([None, *CLASSES, UserClass.BUSINESS, "nobody"])),
        "period": draw(st.sampled_from([None, *DayPeriod])),
        "success_only": draw(st.booleans()),
    }
    if draw(st.booleans()):
        predicate["days_per_month"] = draw(st.sampled_from([1, 2, 30]))
        predicate["month"] = draw(st.integers(0, 3))
    if draw(st.booleans()):
        lo = draw(st.floats(0.0, 5 * 86400.0))
        predicate["time_range"] = (lo, lo + draw(st.floats(0.0, 3 * 86400.0)))
    if draw(st.booleans()):
        predicate["user_codes"] = np.array(draw(st.lists(st.integers(0, 9), max_size=5)),
                                           dtype=np.int64)
    predicate["tz_offset"] = draw(st.sampled_from([None, 0.0, 5.5]))
    return predicate


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")  # NaN months
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(store=stores(), conjunctions=st.lists(predicates(), min_size=1, max_size=4))
def test_where_equals_a_mask_over_every_row(store, conjunctions):
    # Several slices of one store: the first that names an action builds
    # the index, the others reuse it.
    for predicate in conjunctions:
        assert_same_slice(store.where(**predicate), reference_where(store, **predicate), store)


@pytest.mark.parametrize("period", [None, *DayPeriod])
@pytest.mark.parametrize("user_class", [None, *CLASSES])
@pytest.mark.parametrize("action", [None, *ACTIONS])
def test_generated_store(owa_logs, action, user_class, period):
    got = owa_logs.where(action=action, user_class=user_class, period=period)
    assert_same_slice(got, reference_where(owa_logs, action, user_class, period), owa_logs)


def test_codes_outside_a_vocabulary_take_the_all_rows_path():
    store = LogStore.from_coded_arrays(
        times=np.arange(6.0), latencies_ms=np.full(6, 100.0),
        action_codes=np.array([0, 1, 5, 0, -1, 1]), action_vocab=["a", "b"],
        user_codes=np.zeros(6, dtype=np.int64), user_vocab=["u"],
        class_codes=np.array([0, 0, 1, 1, 0, 1]), class_vocab=["x", "y"])
    assert store._group_index() is None
    for action in ("a", "b"):
        for user_class in (None, "x", "y"):
            assert_same_slice(store.where(action=action, user_class=user_class),
                              reference_where(store, action, user_class), store)


def test_index_rows_are_int32_and_group_sorted(owa_logs):
    rows, bounds, n_actions, n_classes = owa_logs._group_index()
    assert rows.dtype == np.int32
    assert bounds[-1] == len(owa_logs)
    key = owa_logs.action_codes * n_classes + owa_logs.class_codes
    assert np.array_equal(rows, np.argsort(key, kind="stable"))
    assert np.array_equal(np.diff(bounds), np.bincount(key, minlength=n_actions * n_classes))


def test_a_name_added_to_a_shared_vocabulary_after_the_build_selects_nothing():
    store = LogStore.from_arrays([1.0, 2.0], [10.0, 20.0], ["a", "b"],
                                 user_classes=["x", "x"])
    assert len(store.where(action="a")) == 1  # builds the index
    store.action_vocab.append("c")
    store.class_vocab.append("z")
    assert len(store.where(action="c")) == 0
    assert len(store.where(action="a", user_class="z")) == 0


class TestPickle:
    def test_bytes_do_not_depend_on_the_index(self, owa_logs):
        store = owa_logs.where(success_only=False)  # a store no test indexed yet
        assert store._groups is None
        before = pickle.dumps(store)
        store.where(action="Search", user_class="consumer")
        assert store._groups is not None
        assert pickle.dumps(store) == before
        assert pickle.dumps(store, protocol=4) == pickle.dumps(
            pickle.loads(before), protocol=4)

    def test_checkpoint_key_does_not_depend_on_the_index(self, owa_logs, tmp_path):
        store = owa_logs.where(success_only=False)
        journal = CheckpointJournal(tmp_path, namespace="sweep")
        key = journal.key_for(store, {"action": "Search"})
        store.where(action="Search")
        assert journal.key_for(store, {"action": "Search"}) == key

    def test_an_unpickled_store_rebuilds_its_index(self, owa_logs):
        store = owa_logs.where(success_only=False)
        store.where(action="SelectMail")
        copy = pickle.loads(pickle.dumps(store))
        assert "_groups" not in vars(copy)
        assert_same_slice(copy.where(action="SelectMail", user_class="business"),
                          reference_where(copy, "SelectMail", "business"), copy)


def test_process_sweep_on_an_indexed_store_gives_the_serial_bytes():
    logs = owa_scenario(seed=3, duration_days=3.0, n_users=60).generate().logs
    serial = AutoSens(AutoSensConfig(seed=3), executor=SerialExecutor()).curves_by_action(logs)
    logs.where(action="SelectMail")  # the index is built before the sweep is pickled
    assert logs._groups is not None
    process = AutoSens(AutoSensConfig(seed=3),
                       executor=ProcessExecutor(max_workers=2)).curves_by_action(logs)
    assert list(process) == list(serial)
    for name, curve in serial.items():
        got = process[name].series()
        for column, values in curve.series().items():
            assert got[column].dtype == values.dtype
            assert got[column].tobytes() == values.tobytes(), (name, column)
