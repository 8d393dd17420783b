"""Tests for the columnar LogStore."""

import numpy as np
import pytest

from repro.errors import EmptyDataError, SchemaError
from repro.telemetry import ActionRecord, LogStore, write_jsonl
from repro.types import DayPeriod


class TestConstruction:
    def test_from_records(self, tiny_logs):
        assert len(tiny_logs) == 12
        assert set(tiny_logs.action_names()) == {"SelectMail", "Search"}
        assert tiny_logs.n_users() == 3

    def test_from_arrays_defaults(self):
        store = LogStore.from_arrays(
            times=[0.0, 1.0], latencies_ms=[10.0, 20.0],
            actions=["a", "b"],
        )
        assert len(store) == 2
        assert store.success.all()
        assert (store.tz_offsets == 0).all()

    def test_column_length_mismatch(self):
        with pytest.raises(SchemaError):
            LogStore.from_arrays(times=[0.0], latencies_ms=[1.0, 2.0],
                                 actions=["a"])

    def test_empty_store(self):
        store = LogStore.from_records([])
        assert store.is_empty
        with pytest.raises(EmptyDataError):
            store.time_range()

    def test_decoded_columns(self, tiny_logs):
        assert tiny_logs.actions[0] == "SelectMail"
        assert tiny_logs.user_classes[0] == "consumer"


class TestFiltering:
    def test_where_action(self, tiny_logs):
        selected = tiny_logs.where(action="Search")
        assert len(selected) > 0
        assert all(a == "Search" for a in selected.actions)

    def test_where_unknown_action_empty(self, tiny_logs):
        assert len(tiny_logs.where(action="Nope")) == 0

    def test_where_class(self, tiny_logs):
        selected = tiny_logs.where(user_class="business")
        assert len(selected) > 0
        assert all(c == "business" for c in selected.user_classes)

    def test_success_filter_default(self, tiny_logs):
        # record 5 is a failure; where() drops it by default
        assert len(tiny_logs.where()) == 11
        assert len(tiny_logs.where(success_only=False)) == 12

    def test_where_time_range(self, tiny_logs):
        selected = tiny_logs.where(time_range=(0.0, 1800.0))
        assert all(t < 1800.0 for t in selected.times)

    def test_where_user_codes(self, tiny_logs):
        code = tiny_logs.user_vocab.index("user-0")
        selected = tiny_logs.where(user_codes=np.array([code]))
        assert selected.n_users() == 1

    def test_where_period(self):
        # actions at 9am and 3am local
        records = [
            ActionRecord(time=9 * 3600.0, action="a", latency_ms=1.0),
            ActionRecord(time=3 * 3600.0, action="a", latency_ms=1.0),
        ]
        store = LogStore.from_records(records)
        morning = store.where(period=DayPeriod.MORNING)
        assert len(morning) == 1
        assert morning.times[0] == 9 * 3600.0

    def test_where_period_respects_tz(self):
        # 9am UTC with -6h offset = 3am local -> LATE_NIGHT
        record = ActionRecord(time=9 * 3600.0, action="a", latency_ms=1.0,
                              tz_offset_hours=-6.0)
        store = LogStore.from_records([record])
        assert len(store.where(period=DayPeriod.MORNING)) == 0
        assert len(store.where(period=DayPeriod.LATE_NIGHT)) == 1

    def test_where_month(self):
        records = [
            ActionRecord(time=5 * 86400.0, action="a", latency_ms=1.0),
            ActionRecord(time=45 * 86400.0, action="a", latency_ms=1.0),
        ]
        store = LogStore.from_records(records)
        assert len(store.where(month=0)) == 1
        assert len(store.where(month=1)) == 1

    def test_filter_mask_shape_check(self, tiny_logs):
        with pytest.raises(SchemaError):
            tiny_logs.filter(np.ones(3, dtype=bool))

    def test_filter_shares_vocab(self, tiny_logs):
        selected = tiny_logs.filter(np.ones(len(tiny_logs), dtype=bool))
        assert selected.action_vocab is tiny_logs.action_vocab

    @pytest.mark.parametrize("kind", ["empty", "all", "random"])
    def test_filter_equals_boolean_indexing(self, owa_logs, kind):
        n = len(owa_logs)
        mask = {"empty": np.zeros(n, dtype=bool), "all": np.ones(n, dtype=bool),
                "random": np.random.default_rng(4).random(n) < 0.3}[kind]
        selected = owa_logs.filter(mask)
        for column in ("times", "latencies_ms", "action_codes", "user_codes",
                       "class_codes", "success", "tz_offsets"):
            got, want = getattr(selected, column), getattr(owa_logs, column)[mask]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        for vocab in ("action_vocab", "user_vocab", "class_vocab"):
            assert getattr(selected, vocab) is getattr(owa_logs, vocab)


class TestOrderingAndConcat:
    def test_sorted_by_time(self):
        records = [
            ActionRecord(time=5.0, action="a", latency_ms=1.0),
            ActionRecord(time=1.0, action="b", latency_ms=2.0),
        ]
        store = LogStore.from_records(records).sorted_by_time()
        assert store.times.tolist() == [1.0, 5.0]
        assert store.actions.tolist() == ["b", "a"]

    def test_concat_re_encodes_vocab(self):
        a = LogStore.from_arrays([0.0], [1.0], ["x"], ["u1"], ["c1"])
        b = LogStore.from_arrays([1.0], [2.0], ["y"], ["u2"], ["c2"])
        merged = a.concat(b)
        assert len(merged) == 2
        assert set(merged.action_names()) == {"x", "y"}
        assert merged.n_users() == 2

    def test_concat_shared_names_merge(self):
        a = LogStore.from_arrays([0.0], [1.0], ["x"], ["u"], ["c"])
        b = LogStore.from_arrays([1.0], [2.0], ["x"], ["u"], ["c"])
        merged = a.concat(b)
        assert merged.n_users() == 1
        assert merged.action_names() == ["x"]

    @staticmethod
    def _concat_by_decoding(a, b):
        """The per-row concat: decode ``b``'s codes, re-encode into ``a``'s."""

        def encode(names, vocab):
            index = {name: i for i, name in enumerate(vocab)}
            codes = np.empty(len(names), dtype=np.int64)
            for i, name in enumerate(names):
                if name not in index:
                    index[name] = len(vocab)
                    vocab.append(name)
                codes[i] = index[name]
            return codes

        vocabs = [list(a.action_vocab), list(a.user_vocab), list(a.class_vocab)]
        codes = [
            np.concatenate([own, encode([names[c] for c in other], vocab)])
            for own, other, names, vocab in zip(
                (a.action_codes, a.user_codes, a.class_codes),
                (b.action_codes, b.user_codes, b.class_codes),
                (b.action_vocab, b.user_vocab, b.class_vocab),
                vocabs)
        ]
        return codes, vocabs

    @pytest.mark.parametrize("seed", range(12))
    def test_concat_matches_decoding_loop(self, seed):
        rng = np.random.default_rng(seed)
        pool = [f"n{i}" for i in range(12)]

        def store():
            n = int(rng.integers(0, 60))
            vocabs = [list(rng.permutation(pool)[:int(rng.integers(1, 9))])
                      for _ in range(3)]
            # Codes use only part of each vocabulary: the rest is unused.
            codes = [rng.integers(0, max(1, len(v) - 2), n) for v in vocabs]
            return LogStore.from_coded_arrays(
                rng.random(n), rng.random(n), codes[0], vocabs[0],
                codes[1], vocabs[1], codes[2], vocabs[2],
                success=rng.random(n) < 0.9, tz_offsets=rng.random(n))

        a, b = store(), store()
        merged = a.concat(b)
        codes, vocabs = self._concat_by_decoding(a, b)
        for got, want in zip((merged.action_codes, merged.user_codes,
                              merged.class_codes), codes):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert [merged.action_vocab, merged.user_vocab, merged.class_vocab] == vocabs
        assert merged.times.tobytes() == np.concatenate([a.times, b.times]).tobytes()
        assert merged.success.tolist() == a.success.tolist() + b.success.tolist()


class TestAggregation:
    def test_per_user_median(self):
        records = [
            ActionRecord(time=0.0, action="a", latency_ms=100.0, user_id="u1"),
            ActionRecord(time=1.0, action="a", latency_ms=300.0, user_id="u1"),
            ActionRecord(time=2.0, action="a", latency_ms=50.0, user_id="u2"),
        ]
        store = LogStore.from_records(records)
        codes, medians = store.per_user_median_latency()
        by_code = dict(zip(codes.tolist(), medians.tolist()))
        u1 = store.user_vocab.index("u1")
        u2 = store.user_vocab.index("u2")
        assert by_code[u1] == 200.0
        assert by_code[u2] == 50.0

    def test_per_user_median_equals_np_median(self):
        """Odd and even runs, repeated values and a NaN run, user by user."""
        rng = np.random.default_rng(8)
        n = 5000
        users = rng.integers(0, 300, size=n)
        latencies = np.round(rng.lognormal(4.0, 1.0, size=n), 1)
        latencies[rng.random(n) < 0.001] = np.nan
        store = LogStore.from_arrays(
            times=np.arange(n, dtype=float), latencies_ms=latencies,
            actions=["a"] * n, user_ids=[f"u{u}" for u in users])
        codes, medians = store.per_user_median_latency()
        assert np.array_equal(codes, np.unique(store.user_codes))
        expected = [np.median(store.latencies_ms[store.user_codes == c]) for c in codes]
        assert np.array_equal(medians, expected, equal_nan=True)
        assert np.isnan(medians).any()

    def test_per_user_counts(self, tiny_logs):
        codes, counts = tiny_logs.per_user_action_count()
        assert counts.sum() == len(tiny_logs)

    def test_per_user_median_empty(self):
        with pytest.raises(EmptyDataError):
            LogStore.from_records([]).per_user_median_latency()


class TestRoundTrip:
    def test_records_round_trip(self, tiny_logs):
        records = tiny_logs.to_records()
        clone = LogStore.from_records(records)
        assert np.allclose(clone.times, tiny_logs.times)
        assert np.allclose(clone.latencies_ms, tiny_logs.latencies_ms)
        assert clone.actions.tolist() == tiny_logs.actions.tolist()
        assert np.array_equal(clone.success, tiny_logs.success)

    def test_duration(self, tiny_logs):
        assert tiny_logs.duration() == tiny_logs.times.max() - tiny_logs.times.min()


def per_row_records(store):
    """The one-row-at-a-time decode ``iter_records`` replaced."""
    for i in range(len(store)):
        yield ActionRecord(
            time=float(store.times[i]),
            action=store.action_vocab[int(store.action_codes[i])],
            latency_ms=float(store.latencies_ms[i]),
            user_id=store.user_vocab[int(store.user_codes[i])],
            user_class=store.class_vocab[int(store.class_codes[i])],
            success=bool(store.success[i]),
            tz_offset_hours=float(store.tz_offsets[i]),
        )


def typed_fields(record):
    """Every field as (type, repr): NaN-safe, and type-exact."""
    return tuple((type(value), repr(value)) for value in (
        record.time, record.action, record.latency_ms, record.user_id,
        record.user_class, record.success, record.tz_offset_hours, record.extra))


def coded_store(n, float_dtype=np.float64, code_dtype=np.int64):
    rng = np.random.default_rng(n)
    latencies = rng.lognormal(5.0, 0.5, n).astype(float_dtype)
    latencies[::97] = np.nan
    return LogStore.from_coded_arrays(
        times=rng.uniform(0.0, 86400.0, n).astype(float_dtype),
        latencies_ms=latencies,
        action_codes=rng.integers(0, 2, n).astype(code_dtype),
        action_vocab=["SelectMail", "Search"],
        user_codes=rng.integers(0, 3, n).astype(code_dtype),
        user_vocab=["u-0", "u-é", 'u-"'],
        class_codes=rng.integers(0, 2, n).astype(code_dtype),
        class_vocab=["business", "consumer"],
        success=rng.random(n) < 0.9,
        tz_offsets=rng.choice([-5.0, 0.0, 5.5], n).astype(float_dtype),
    )


class TestIterRecords:
    @pytest.mark.parametrize("n", [0, 1, 8192, 8193])
    @pytest.mark.parametrize("float_dtype,code_dtype", [
        (np.float64, np.int64), (np.float32, np.int32), (np.float32, np.int8)])
    def test_matches_per_row_decode(self, n, float_dtype, code_dtype):
        store = coded_store(n, float_dtype, code_dtype)
        got = [typed_fields(r) for r in store.iter_records()]
        assert got == [typed_fields(r) for r in per_row_records(store)]
        assert len(got) == n
        if n:
            assert {t for t, _ in got[0]} == {float, str, bool, dict}

    def test_validation_still_runs(self):
        store = LogStore.from_arrays(times=np.zeros(2), latencies_ms=[1.0, -1.0],
                                     actions=["a", "a"])
        with pytest.raises(SchemaError, match="latency"):
            store.to_records()

    @pytest.mark.parametrize("n", [0, 8193])
    def test_store_and_records_write_the_same_bytes(self, n, tmp_path):
        store = coded_store(n)
        assert write_jsonl(store, tmp_path / "store.jsonl") == n
        assert write_jsonl(store.iter_records(), tmp_path / "records.jsonl") == n
        assert ((tmp_path / "store.jsonl").read_bytes()
                == (tmp_path / "records.jsonl").read_bytes())
