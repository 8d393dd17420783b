"""Columnar, NumPy-backed telemetry store.

At the paper's scale (billions of rows) telemetry lives in a data warehouse;
at reproduction scale a columnar in-memory store with vectorized filtering
plays that role. Strings (action names, user ids, user classes) are
dictionary-encoded: each :class:`LogStore` carries integer code columns plus
shared vocabularies, so filtering and grouping never touch Python strings.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import EmptyDataError, SchemaError
from repro.telemetry.record import ActionRecord
from repro.telemetry import timeutil
from repro.types import ActionType, DayPeriod, UserClass


def _encode(values: Sequence[str], vocab: List[str],
            index: Optional[Dict[str, int]] = None) -> np.ndarray:
    """Dictionary-encode ``values`` into ``vocab`` (extended in place).

    New names are appended in first-appearance order. ``index`` maps the
    names of ``vocab`` to their codes; pass the same dict on every call to
    encode one column chunk by chunk without rebuilding it.
    """
    if index is None:
        index = {name: i for i, name in enumerate(vocab)}
    for name in dict.fromkeys(values):
        if name not in index:
            index[name] = len(vocab)
            vocab.append(name)
    return np.fromiter(map(index.__getitem__, values), dtype=np.int64,
                       count=len(values))


def _remap(codes: np.ndarray, names: Sequence[str], vocab: List[str]) -> np.ndarray:
    """The rows of ``codes`` (indexes into ``names``) as codes into ``vocab``.

    ``vocab`` is extended in place, exactly as :func:`_encode` over the
    decoded strings would: only names some row uses are added, in the
    order of their first row. One mapping array replaces the per-row
    decode.
    """
    index = {name: i for i, name in enumerate(vocab)}
    present, first_row = np.unique(codes, return_index=True)
    mapping = np.zeros(len(names), dtype=np.int64)
    for code in present[np.argsort(first_row)].tolist():
        name = names[code]
        new = index.get(name)
        if new is None:
            new = index[name] = len(vocab)
            vocab.append(name)
        mapping[code] = new
    return mapping[codes]


def _as_name(value: Union[str, ActionType, UserClass]) -> str:
    if isinstance(value, (ActionType, UserClass)):
        return value.value
    return str(value)


def _code(vocab: List[str], value: Union[str, ActionType, UserClass, None]) -> Optional[int]:
    """``value``'s code in ``vocab``: ``None`` for no value, -1 for a name
    the vocabulary lacks."""
    if value is None:
        return None
    name = _as_name(value)
    return vocab.index(name) if name in vocab else -1


class Columns(NamedTuple):
    """One batch of rows as columns, before dictionary encoding."""

    times: np.ndarray
    latencies_ms: np.ndarray
    actions: List[str]
    user_ids: List[str]
    user_classes: List[str]
    success: np.ndarray
    tz_offsets: np.ndarray

    def rows(self, lo: int, hi: int) -> "Columns":
        return Columns(*(column[lo:hi] for column in self))


class ColumnBuilder:
    """Builds a :class:`LogStore` from batches of columns and single records.

    The vocabularies and their name → code indexes carry across batches
    and new names are appended in first-appearance order, so the codes and
    vocabularies depend only on the rows and their order, not on how they
    were split into batches and records.
    """

    def __init__(self) -> None:
        self._chunks: List[tuple] = []
        self._records: List[ActionRecord] = []
        self._vocabs: Tuple[List[str], List[str], List[str]] = ([], [], [])
        self._indexes: Tuple[Dict[str, int], ...] = ({}, {}, {})

    def add_record(self, record: ActionRecord) -> None:
        self._records.append(record)

    def add_columns(self, columns: Columns) -> None:
        self._flush_records()
        codes = [_encode(names, vocab, index) for names, vocab, index in zip(
            (columns.actions, columns.user_ids, columns.user_classes),
            self._vocabs, self._indexes)]
        self._chunks.append((columns.times, columns.latencies_ms, *codes,
                             columns.success, columns.tz_offsets))

    def _flush_records(self) -> None:
        records, self._records = self._records, []
        if records:
            self.add_columns(Columns(
                times=np.array([r.time for r in records], dtype=float),
                latencies_ms=np.array([r.latency_ms for r in records], dtype=float),
                actions=[r.action for r in records],
                user_ids=[r.user_id for r in records],
                user_classes=[r.user_class for r in records],
                success=np.array([r.success for r in records], dtype=bool),
                tz_offsets=np.array([r.tz_offset_hours for r in records], dtype=float),
            ))

    def store(self) -> LogStore:
        self._flush_records()
        if not self._chunks:
            return LogStore(*[np.empty(0)] * 7, *self._vocabs)
        return LogStore(*(np.concatenate(parts) for parts in zip(*self._chunks)),
                        *self._vocabs)


class LogStore:
    """An immutable columnar batch of :class:`ActionRecord` rows.

    Construction is via :meth:`from_records`, :meth:`from_arrays`, or the
    telemetry readers. All filtering methods return new stores sharing the
    vocabularies (cheap views of the underlying arrays where possible).

    Stores built by the file readers carry the read's
    :class:`~repro.telemetry.ingest.IngestReport` as ``ingest_report``
    (``None`` for stores built in memory); :attr:`n_skipped_rows` exposes
    its skip count.
    """

    #: Set by the telemetry readers; ``None`` for in-memory stores.
    ingest_report = None
    #: The group index: ``None`` until the first :meth:`where` that names
    #: an action builds it (:meth:`_group_index`).
    _groups = None

    def __init__(
        self,
        times: np.ndarray,
        latencies_ms: np.ndarray,
        action_codes: np.ndarray,
        user_codes: np.ndarray,
        class_codes: np.ndarray,
        success: np.ndarray,
        tz_offsets: np.ndarray,
        action_vocab: List[str],
        user_vocab: List[str],
        class_vocab: List[str],
    ) -> None:
        n = len(times)
        columns = (latencies_ms, action_codes, user_codes, class_codes, success, tz_offsets)
        if any(len(c) != n for c in columns):
            raise SchemaError("all columns must have equal length")
        self.times = np.asarray(times, dtype=float)
        self.latencies_ms = np.asarray(latencies_ms, dtype=float)
        self.action_codes = np.asarray(action_codes, dtype=np.int64)
        self.user_codes = np.asarray(user_codes, dtype=np.int64)
        self.class_codes = np.asarray(class_codes, dtype=np.int64)
        self.success = np.asarray(success, dtype=bool)
        self.tz_offsets = np.asarray(tz_offsets, dtype=float)
        self.action_vocab = action_vocab
        self.user_vocab = user_vocab
        self.class_vocab = class_vocab

    # -- constructors --------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[ActionRecord]) -> "LogStore":
        """Build a store from an iterable of records."""
        builder = ColumnBuilder()
        for record in records:
            builder.add_record(record)
        return builder.store()

    @classmethod
    def from_arrays(
        cls,
        times: np.ndarray,
        latencies_ms: np.ndarray,
        actions: Sequence[str],
        user_ids: Optional[Sequence[str]] = None,
        user_classes: Optional[Sequence[str]] = None,
        success: Optional[np.ndarray] = None,
        tz_offsets: Optional[np.ndarray] = None,
    ) -> "LogStore":
        """Build a store from parallel arrays; missing metadata defaults."""
        n = len(times)
        action_vocab: List[str] = []
        user_vocab: List[str] = []
        class_vocab: List[str] = []
        if user_ids is None:
            user_ids = [""] * n
        if user_classes is None:
            user_classes = [""] * n
        return cls(
            times=np.asarray(times, dtype=float),
            latencies_ms=np.asarray(latencies_ms, dtype=float),
            action_codes=_encode(list(actions), action_vocab),
            user_codes=_encode(list(user_ids), user_vocab),
            class_codes=_encode(list(user_classes), class_vocab),
            success=(np.ones(n, dtype=bool) if success is None
                     else np.asarray(success, dtype=bool)),
            tz_offsets=(np.zeros(n, dtype=float) if tz_offsets is None
                        else np.asarray(tz_offsets, dtype=float)),
            action_vocab=action_vocab,
            user_vocab=user_vocab,
            class_vocab=class_vocab,
        )

    @classmethod
    def from_coded_arrays(
        cls,
        times: np.ndarray,
        latencies_ms: np.ndarray,
        action_codes: np.ndarray,
        action_vocab: Sequence[str],
        user_codes: np.ndarray,
        user_vocab: Sequence[str],
        class_codes: np.ndarray,
        class_vocab: Sequence[str],
        success: Optional[np.ndarray] = None,
        tz_offsets: Optional[np.ndarray] = None,
    ) -> "LogStore":
        """Zero-copy constructor for already dictionary-encoded columns."""
        n = len(times)
        return cls(
            times=times,
            latencies_ms=latencies_ms,
            action_codes=action_codes,
            user_codes=user_codes,
            class_codes=class_codes,
            success=(np.ones(n, dtype=bool) if success is None else success),
            tz_offsets=(np.zeros(n, dtype=float) if tz_offsets is None else tz_offsets),
            action_vocab=list(action_vocab),
            user_vocab=list(user_vocab),
            class_vocab=list(class_vocab),
        )

    # -- basic views -----------------------------------------------------

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def n_skipped_rows(self) -> int:
        """Rows the reader rejected while building this store (0 if none).

        This is the lenient-mode skip count that ``read_jsonl`` historically
        lost; see :attr:`ingest_report` for the full breakdown.
        """
        return self.ingest_report.n_bad if self.ingest_report is not None else 0

    @property
    def actions(self) -> np.ndarray:
        """Action names as an object array (decoded)."""
        vocab = np.asarray(self.action_vocab, dtype=object)
        return vocab[self.action_codes]

    @property
    def user_classes(self) -> np.ndarray:
        """User class names as an object array (decoded)."""
        vocab = np.asarray(self.class_vocab, dtype=object)
        return vocab[self.class_codes]

    @property
    def local_times(self) -> np.ndarray:
        """Timestamps shifted into each user's local clock."""
        return self.times + 3600.0 * self.tz_offsets

    def time_range(self) -> Tuple[float, float]:
        """(min, max) timestamp; raises on an empty store."""
        if self.is_empty:
            raise EmptyDataError("empty log store has no time range")
        return float(self.times.min()), float(self.times.max())

    def duration(self) -> float:
        """Observation span in seconds."""
        lo, hi = self.time_range()
        return hi - lo

    def action_names(self) -> List[str]:
        """Distinct action names actually present, in vocab order."""
        present = np.unique(self.action_codes)
        return [self.action_vocab[int(c)] for c in present]

    def class_names(self) -> List[str]:
        """Distinct user class names actually present, in vocab order."""
        present = np.unique(self.class_codes)
        return [self.class_vocab[int(c)] for c in present]

    def n_users(self) -> int:
        """Number of distinct users present."""
        return int(np.unique(self.user_codes).size)

    def tz_offsets_present(self) -> List[float]:
        """Distinct timezone offsets (regions) present, sorted."""
        return sorted(float(x) for x in np.unique(self.tz_offsets))

    # -- filtering ---------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "LogStore":
        """Return the rows where ``mask`` is true (vocabularies shared).

        The row indexes are found once and every column is gathered with
        ``take``: seven boolean-mask indexings would each rescan the mask.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.times.shape:
            raise SchemaError("mask must have one entry per row")
        return self._take(np.flatnonzero(mask))

    def _take(self, rows: np.ndarray) -> "LogStore":
        """The store of the given rows, in that order (vocabularies shared)."""
        rows = np.asarray(rows, dtype=np.intp)  # ``take`` would cast per column
        return LogStore(
            times=self.times.take(rows),
            latencies_ms=self.latencies_ms.take(rows),
            action_codes=self.action_codes.take(rows),
            user_codes=self.user_codes.take(rows),
            class_codes=self.class_codes.take(rows),
            success=self.success.take(rows),
            tz_offsets=self.tz_offsets.take(rows),
            action_vocab=self.action_vocab,
            user_vocab=self.user_vocab,
            class_vocab=self.class_vocab,
        )

    def __getstate__(self) -> dict:
        # The group index is a cache: a pickle (and so a checkpoint key
        # over a pickled payload) must not depend on whether it was built.
        state = self.__dict__.copy()
        state.pop("_groups", None)
        return state

    def _group_index(self) -> Optional[Tuple[np.ndarray, np.ndarray, int, int]]:
        """The rows grouped by ``(action code, class code)``, built once.

        ``(rows, bounds, n_actions, n_classes)``: ``rows`` holds every row
        index, stably sorted by the group key ``action × n_classes +
        class``, so group ``g``'s rows are ``rows[bounds[g]:bounds[g + 1]]``
        in row order, and an action's groups are adjacent. The index is
        kept on the store and left out of its pickle; it relies on a
        store's columns never changing after construction. ``None`` when a
        code lies outside its vocabulary (``from_coded_arrays`` accepts
        any codes), which sends :meth:`where` down the all-rows path.
        """
        groups = self._groups
        if groups is None:
            n_actions, n_classes = len(self.action_vocab), len(self.class_vocab)
            codes_fit = all(
                codes.size == 0 or (codes.min() >= 0 and codes.max() < size)
                for codes, size in ((self.action_codes, n_actions),
                                    (self.class_codes, n_classes)))
            groups = ()
            if codes_fit:
                n_groups = n_actions * n_classes
                key = self.action_codes * n_classes + self.class_codes
                bounds = np.zeros(n_groups + 1, dtype=np.int64)
                np.cumsum(np.bincount(key, minlength=n_groups), out=bounds[1:])
                # A small unsigned key makes the stable argsort a radix sort.
                key = key.astype(np.min_scalar_type(max(n_groups - 1, 0)))
                rows = np.argsort(key, kind="stable").astype(
                    np.int32 if len(self) < 2**31 else np.int64)
                groups = (rows, bounds, n_actions, n_classes)
            self._groups = groups
        return groups or None

    def _rows_of(self, action_code: int, class_code: Optional[int]) -> Optional[np.ndarray]:
        """The rows of one action (and class), ascending; ``None`` without
        a group index."""
        index = self._group_index()
        if index is None:
            return None
        rows, bounds, n_actions, n_classes = index
        if action_code >= n_actions or (class_code is not None and class_code >= n_classes):
            return rows[:0]  # a name the vocabulary gained after the build
        first = action_code * n_classes
        if class_code is not None:
            return rows[bounds[first + class_code]:bounds[first + class_code + 1]]
        # The action's class groups, merged back into row order.
        return np.sort(rows[bounds[first]:bounds[first + n_classes]], kind="stable")

    def where(
        self,
        action: Union[str, ActionType, None] = None,
        user_class: Union[str, UserClass, None] = None,
        period: Optional[DayPeriod] = None,
        month: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
        user_codes: Optional[np.ndarray] = None,
        tz_offset: Optional[float] = None,
        success_only: bool = True,
        days_per_month: int = 30,
    ) -> "LogStore":
        """Vectorized multi-criteria slice.

        All criteria are conjunctive; ``None`` means "no constraint". The
        paper's analyses only consider successful actions, hence
        ``success_only`` defaults to true.

        A named action takes its candidate rows from the store's group
        index (:meth:`_group_index`), so the other criteria are evaluated
        on the action's rows (the action and class's, when both are
        named) instead of the whole store. Without an action, or without
        an index, the candidates are all rows.
        """
        action_code = _code(self.action_vocab, action)
        class_code = _code(self.class_vocab, user_class)
        if action_code == -1 or class_code == -1:
            return self._take(np.empty(0, dtype=np.intp))

        rows = None if action_code is None else self._rows_of(action_code, class_code)
        conditions = []
        if rows is None:
            pick = slice(None)
            if action_code is not None:
                conditions.append(self.action_codes == action_code)
            if class_code is not None:
                conditions.append(self.class_codes == class_code)
        else:
            pick = rows = rows.astype(np.intp)
        if success_only:
            conditions.append(self.success[pick])
        if period is not None or month is not None or time_range is not None:
            times = self.times[pick]
        if period is not None:
            hours = timeutil.hour_of_day(times, self.tz_offsets[pick])
            lo, hi = _PERIOD_HOURS[period]
            if lo < hi:
                conditions.append((hours >= lo) & (hours < hi))
            else:  # wraps midnight
                conditions.append((hours >= lo) | (hours < hi))
        if month is not None:
            conditions.append(timeutil.month_index(times, days_per_month) == month)
        if time_range is not None:
            lo_t, hi_t = time_range
            conditions.append((times >= lo_t) & (times < hi_t))
        if user_codes is not None:
            conditions.append(np.isin(self.user_codes[pick],
                                      np.asarray(user_codes, dtype=np.int64)))
        if tz_offset is not None:
            conditions.append(np.isclose(self.tz_offsets[pick], tz_offset))

        if conditions:
            mask = functools.reduce(np.logical_and, conditions)
            rows = np.flatnonzero(mask) if rows is None else rows[mask]
        elif rows is None:
            rows = np.arange(len(self))
        return self._take(rows)

    def successful(self) -> "LogStore":
        """Only the rows where the action succeeded."""
        return self.filter(self.success)

    def sorted_by_time(self) -> "LogStore":
        """Rows ordered by timestamp (stable sort)."""
        return self._take(np.argsort(self.times, kind="mergesort"))

    def concat(self, other: "LogStore") -> "LogStore":
        """Concatenate two stores, re-encoding the other's vocabularies."""
        action_vocab = list(self.action_vocab)
        user_vocab = list(self.user_vocab)
        class_vocab = list(self.class_vocab)
        return LogStore(
            times=np.concatenate([self.times, other.times]),
            latencies_ms=np.concatenate([self.latencies_ms, other.latencies_ms]),
            action_codes=np.concatenate([
                self.action_codes,
                _remap(other.action_codes, other.action_vocab, action_vocab)]),
            user_codes=np.concatenate([
                self.user_codes,
                _remap(other.user_codes, other.user_vocab, user_vocab)]),
            class_codes=np.concatenate([
                self.class_codes,
                _remap(other.class_codes, other.class_vocab, class_vocab)]),
            success=np.concatenate([self.success, other.success]),
            tz_offsets=np.concatenate([self.tz_offsets, other.tz_offsets]),
            action_vocab=action_vocab,
            user_vocab=user_vocab,
            class_vocab=class_vocab,
        )

    # -- aggregation -------------------------------------------------------

    def per_user_median_latency(self) -> Tuple[np.ndarray, np.ndarray]:
        """(user_codes, median_latency_ms) for every distinct user.

        Vectorized: one sort by (user, latency) puts each user's latencies
        in a sorted run. The median is ``(a + b) / 2`` of the run's two
        middle elements, which is what ``np.median`` computes; for an odd
        run both are the middle element and ``(a + a) / 2 == a``. A run
        holding a NaN (sorted last) has a NaN median, as with ``np.median``.
        """
        if self.is_empty:
            raise EmptyDataError("no rows to compute per-user medians from")
        # Sort one integer key, user code × rows + latency rank: faster than
        # ``np.lexsort`` on the two columns, and the same order. Codes index
        # vocabularies no longer than the rows that built them, so the key
        # stays below rows² and fits int64 for any store that fits in memory.
        n = len(self)
        by_latency = np.argsort(self.latencies_ms)
        rank = np.empty(n, dtype=np.int64)
        rank[by_latency] = np.arange(n)
        key = self.user_codes * n + rank
        key.sort()
        codes = key // n
        lats = self.latencies_ms[by_latency[key % n]]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        counts = np.diff(np.append(starts, n))
        distinct = codes[starts]
        medians = (lats[starts + (counts - 1) // 2] + lats[starts + counts // 2]) / 2
        medians[np.isnan(lats[starts + counts - 1])] = np.nan
        return distinct, medians

    def per_user_action_count(self) -> Tuple[np.ndarray, np.ndarray]:
        """(user_codes, action_count) for every distinct user."""
        if self.is_empty:
            raise EmptyDataError("no rows to count per user")
        distinct, counts = np.unique(self.user_codes, return_counts=True)
        return distinct, counts

    # -- record round-trip ---------------------------------------------------

    def iter_columns(self) -> Iterator[Tuple[list, ...]]:
        """The rows as Python lists, :data:`~repro.telemetry.ingest.BATCH_ROWS`
        at a time, in :class:`ActionRecord` field order: ``(times, actions,
        latencies_ms, user_ids, user_classes, success, tz_offsets)``.

        Each slice is decoded with one ``tolist()`` per column and one
        vocabulary lookup per string, so the values are plain ``float``,
        ``str`` and ``bool`` objects.
        """
        from repro.telemetry.ingest import BATCH_ROWS  # ingest imports this module

        for lo in range(0, len(self), BATCH_ROWS):
            rows = slice(lo, lo + BATCH_ROWS)
            yield (
                self.times[rows].tolist(),
                list(map(self.action_vocab.__getitem__, self.action_codes[rows].tolist())),
                self.latencies_ms[rows].tolist(),
                list(map(self.user_vocab.__getitem__, self.user_codes[rows].tolist())),
                list(map(self.class_vocab.__getitem__, self.class_codes[rows].tolist())),
                self.success[rows].tolist(),
                self.tz_offsets[rows].tolist(),
            )

    def iter_records(self) -> Iterator[ActionRecord]:
        """Decode rows back into :class:`ActionRecord` objects, one
        :meth:`iter_columns` slice at a time."""
        for columns in self.iter_columns():
            yield from map(ActionRecord, *columns)

    def to_records(self) -> List[ActionRecord]:
        return list(self.iter_records())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "LogStore(empty)"
        lo, hi = self.time_range()
        return (
            f"LogStore(rows={len(self)}, users={self.n_users()}, "
            f"actions={self.action_names()}, span={hi - lo:.0f}s)"
        )


#: Local-hour boundaries for each six-hour period: (start, end), end exclusive.
_PERIOD_HOURS = {
    DayPeriod.MORNING: (8.0, 14.0),
    DayPeriod.AFTERNOON: (14.0, 20.0),
    DayPeriod.NIGHT: (20.0, 2.0),
    DayPeriod.LATE_NIGHT: (2.0, 8.0),
}
