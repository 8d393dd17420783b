"""The benchmark's workloads: inputs built from a seed, one timed pass, checks.

Every workload is a single-process, serial, closed loop: the benchmark
issues its next public call only after the previous one returned. Each
public call goes through a :class:`~clock.SpeedClock`, which times it; the
checks run between calls and are not timed. The program sees only the
generated telemetry; the seed stays here. Each pass builds a fresh engine,
so no pass reuses another's slice cache.

See ``README.md`` for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro.telemetry.jsonl as jsonl
from clock import INTERPRETER, MIXED, SpeedClock
from repro.core.pipeline import AutoSens, AutoSensConfig
from repro.core.result import PreferenceResult
from repro.errors import ReproError
from repro.telemetry.log_store import LogStore
from repro.types import ActionType, UserClass
from repro.workload.preference import paper_curve
from repro.workload.scenarios import owa_scenario

#: Tier-1 ground-truth tolerance (tests/integration/test_recovery.py).
TRUTH_TOL = 0.08

#: Latencies (ms) at which ``analyze-large`` checks every curve against the
#: truth. Only the 500 ms anchor is far enough from the tolerance, at the
#: ``xl`` scale, for a correct program to pass it on every seed; README.md
#: gives the measured spread of the error at each anchor and scale.
TRUTH_ANCHORS = (500.0,)

#: Engine Monte Carlo seed. Fixed so that seeded runs are deterministic and
#: every pass can be compared with the first one bit for bit; the workload
#: seed only changes the generated telemetry.
ENGINE_SEED = 0

ACTION_CLASSES: List[Tuple[str, str]] = [
    (action.value, user_class.value)
    for action in ActionType
    for user_class in UserClass
]


def engine() -> AutoSens:
    """A default serial engine with the fixed Monte Carlo seed."""
    return AutoSens(AutoSensConfig(seed=ENGINE_SEED))


def within_truth(curve: PreferenceResult, action: str, user_class: str,
                 anchors: Tuple[float, ...]) -> bool:
    """Is the curve within :data:`TRUTH_TOL` of the paper curve at ``anchors``?"""
    at = np.asarray(anchors, dtype=float)
    expected = paper_curve(action, user_class).normalized(at)
    measured = np.asarray(curve.at(at), dtype=float)
    return bool(np.all(np.abs(measured - expected) <= TRUTH_TOL))


def same_curve(curve: PreferenceResult, reference: np.ndarray) -> bool:
    return bool(np.array_equal(curve.nlp, reference, equal_nan=True))


def well_formed(curve: PreferenceResult) -> bool:
    """Is the curve finite and positive at 500 ms?"""
    value = curve.at(500.0)
    return bool(np.isfinite(value) and value > 0)


@dataclass
class PassResult:
    """What one timed pass did and how much of it failed its checks."""

    actions: int = 0
    rows_read: int = 0
    rows_skipped: int = 0
    attempted: int = 0
    failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def add(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        self.failed += 0 if ok else count

    def add_cache(self, eng: AutoSens) -> None:
        stats = eng.cache_stats()
        self.cache_hits += stats["hits"]
        self.cache_misses += stats["misses"]


class Workload:
    """Base: ``setup`` may run several times; ``run_pass`` is timed."""

    name = ""
    #: (duration_days, n_users, candidates_per_user_day) of the input.
    scale: Tuple[float, int, float] = (0.0, 0, 0.0)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.acceptance = 0.0
        #: nlp of each curve from the first checked computation, by key.
        self.reference: Dict[Tuple, np.ndarray] = {}

    def generate(self, clock: SpeedClock, seed: int) -> LogStore:
        days, users, cpd = self.scale
        scenario = owa_scenario(seed=seed, duration_days=days, n_users=users,
                                candidates_per_user_day=cpd)
        result = clock.call(MIXED, scenario.generate)
        self.acceptance = result.n_accepted / result.n_candidates
        return result.logs

    def warm_up(self, clock: SpeedClock, logs: LogStore) -> None:
        clock.call(MIXED, engine().preference_curve, logs, action=ACTION_CLASSES[0][0])

    def setup(self, clock: SpeedClock) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after the last set-up (references for the checks)."""

    def run_pass(self, clock: SpeedClock) -> PassResult:
        raise NotImplementedError

    def deterministic(self, key: Tuple, curve: PreferenceResult) -> bool:
        """The first curve under ``key`` becomes the reference for later ones."""
        if key not in self.reference:
            self.reference[key] = curve.nlp.copy()
            return True
        return same_curve(curve, self.reference[key])

    def action_class_curves(self, clock: SpeedClock, logs: LogStore, result: PassResult,
                            check: Callable[[Tuple, PreferenceResult], bool]) -> None:
        eng = engine()
        for action, user_class in ACTION_CLASSES:
            try:
                curve = clock.call(MIXED, eng.preference_curve, logs, action=action,
                                   user_class=user_class)
            except ReproError:
                result.add(False)
                continue
            result.add(check((action, user_class), curve))
        result.add_cache(eng)


class IngestDisk(Workload):
    """JSONL ingest of the ``full`` perf scale, then 8 action x class curves.

    The log is written as ``SHARDS`` files of consecutive rows, as a rotated
    server log would be, so that each ``read_jsonl`` call is short enough
    for the clock to track the host's speed.
    """

    name = "ingest-disk"
    scale = (10.0, 500, 150.0)
    SHARDS = 10

    def setup(self, clock: SpeedClock) -> None:
        self.memory_logs = None  # free the previous set-up's store first
        logs = self.generate(clock, self.seed)
        per_shard = -(-len(logs) // self.SHARDS)
        records = logs.iter_records()
        self.paths = [self.workdir / f"ingest-{i:02d}.jsonl" for i in range(self.SHARDS)]
        self.rows_written = sum(
            clock.call(INTERPRETER, jsonl.write_jsonl, islice(records, per_shard), path)
            for path in self.paths
        )
        self.warm_up(clock, logs)
        self.memory_logs = logs

    def prepare(self) -> None:
        """Reference curves from the in-memory store the files were written from."""
        eng = engine()
        for action, user_class in ACTION_CLASSES:
            curve = eng.preference_curve(self.memory_logs, action=action,
                                         user_class=user_class)
            self.reference[(action, user_class)] = curve.nlp.copy()
        self.memory_logs = None

    def check_curve(self, key: Tuple, curve: PreferenceResult) -> bool:
        # Reading the files back must give exactly the in-memory curves.
        return same_curve(curve, self.reference[key]) and well_formed(curve)

    def run_pass(self, clock: SpeedClock) -> PassResult:
        result = PassResult()
        try:
            shards = [clock.call(INTERPRETER, jsonl.read_jsonl, path) for path in self.paths]
        except ReproError:
            result.add(False, 1 + len(ACTION_CLASSES))
            return result
        store = clock.call(INTERPRETER, reduce, LogStore.concat, shards)
        result.actions = result.rows_read = len(store)
        result.rows_skipped = sum(shard.n_skipped_rows for shard in shards)
        result.add(result.rows_read == self.rows_written and result.rows_skipped == 0)
        self.action_class_curves(clock, store, result, self.check_curve)
        return result


class AnalyzeLarge(Workload):
    """8 action x class curves over the in-memory ``xl`` perf scale."""

    name = "analyze-large"
    scale = (14.0, 1800, 200.0)

    def setup(self, clock: SpeedClock) -> None:
        self.logs = None  # free the previous set-up's store first
        self.logs = self.generate(clock, self.seed)
        self.warm_up(clock, self.logs)

    def check_curve(self, key: Tuple, curve: PreferenceResult) -> bool:
        return self.deterministic(key, curve) and within_truth(
            curve, *key, anchors=TRUTH_ANCHORS)

    def run_pass(self, clock: SpeedClock) -> PassResult:
        result = PassResult(actions=len(self.logs))
        self.action_class_curves(clock, self.logs, result, self.check_curve)
        return result


class SlicesSmall(Workload):
    """Every ``curves_by_*`` sweep over small stores: 44 curves per store.

    Smoothing cost is one least-squares fit per bin near the valid range,
    so it follows how far into the tail each curve is defined, which the
    generated latency process sets. Over 18 seeds the fits per store had an
    interquartile range of 14 % of the median at 7 days x 300 users, and
    4 % at 28 days x 75 users with the same number of actions. A pass also
    covers ``STORES`` stores from seeds derived from the workload seed.
    """

    name = "slices-small"
    scale = (28.0, 75, 60.0)
    STORES = 3

    #: (sweep method, curves it returns) run once per action.
    PER_ACTION = (("curves_by_user_class", 2), ("curves_by_period", 4),
                  ("curves_by_quartile", 4))

    def setup(self, clock: SpeedClock) -> None:
        self.stores = []
        self.stores = [self.generate(clock, self.seed * self.STORES + i)
                       for i in range(self.STORES)]
        self.warm_up(clock, self.stores[0])

    def sweep(self, clock: SpeedClock, result: PassResult, key: Tuple,
              expected: int, method: Callable[..., Dict], logs: LogStore,
              **kwargs) -> None:
        try:
            curves = clock.call(MIXED, method, logs, **kwargs)
        except ReproError:
            result.add(False, expected)
            return
        result.add(False, expected - len(curves))
        for name, curve in curves.items():
            result.add(well_formed(curve) and self.deterministic(key + (name,), curve))

    def run_pass(self, clock: SpeedClock) -> PassResult:
        result = PassResult()
        actions = [action.value for action in ActionType]
        for i, logs in enumerate(self.stores):
            result.actions += len(logs)
            eng = engine()
            self.sweep(clock, result, (i, "action"), len(actions),
                       eng.curves_by_action, logs)
            for action in actions:
                for method, expected in self.PER_ACTION:
                    self.sweep(clock, result, (i, method, action), expected,
                               getattr(eng, method), logs, action=action)
            result.add_cache(eng)
        return result


WORKLOADS = {w.name: w for w in (IngestDisk, AnalyzeLarge, SlicesSmall)}
