"""Composable telemetry degradation operators for the sensitivity suite.

The recovery gates (:mod:`repro.analysis.recovery`) answer a binary
question — does the estimator absorb a latency-regime incident? Real
telemetry degrades *gradually* along different axes: collectors thin the
stream when load peaks (irregular sampling), slow requests time out of the
logging path more often than fast ones (informative, outcome-dependent
missingness — MNAR), and a handful of heavy users can dominate a pooled
per-event estimate. Each pathology here is a :class:`DegradationSpec`: a
pure, seeded, *level-parameterized* transform over an already-generated
:class:`~repro.telemetry.log_store.LogStore`.

Design rules, pinned by ``tests/workload/test_degradations.py``:

- **Level zero is the identity.** ``apply`` at ``level=0.0`` returns a
  store whose every column equals the input's — the clean twin of a
  zero-level cell is the cell itself.
- **One uniform draw per row, whatever the level.** Selections are made by
  comparing a fixed per-row draw against a level-dependent threshold, so
  the rows dropped at level 0.3 are a subset of those dropped at 0.6
  (monotone nesting) and tuning one knob never reshuffles another's
  selections.
- **Per-spec derived streams.** :class:`DegradationPlan` seeds each spec
  from ``(seed, position, spec name)`` like the chaos harness's
  ``FaultPlan`` (``tests/faults/specs.py``), so adding a spec to a plan
  never moves another spec's draws.

The chaos sweep applies these operators, not row-level copies of them,
to an ingested and quarantined store of syntactically corrupted
telemetry (``tests/faults/test_chaos_pipeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.stats.rng import RngFactory
from repro.telemetry.log_store import LogStore

__all__ = [
    "DegradationSpec",
    "DegradationPlan",
    "DiurnalThinning",
    "InformativeMissingness",
    "HeavyUserSkew",
    "DEGRADATION_BUILDERS",
]


def _check_level(level: float) -> None:
    if not 0.0 <= level <= 1.0:
        raise ConfigError(f"degradation level must be in [0, 1], got {level}")


@dataclass(frozen=True)
class DegradationSpec:
    """Base class: a named, seeded, level-parameterized store transform."""

    level: float = 0.0

    def __post_init__(self) -> None:
        _check_level(self.level)

    @property
    def name(self) -> str:
        return type(self).__name__

    def apply(self, logs: LogStore, rng: np.random.Generator) -> LogStore:
        """Return the degraded store; must not mutate the input."""
        raise NotImplementedError  # pragma: no cover - abstract


@dataclass(frozen=True)
class DiurnalThinning(DegradationSpec):
    """Irregular sampling: drop probability follows the diurnal curve.

    Collectors shed load exactly when traffic peaks, so the drop
    probability for a row at local hour ``h`` is
    ``level * 0.5 * (1 + cos(2π (h - peak_hour) / 24))`` — maximal at
    ``peak_hour``, zero at the diurnal trough. ``level`` is the peak drop
    probability; the *average* drop share is roughly ``level / 2``.
    """

    peak_hour: float = 13.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.peak_hour < 24.0:
            raise ConfigError(
                f"peak_hour must be in [0, 24), got {self.peak_hour}")

    def apply(self, logs: LogStore, rng: np.random.Generator) -> LogStore:
        u = rng.random(len(logs))
        if logs.is_empty:
            return logs.filter(np.zeros(0, dtype=bool))
        hours = (logs.local_times / 3600.0) % 24.0
        weight = 0.5 * (1.0 + np.cos(2.0 * np.pi * (hours - self.peak_hour) / 24.0))
        return logs.filter(u >= self.level * weight)


@dataclass(frozen=True)
class InformativeMissingness(DegradationSpec):
    """MNAR dropout: drop probability depends on the latency itself.

    A logistic ramp centered at ``knee_ms``: fast rows are almost always
    kept, rows deep in the tail are dropped with probability up to
    ``level``. This is the outcome-dependent missingness of the SensIAT
    setting — the exact mechanism that silently *flattens* an NLP curve,
    because the biased distribution loses its upper tail while the
    unbiased draw (sampled from the same thinned stream) loses it too.
    """

    knee_ms: float = 450.0
    width_ms: float = 150.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.knee_ms <= 0 or self.width_ms <= 0:
            raise ConfigError(
                f"knee_ms and width_ms must be positive, got "
                f"knee={self.knee_ms}, width={self.width_ms}")

    def apply(self, logs: LogStore, rng: np.random.Generator) -> LogStore:
        u = rng.random(len(logs))
        if logs.is_empty:
            return logs.filter(np.zeros(0, dtype=bool))
        z = (logs.latencies_ms - self.knee_ms) / self.width_ms
        # Numerically stable sigmoid without scipy: exp of -|z| only.
        ez = np.exp(-np.abs(z))
        sigmoid = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
        return logs.filter(u >= self.level * sigmoid)


@dataclass(frozen=True)
class HeavyUserSkew(DegradationSpec):
    """Heavy-user dominance: the top users' rows are over-represented.

    The per-event pooling pitfall from app-performance A/B lore: a pooled
    estimate weights users by their event count, so a duplicated (or
    over-collected) heavy-user cohort drags the curve toward *their*
    latency experience. The top ``heavy_share`` of users by action count
    have each row emitted ``1 + level * max_extra`` times in expectation
    (integer part deterministic, fractional part by the per-row draw).

    Unlike the thinning operators this one changes neither the latency
    regime nor the time profile much — which is what makes it the suite's
    *silent-bias* candidate: the bias fingerprint lives in the user
    aggregation, where no regime or missingness probe looks.
    """

    heavy_share: float = 0.1
    max_extra: float = 3.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.heavy_share <= 1.0:
            raise ConfigError(
                f"heavy_share must be in (0, 1], got {self.heavy_share}")
        if self.max_extra < 0:
            raise ConfigError(
                f"max_extra must be >= 0, got {self.max_extra}")

    def apply(self, logs: LogStore, rng: np.random.Generator) -> LogStore:
        u = rng.random(len(logs))
        if logs.is_empty:
            return logs.filter(np.zeros(0, dtype=bool))
        codes, counts = logs.per_user_action_count()
        n_heavy = max(1, int(round(self.heavy_share * codes.size)))
        # Stable sort: ties in count resolve by code order, deterministically.
        heavy = codes[np.argsort(-counts, kind="stable")[:n_heavy]]
        is_heavy = np.isin(logs.user_codes, heavy)
        extra = self.level * self.max_extra
        whole = int(np.floor(extra))
        frac = extra - whole
        repeats = np.ones(len(logs), dtype=np.int64)
        repeats[is_heavy] += whole
        repeats[is_heavy & (u < frac)] += 1
        idx = np.repeat(np.arange(len(logs)), repeats)
        return LogStore.from_coded_arrays(
            times=logs.times[idx],
            latencies_ms=logs.latencies_ms[idx],
            action_codes=logs.action_codes[idx],
            action_vocab=logs.action_vocab,
            user_codes=logs.user_codes[idx],
            user_vocab=logs.user_vocab,
            class_codes=logs.class_codes[idx],
            class_vocab=logs.class_vocab,
            success=logs.success[idx],
            tz_offsets=logs.tz_offsets[idx],
        )


@dataclass(frozen=True)
class DegradationPlan:
    """An ordered, seeded composition of degradation specs.

    Mirrors the chaos harness's ``FaultPlan``: ``apply`` derives one
    independent stream per spec from ``(seed, position, spec name)``, so
    the plan's output is a pure function of its inputs and adding a spec
    never moves another's draws. Stream names deliberately exclude the
    level, so sweeping one operator across levels reuses the same per-row
    draws (monotone nesting across the level ladder).
    """

    specs: Sequence[DegradationSpec] = ()
    seed: int = 0

    def apply(self, logs: LogStore) -> LogStore:
        factory = RngFactory(self.seed)
        out = logs
        for i, spec in enumerate(self.specs):
            rng = factory.stream(f"degrade/{i}/{spec.name}")
            out = spec.apply(out, rng)
        return out

    def describe(self) -> str:
        return " -> ".join(
            f"{spec.name}(level={spec.level:g})" for spec in self.specs
        ) or "(no degradation)"


#: Level-parameterized builders for every operator family, keyed by the
#: names the sensitivity fixtures (and their fault-spec mirrors) use.
DEGRADATION_BUILDERS: Dict[str, Callable[[float], DegradationSpec]] = {
    "diurnal-thinning": lambda level: DiurnalThinning(level=level),
    "mnar-latency": lambda level: InformativeMissingness(level=level),
    "user-skew": lambda level: HeavyUserSkew(level=level),
}
