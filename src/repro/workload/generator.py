"""The telemetry generator: turns models into ``(T, A, L, M)`` logs.

This is the reproduction's stand-in for two months of OWA traffic. It
simulates the *causal* data-generating process that AutoSens assumes:

1. A latency level path ``level(t)`` with diurnal shape and OU congestion
   (:mod:`repro.workload.latency_model`).
2. A candidate-action point process per user whose rate follows the
   time-based activity curve α(t) (:mod:`repro.workload.activity_model`) —
   candidates are moments a user *would* act if latency were ideal.
3. Each candidate is **thinned** (accepted/rejected) with probability
   proportional to the ground-truth latency preference evaluated at the
   latency the action would experience. Accepted candidates become log rows.

Thinning a non-homogeneous Poisson process is exact: the accepted stream is
itself Poisson with rate ``α(t) · pref(L(t))``, which is precisely the
"users do fewer actions when latency is high" behaviour the paper infers
from. The generator therefore *knows* the true preference curve, and the
evaluation asks whether AutoSens recovers it.

Two response modes (Ablation A; see paper Section 3.5):

- ``"realized"`` — preference acts on the realized per-request latency
  (latency in the user's critical path mechanically throttles actions);
- ``"level"`` — preference acts on the predictable level only (users react
  to how fast the service *feels*, not to per-request noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.parallel import resolve_executor
from repro.parallel.seeding import task_seeds
from repro.stats.rng import RngFactory, SeedLike
from repro.stats.sampling import InverseCdf
from repro.telemetry.log_store import LogStore
from repro.workload.actions import ActionMix, owa_action_mix
from repro.workload.activity_model import ActivityModel
from repro.workload.incidents import IncidentPlan, IncidentWindow
from repro.workload.latency_model import LatencyGrid, LatencyModel, LatencyModelConfig
from repro.workload.population import Population, PopulationConfig, synthesize_population
from repro.workload.preference import GroundTruth
from repro.workload.queue_model import QueueModel, QueueModelConfig

SECONDS_PER_DAY = 86400.0

VALID_RESPONSE_MODES = ("realized", "level")

VALID_LATENCY_BACKENDS = ("ou", "queue")


@dataclass(frozen=True)
class GeneratorConfig:
    """Top-level knobs of the telemetry generator."""

    duration_days: float = 7.0
    start: float = 0.0
    candidates_per_user_day: float = 60.0
    response_mode: str = "realized"
    jitter_sigma: float = 0.08
    error_rate: float = 0.01
    chunk_size: int = 1_000_000
    population: PopulationConfig = field(default_factory=PopulationConfig)
    latency: LatencyModelConfig = field(default_factory=LatencyModelConfig)
    #: Which latency level process drives the grid: the postulated
    #: diurnal x OU path (``"ou"``) or the M/G/k queue (``"queue"``).
    latency_backend: str = "ou"
    queue: QueueModelConfig = field(default_factory=QueueModelConfig)
    #: Incident scenarios perturbing the queue backend (queue-only).
    incident_plan: IncidentPlan = field(default_factory=IncidentPlan)

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ConfigError(f"duration_days must be positive, got {self.duration_days}")
        if self.candidates_per_user_day <= 0:
            raise ConfigError(
                f"candidates_per_user_day must be positive, got {self.candidates_per_user_day}"
            )
        if self.response_mode not in VALID_RESPONSE_MODES:
            raise ConfigError(
                f"response_mode must be one of {VALID_RESPONSE_MODES}, got {self.response_mode!r}"
            )
        if not 0.0 <= self.error_rate < 1.0:
            raise ConfigError(f"error_rate must be in [0, 1), got {self.error_rate}")
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.latency_backend not in VALID_LATENCY_BACKENDS:
            raise ConfigError(
                f"latency_backend must be one of {VALID_LATENCY_BACKENDS}, "
                f"got {self.latency_backend!r}"
            )
        if self.incident_plan.specs and self.latency_backend != "queue":
            raise ConfigError(
                "incident_plan requires latency_backend='queue' — the OU "
                "backend has its own IncidentConfig overlay"
            )


@dataclass
class TelemetryResult:
    """Logs plus everything needed to evaluate recovery against truth."""

    logs: LogStore
    grid: LatencyGrid
    population: Population
    ground_truth: GroundTruth
    action_mix: ActionMix
    activity_model: ActivityModel
    config: GeneratorConfig
    n_candidates: int
    n_accepted: int
    #: Ground-truth incident annotations (queue backend only; else empty).
    incident_windows: List[IncidentWindow] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        if self.n_candidates == 0:
            return 0.0
        return self.n_accepted / self.n_candidates


@dataclass
class _ChunkRngs:
    """The six per-purpose generators one chunk simulation consumes."""

    times: np.random.Generator
    users: np.random.Generator
    actions: np.random.Generator
    jitter: np.random.Generator
    accept: np.random.Generator
    errors: np.random.Generator

    @classmethod
    def from_factory(cls, factory: RngFactory) -> "_ChunkRngs":
        # Child names and creation order match the original inline loop, so
        # the serial path reproduces historical outputs byte-for-byte.
        return cls(
            times=factory.child("candidate-times"),
            users=factory.child("candidate-users"),
            actions=factory.child("candidate-actions"),
            jitter=factory.child("request-jitter"),
            accept=factory.child("acceptance"),
            errors=factory.child("errors"),
        )


def _time_order(times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``times`` (which hold no NaN), and the
    sorted times.

    The default argsort is several times faster than mergesort but not
    stable. When no two times are equal only one permutation sorts them,
    so it is the stable one; on a tie, mergesort decides.
    """
    order = np.argsort(times)
    ordered = times[order]
    if np.any(ordered[1:] == ordered[:-1]):
        order = np.argsort(times, kind="mergesort")
        ordered = times[order]
    return order, ordered


def _pop_column(columns: List[Optional[tuple]], j: int) -> np.ndarray:
    """Column ``j`` of the chunks as one array, releasing its chunk parts."""
    parts, columns[j] = columns[j], None
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _chunk_task(payload: tuple) -> Tuple[int, Optional[tuple]]:
    """Top-level (picklable) task: simulate one candidate chunk.

    Each chunk derives its generators from its own pre-spawned seed, making
    the result a pure function of the payload — identical on any backend.
    """
    (generator, m, duration_s, population, grid, user_draw,
     alpha_max, pref_bound, seed) = payload
    rngs = _ChunkRngs.from_factory(RngFactory(seed))
    return generator._simulate_chunk(
        m, duration_s, population, grid, user_draw, alpha_max, pref_bound, rngs
    )


class TelemetryGenerator:
    """Generates synthetic telemetry with known ground truth."""

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        ground_truth: Optional[GroundTruth] = None,
        action_mix: Optional[ActionMix] = None,
        activity_model: Optional[ActivityModel] = None,
    ) -> None:
        self.config = config or GeneratorConfig()
        self.ground_truth = ground_truth or GroundTruth.paper_default()
        self.action_mix = action_mix or owa_action_mix()
        self.activity_model = activity_model or ActivityModel()
        self._incident_windows: List[IncidentWindow] = []

    # -- internal helpers --------------------------------------------------

    def _preference_bound(self, population: Population) -> float:
        """Upper bound on the un-normalized preference over all samples."""
        max_exponent = float(np.max(population.conditioning_exponents))
        if self.ground_truth.period_exponents:
            max_exponent *= max(self.ground_truth.period_exponents.values())
        max_curve = max(curve.max_value for curve in self.ground_truth.curves.values())
        # pref = curve ** e; for curve > 1 the bound grows with the exponent.
        bound = max(max_curve, 1.0) ** max(max_exponent, 1.0)
        return float(bound)

    def _class_alpha_max(self, population: Population) -> Dict[str, float]:
        return {
            name: self.activity_model.max_factor(name)
            for name in population.class_vocab
        }

    def _acceptance(
        self,
        t: np.ndarray,
        tz: np.ndarray,
        class_codes: np.ndarray,
        action_idx: np.ndarray,
        user_idx: np.ndarray,
        response_latency: np.ndarray,
        population: Population,
        alpha_max: float,
        pref_bound: float,
    ) -> np.ndarray:
        """Thinning probability per candidate, ``(α / α_max) · (pref / bound)``.

        One stable counting sort groups the candidates by ``(class,
        action)`` code, class-major, so each class and each ``action x
        class`` group is a contiguous slice. Every activity curve and every
        preference curve runs once on its slice, and the product is
        scattered back to candidate order once. Every operation is
        elementwise, so each value is bitwise what a per-group mask gives.
        """
        n_actions = len(self.action_mix.names)
        n_groups = len(population.class_vocab) * n_actions
        codes = class_codes * n_actions + action_idx
        order = np.argsort(codes.astype(np.min_scalar_type(n_groups - 1)), kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(codes, minlength=n_groups))))

        hours = (((t + 3600.0 * tz) % SECONDS_PER_DAY) / 3600.0)[order]
        latency = response_latency[order]
        exponent = population.conditioning_exponents[user_idx[order]]
        if self.ground_truth.period_exponents:
            exponent = exponent * self.ground_truth.period_exponent(hours)

        alpha = np.empty(order.size, dtype=float)
        pref = np.empty(order.size, dtype=float)
        for c_code, class_name in enumerate(population.class_vocab):
            first = c_code * n_actions
            rows = slice(bounds[first], bounds[first + n_actions])
            if rows.start == rows.stop:
                continue
            alpha[rows] = self.activity_model.curve_for(class_name)(hours[rows])
            weekend = self.activity_model.weekend_factor.get(class_name)
            if weekend is not None:
                members = order[rows]
                local = t[members] + 3600.0 * tz[members]
                day = np.floor(local / SECONDS_PER_DAY).astype(np.int64)
                is_weekend = (day % 7) >= 5
                alpha[rows] = np.where(is_weekend, alpha[rows] * weekend, alpha[rows])
            for a_idx, action_name in enumerate(self.action_mix.names):
                group = slice(bounds[first + a_idx], bounds[first + a_idx + 1])
                if group.start == group.stop:
                    continue
                curve = self.ground_truth.curve_for(action_name, class_name)
                pref[group] = curve(latency[group], exponent=1.0) ** exponent[group]

        accept_prob = np.empty(order.size, dtype=float)
        accept_prob[order] = (alpha / alpha_max) * (pref / pref_bound)
        return accept_prob

    def _make_grid(self, duration_s: float, factory: RngFactory) -> LatencyGrid:
        """Sample the latency level path; subclasses may replay a trace.

        Dispatches on ``config.latency_backend``. The queue backend builds
        the (seeded) incident profile first and records its ground-truth
        windows for :attr:`TelemetryResult.incident_windows`.
        """
        cfg = self.config
        if cfg.latency_backend == "queue":
            profile = None
            if cfg.incident_plan.specs:
                n_cells = int(np.ceil(duration_s / cfg.queue.grid_dt_s))
                profile = cfg.incident_plan.build(
                    cfg.start, cfg.queue.grid_dt_s, n_cells
                )
                self._incident_windows = list(profile.windows)
            return QueueModel(cfg.queue).sample_grid(
                duration_s, rng=factory.child("latency-grid"),
                start=cfg.start, profile=profile,
            )
        latency_model = LatencyModel(cfg.latency)
        return latency_model.sample_grid(
            duration_s, rng=factory.child("latency-grid"), start=cfg.start,
            incident_rng=factory.child("latency-incidents"),
        )

    def _simulate_chunk(
        self,
        m: int,
        duration_s: float,
        population: Population,
        grid: LatencyGrid,
        user_draw: InverseCdf,
        alpha_max: float,
        pref_bound: float,
        rngs: "_ChunkRngs",
    ) -> Tuple[int, Optional[tuple]]:
        """Simulate ``m`` candidates; return (accepted count, row arrays).

        Consumes the per-purpose generators in the exact order of the
        original inline loop, so running chunks sequentially through one
        shared :class:`_ChunkRngs` reproduces the legacy byte stream.
        """
        cfg = self.config
        tz_by_user = population.tz_offsets

        t = rngs.times.uniform(cfg.start, cfg.start + duration_s, size=m)
        user_idx = user_draw.draw(rngs.users, m)
        action_idx = self.action_mix.sample(m, rng=rngs.actions)

        level = grid.level_at(t)
        action_mult = self.action_mix.latency_multipliers[action_idx]
        user_mult = population.latency_multipliers[user_idx]
        predictable = level * action_mult * user_mult
        jitter = np.exp(
            rngs.jitter.normal(-0.5 * cfg.jitter_sigma**2, cfg.jitter_sigma, size=m)
        )
        realized = predictable * jitter

        tz = tz_by_user[user_idx]
        class_codes = population.classes[user_idx]

        response_latency = realized if cfg.response_mode == "realized" else predictable
        accept_prob = self._acceptance(
            t, tz, class_codes, action_idx, user_idx,
            response_latency, population, alpha_max, pref_bound,
        )
        accepted = rngs.accept.random(m) < accept_prob
        if not np.any(accepted):
            return 0, None

        idx = np.flatnonzero(accepted)
        success = rngs.errors.random(idx.size) >= cfg.error_rate
        return idx.size, (
            t[idx], realized[idx], action_idx[idx], user_idx[idx],
            class_codes[idx], success, tz[idx],
        )

    # -- main entry point ----------------------------------------------------

    def generate(self, rng: SeedLike = None, executor=None) -> TelemetryResult:
        """Run the simulation and return logs plus ground truth.

        With ``executor=None`` (the default) chunks are simulated serially
        through one shared set of generators — byte-identical to the
        historical output for a given seed. Passing an executor spec (see
        :mod:`repro.parallel`) fans chunks out with independent per-chunk
        streams; the result is deterministic for a given seed and identical
        across backends, but differs from the serial-default stream.
        """
        cfg = self.config
        if isinstance(rng, RngFactory):
            factory = rng
        elif isinstance(rng, np.random.Generator):
            factory = RngFactory(int(rng.integers(0, 2**63 - 1)))
        else:
            factory = RngFactory(rng)
        population = synthesize_population(cfg.population, rng=factory.child("population"))
        duration_s = cfg.duration_days * SECONDS_PER_DAY

        self._incident_windows = []
        grid = self._make_grid(duration_s, factory)

        # Total candidate intensity, bounded above for thinning.
        weights = population.activity_weights
        mean_weight = float(weights.mean())
        base_rate_per_weight = cfg.candidates_per_user_day / (
            SECONDS_PER_DAY * mean_weight
        )
        alpha_max_by_class = self._class_alpha_max(population)
        alpha_max = max(alpha_max_by_class.values())
        pref_bound = self._preference_bound(population)
        total_max_rate = base_rate_per_weight * float(weights.sum()) * alpha_max * pref_bound

        gen_counts = factory.child("candidate-count")
        n_candidates = int(gen_counts.poisson(total_max_rate * duration_s))

        user_draw = InverseCdf(population.sampling_probabilities())

        sizes = []
        remaining = n_candidates
        while remaining > 0:
            m = min(remaining, cfg.chunk_size)
            remaining -= m
            sizes.append(m)

        if executor is None:
            rngs = _ChunkRngs.from_factory(factory)
            results = [
                self._simulate_chunk(
                    m, duration_s, population, grid, user_draw,
                    alpha_max, pref_bound, rngs,
                )
                for m in sizes
            ]
        else:
            seeds = task_seeds(factory, "generator-chunk", len(sizes))
            payloads = [
                (self, m, duration_s, population, grid, user_draw,
                 alpha_max, pref_bound, seed)
                for m, seed in zip(sizes, seeds)
            ]
            results = resolve_executor(executor).map_ordered(_chunk_task, payloads)

        n_accepted = sum(r[0] for r in results)
        # One tuple of chunk parts per column; dropping ``results`` leaves
        # these tuples the only owners of the chunks' arrays.
        columns = list(zip(*(r[1] for r in results if r[1] is not None)))
        del results

        if columns:
            order, times = _time_order(_pop_column(columns, 0))
            # One column at a time: each concatenated copy is freed before
            # the next column is built.
            latencies, actions, users, classes, success, tz = (
                _pop_column(columns, j).take(order) for j in range(1, 7))
            logs = LogStore.from_coded_arrays(
                times=times,
                latencies_ms=latencies,
                action_codes=actions,
                action_vocab=list(self.action_mix.names),
                user_codes=users,
                user_vocab=list(population.user_ids),
                class_codes=classes,
                class_vocab=list(population.class_vocab),
                success=success,
                tz_offsets=tz,
            )
        else:
            logs = LogStore.from_coded_arrays(
                times=np.array([], dtype=float),
                latencies_ms=np.array([], dtype=float),
                action_codes=np.array([], dtype=np.int64),
                action_vocab=list(self.action_mix.names),
                user_codes=np.array([], dtype=np.int64),
                user_vocab=list(population.user_ids),
                class_codes=np.array([], dtype=np.int64),
                class_vocab=list(population.class_vocab),
            )

        return TelemetryResult(
            logs=logs,
            grid=grid,
            population=population,
            ground_truth=self.ground_truth,
            action_mix=self.action_mix,
            activity_model=self.activity_model,
            config=cfg,
            n_candidates=n_candidates,
            n_accepted=n_accepted,
            incident_windows=list(self._incident_windows),
        )
