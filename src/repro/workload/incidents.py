"""Composable, individually-seeded incident scenarios for the queue backend.

Real services do not degrade through a single multiplicative overlay: load
spikes raise *arrival rate* (and latency follows through queueing), a slow
downstream dependency fattens the *service-time* distribution, a regional
failover shifts part of the fleet onto slow paths, autoscaling changes the
*server count*, and retry storms couple load to latency in a feedback-like
way. Each :class:`IncidentSpec` here perturbs exactly the physical knob it
corresponds to, on a schedule, and emits an :class:`IncidentWindow`
annotation recording the ground-truth affected interval — so the recovery
harness (:mod:`repro.analysis.recovery`) can ask "did the estimator survive
*this* regime, and if not, did it say so?".

Specs compose through :class:`IncidentPlan`, which derives one independent
random stream per spec from ``(seed, position, spec name)`` — the same
pure-stream scheme as the chaos harness's ``FaultPlan``
(``tests/faults/specs.py``) — so adding, removing or reordering incidents
never perturbs the draws of the others.

The chaos sweep drives these specs directly: it generates queue-backed
telemetry under each incident, corrupts it with a syntactic
``FaultPlan``, and ingests it
(``tests/faults/test_chaos_pipeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.stats.rng import RngFactory

__all__ = [
    "IncidentWindow",
    "IncidentProfile",
    "IncidentSpec",
    "LoadSpike",
    "SlowDependency",
    "RegionalDegradation",
    "AutoscaleStep",
    "RetryStorm",
    "IncidentPlan",
    "DEFAULT_INCIDENT_SPECS",
]


@dataclass(frozen=True)
class IncidentWindow:
    """Ground-truth annotation: one incident's affected interval."""

    scenario: str
    start_s: float
    end_s: float
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigError(
                f"incident window must have end > start, got "
                f"[{self.start_s}, {self.end_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def contains(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        return (t >= self.start_s) & (t < self.end_s)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "params": dict(self.params),
        }


class IncidentProfile:
    """Per-grid-cell perturbations the queue simulator consumes.

    All arrays share the simulation grid: cell ``i`` covers
    ``[start + i*dt, start + (i+1)*dt)``. Multiplier arrays start neutral;
    specs compose multiplicatively (or additively for ``server_delta`` and
    ``slow_extra_ms``), so overlapping incidents stack the way overlapping
    real incidents do.
    """

    def __init__(self, start: float, dt: float, n_cells: int) -> None:
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        if n_cells < 1:
            raise ConfigError(f"n_cells must be >= 1, got {n_cells}")
        self.start = float(start)
        self.dt = float(dt)
        self.n_cells = int(n_cells)
        #: Multiplier on the Poisson arrival rate.
        self.arrival_mult = np.ones(n_cells, dtype=float)
        #: Multiplier on every service-time draw.
        self.service_mult = np.ones(n_cells, dtype=float)
        #: Probability a request takes the slow-dependency path.
        self.slow_frac = np.zeros(n_cells, dtype=float)
        #: Extra service time (ms) added on the slow path.
        self.slow_extra_ms = np.zeros(n_cells, dtype=float)
        #: Signed change to the server count (autoscaling steps).
        self.server_delta = np.zeros(n_cells, dtype=np.int64)
        #: Ground-truth annotations, one per applied spec.
        self.windows: List[IncidentWindow] = []

    @property
    def duration_s(self) -> float:
        return self.dt * self.n_cells

    @property
    def times(self) -> np.ndarray:
        """Left edge of each grid cell."""
        return self.start + self.dt * np.arange(self.n_cells)

    def is_neutral(self) -> bool:
        return (
            np.all(self.arrival_mult == 1.0)
            and np.all(self.service_mult == 1.0)
            and np.all(self.slow_frac == 0.0)
            and np.all(self.server_delta == 0)
        )

    def envelope(self, start_s: float, duration_s: float, ramp_s: float) -> np.ndarray:
        """A [0, 1] per-cell envelope: half-cosine ramp in/out, 1 mid-window.

        ``ramp_s`` is clipped to half the window so the envelope always
        reaches 1 somewhere; a zero ramp gives a hard step.
        """
        t = self.times
        end_s = start_s + duration_s
        ramp = min(max(ramp_s, 0.0), duration_s / 2.0)
        env = np.zeros(self.n_cells, dtype=float)
        inside = (t >= start_s) & (t < end_s)
        if not np.any(inside):
            return env
        env[inside] = 1.0
        if ramp > 0.0:
            rising = inside & (t < start_s + ramp)
            env[rising] = 0.5 - 0.5 * np.cos(np.pi * (t[rising] - start_s) / ramp)
            falling = inside & (t >= end_s - ramp)
            env[falling] = 0.5 - 0.5 * np.cos(np.pi * (end_s - t[falling]) / ramp)
        return env


@dataclass(frozen=True)
class IncidentSpec:
    """Base class: a named, seeded perturbation of the queue's inputs.

    ``start_frac`` positions the incident as a fraction of the simulated
    span; ``start_jitter_s`` (drawn from the spec's own stream) models
    incidents not arriving on a schedule. ``apply`` mutates the profile in
    place and returns the ground-truth window annotation.
    """

    start_frac: float = 0.4
    duration_s: float = 3600.0
    ramp_s: float = 300.0
    start_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_frac < 1.0:
            raise ConfigError(f"start_frac must be in [0, 1), got {self.start_frac}")
        if self.duration_s <= 0:
            raise ConfigError(f"duration_s must be positive, got {self.duration_s}")
        if self.ramp_s < 0:
            raise ConfigError(f"ramp_s must be >= 0, got {self.ramp_s}")
        if self.start_jitter_s < 0:
            raise ConfigError(f"start_jitter_s must be >= 0, got {self.start_jitter_s}")

    @property
    def name(self) -> str:
        return type(self).__name__

    def window_bounds(
        self, profile: IncidentProfile, rng: np.random.Generator
    ) -> Tuple[float, float]:
        """Resolve the incident's [start, end) inside the profile's span.

        Always consumes exactly one uniform draw so stream consumption does
        not depend on the jitter setting.
        """
        jitter = float(rng.uniform(-1.0, 1.0)) * self.start_jitter_s
        start = profile.start + self.start_frac * profile.duration_s + jitter
        start = min(max(start, profile.start), profile.start + profile.duration_s - profile.dt)
        end = min(start + self.duration_s, profile.start + profile.duration_s)
        return start, end

    def apply(
        self, profile: IncidentProfile, rng: np.random.Generator
    ) -> IncidentWindow:
        raise NotImplementedError  # pragma: no cover - abstract


@dataclass(frozen=True)
class LoadSpike(IncidentSpec):
    """A surge in offered load: arrivals ramp to ``peak_mult``x.

    Latency rises *through the queue*, not by fiat — near saturation the
    spike inflates waits far more than ``peak_mult`` suggests.
    """

    peak_mult: float = 2.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.peak_mult <= 0:
            raise ConfigError(f"peak_mult must be positive, got {self.peak_mult}")

    def apply(self, profile: IncidentProfile, rng: np.random.Generator) -> IncidentWindow:
        start, end = self.window_bounds(profile, rng)
        env = profile.envelope(start, end - start, self.ramp_s)
        profile.arrival_mult *= 1.0 + (self.peak_mult - 1.0) * env
        return IncidentWindow(
            scenario="load-spike", start_s=start, end_s=end,
            params={"peak_mult": self.peak_mult},
        )


@dataclass(frozen=True)
class SlowDependency(IncidentSpec):
    """A downstream dependency degrades: ``slow_share`` of requests pick up
    ``extra_ms`` of service time — a bimodal service mixture, the classic
    "some shards are slow" signature."""

    slow_share: float = 0.35
    extra_ms: float = 700.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.slow_share <= 1.0:
            raise ConfigError(f"slow_share must be in (0, 1], got {self.slow_share}")
        if self.extra_ms <= 0:
            raise ConfigError(f"extra_ms must be positive, got {self.extra_ms}")

    def apply(self, profile: IncidentProfile, rng: np.random.Generator) -> IncidentWindow:
        start, end = self.window_bounds(profile, rng)
        env = profile.envelope(start, end - start, self.ramp_s)
        profile.slow_frac = np.clip(profile.slow_frac + self.slow_share * env, 0.0, 1.0)
        profile.slow_extra_ms = np.maximum(
            profile.slow_extra_ms, self.extra_ms * (env > 0.0)
        )
        return IncidentWindow(
            scenario="slow-dependency", start_s=start, end_s=end,
            params={"slow_share": self.slow_share, "extra_ms": self.extra_ms},
        )


@dataclass(frozen=True)
class RegionalDegradation(IncidentSpec):
    """Part of the fleet slows down: ``region_share`` of capacity serves at
    ``service_mult``x, seen in aggregate as a sustained service-time
    inflation for the affected share."""

    service_mult: float = 1.8
    region_share: float = 0.4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.service_mult <= 0:
            raise ConfigError(f"service_mult must be positive, got {self.service_mult}")
        if not 0.0 < self.region_share <= 1.0:
            raise ConfigError(f"region_share must be in (0, 1], got {self.region_share}")

    def apply(self, profile: IncidentProfile, rng: np.random.Generator) -> IncidentWindow:
        start, end = self.window_bounds(profile, rng)
        env = profile.envelope(start, end - start, self.ramp_s)
        effective = 1.0 + (self.service_mult - 1.0) * self.region_share * env
        profile.service_mult *= effective
        return IncidentWindow(
            scenario="regional-degradation", start_s=start, end_s=end,
            params={"service_mult": self.service_mult,
                    "region_share": self.region_share},
        )


@dataclass(frozen=True)
class AutoscaleStep(IncidentSpec):
    """A capacity step: ``server_delta`` servers added (or, negative,
    removed — an over-eager scale-in). Hard step, no ramp: machines join
    and leave whole."""

    server_delta: int = -1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.server_delta == 0:
            raise ConfigError("server_delta must be non-zero")

    def apply(self, profile: IncidentProfile, rng: np.random.Generator) -> IncidentWindow:
        start, end = self.window_bounds(profile, rng)
        step = profile.envelope(start, end - start, 0.0) > 0.0
        profile.server_delta = profile.server_delta + np.where(step, self.server_delta, 0)
        return IncidentWindow(
            scenario="autoscale-step", start_s=start, end_s=end,
            params={"server_delta": float(self.server_delta)},
        )


@dataclass(frozen=True)
class RetryStorm(IncidentSpec):
    """Timeouts trigger client retries: extra load *and* extra per-request
    work arrive together — the load/latency coupling that makes retry
    storms self-amplifying."""

    load_mult: float = 1.7
    service_mult: float = 1.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.load_mult <= 0 or self.service_mult <= 0:
            raise ConfigError("load_mult and service_mult must be positive")

    def apply(self, profile: IncidentProfile, rng: np.random.Generator) -> IncidentWindow:
        start, end = self.window_bounds(profile, rng)
        env = profile.envelope(start, end - start, self.ramp_s)
        profile.arrival_mult *= 1.0 + (self.load_mult - 1.0) * env
        profile.service_mult *= 1.0 + (self.service_mult - 1.0) * env
        return IncidentWindow(
            scenario="retry-storm", start_s=start, end_s=end,
            params={"load_mult": self.load_mult, "service_mult": self.service_mult},
        )


@dataclass(frozen=True)
class IncidentPlan:
    """An ordered, seeded composition of incident specs.

    ``build`` derives one independent stream per spec from
    ``(seed, position, spec name)`` — mirroring
    the chaos harness's ``FaultPlan`` — and returns the composed profile plus
    ground-truth windows. A plan is a pure function of its inputs.
    """

    specs: Tuple[IncidentSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, IncidentSpec):
                raise ConfigError(
                    f"IncidentPlan specs must be IncidentSpec instances, "
                    f"got {type(spec).__name__}"
                )

    def build(self, start: float, dt: float, n_cells: int) -> IncidentProfile:
        profile = IncidentProfile(start=start, dt=dt, n_cells=n_cells)
        factory = RngFactory(self.seed)
        for i, spec in enumerate(self.specs):
            rng = factory.stream(f"incident/{i}/{spec.name}")
            window = spec.apply(profile, rng)
            profile.windows.append(window)
        return profile

    def describe(self) -> str:
        return " + ".join(spec.name for spec in self.specs) or "(no incidents)"


#: One default-configured instance of every incident class — the catalog the
#: recovery fixtures and chaos suite sweep over. Factories, so each use gets
#: a fresh spec.
DEFAULT_INCIDENT_SPECS: Dict[str, Callable[[], IncidentSpec]] = {
    "load-spike": lambda: LoadSpike(start_frac=0.35, duration_s=5400.0, peak_mult=2.5),
    "slow-dependency": lambda: SlowDependency(
        start_frac=0.45, duration_s=7200.0, slow_share=0.35, extra_ms=700.0
    ),
    "regional-degradation": lambda: RegionalDegradation(
        start_frac=0.3, duration_s=10800.0, service_mult=1.8, region_share=0.4
    ),
    "autoscale-step": lambda: AutoscaleStep(
        start_frac=0.5, duration_s=7200.0, server_delta=-1
    ),
    "retry-storm": lambda: RetryStorm(
        start_frac=0.4, duration_s=3600.0, load_mult=1.7, service_mult=1.25
    ),
}
