"""Ground-truth latency preference curves.

The simulator's users accept or skip candidate actions with a probability
that depends on latency — the *ground-truth preference*. Each curve is a
monotone cubic through anchor points lifted from the paper's own figures, so
the reproduction target is explicit: AutoSens, run on the synthetic logs,
should recover these curves.

All curves are normalized so that preference at the paper's reference
latency (300 ms) equals 1, and clamped flat outside the anchor range.
Steepness variants (user conditioning, time-of-day) are expressed as a
power transform ``pref(L) ** exponent`` — the exponent leaves the value at
the reference latency fixed at 1 while scaling sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.stats.interpolate import MonotoneCubicInterpolator
from repro.types import ActionType, DayPeriod, UserClass

#: The paper's reference latency for normalization (Section 3.2).
REFERENCE_LATENCY_MS = 300.0


@dataclass(frozen=True)
class PreferenceCurve:
    """A normalized latency-preference function.

    ``anchors`` maps latency (ms) to normalized preference; the value at
    :data:`REFERENCE_LATENCY_MS` must be 1.0 (add the anchor explicitly).
    """

    anchors: Tuple[Tuple[float, float], ...]
    name: str = "preference"

    def __post_init__(self) -> None:
        pts = sorted(self.anchors)
        if len(pts) < 2:
            raise ConfigError("a preference curve needs at least two anchors")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if any(y <= 0 for y in ys):
            raise ConfigError("preference values must be positive")
        object.__setattr__(self, "anchors", tuple(pts))
        object.__setattr__(self, "_interp", MonotoneCubicInterpolator(xs, ys))

    @classmethod
    def from_mapping(cls, anchors: Mapping[float, float], name: str = "preference") -> "PreferenceCurve":
        return cls(anchors=tuple(anchors.items()), name=name)

    def __call__(self, latency_ms: np.ndarray, exponent: float = 1.0) -> np.ndarray:
        """Preference at the given latencies, optionally power-transformed."""
        base = self._interp(np.asarray(latency_ms, dtype=float))
        if exponent == 1.0:
            return base
        return np.power(base, exponent)

    def normalized(self, latency_ms: np.ndarray, reference_ms: float = REFERENCE_LATENCY_MS,
                   exponent: float = 1.0) -> np.ndarray:
        """Preference normalized to 1 at ``reference_ms``."""
        ref = float(self(np.asarray([reference_ms]), exponent)[0])
        return self(latency_ms, exponent) / ref

    @property
    def max_value(self) -> float:
        """Upper bound of the curve over its anchor range (for thinning)."""
        dense = np.linspace(self.anchors[0][0], self.anchors[-1][0], 2048)
        return float(np.max(self._interp(dense)))


# --- Paper-derived anchor sets ------------------------------------------
#
# Anchors at and above 300 ms for SelectMail are the values the paper
# reports (Figure 4 and Section 3.5). Values below 300 ms and for the other
# actions are read off the paper's figures to the precision the plots allow.

PAPER_ANCHORS: Dict[str, Dict[float, float]] = {
    ActionType.SELECT_MAIL.value: {
        50.0: 1.13, 150.0: 1.07, 300.0: 1.0, 500.0: 0.88,
        1000.0: 0.68, 1500.0: 0.61, 2000.0: 0.59, 3000.0: 0.57,
    },
    ActionType.SWITCH_FOLDER.value: {
        50.0: 1.10, 150.0: 1.05, 300.0: 1.0, 500.0: 0.91,
        1000.0: 0.74, 1500.0: 0.67, 2000.0: 0.64, 3000.0: 0.62,
    },
    ActionType.SEARCH.value: {
        50.0: 1.05, 150.0: 1.02, 300.0: 1.0, 500.0: 0.96,
        1000.0: 0.86, 1500.0: 0.80, 2000.0: 0.76, 3000.0: 0.73,
    },
    ActionType.COMPOSE_SEND.value: {
        50.0: 1.02, 150.0: 1.01, 300.0: 1.0, 500.0: 0.99,
        1000.0: 0.97, 1500.0: 0.96, 2000.0: 0.95, 3000.0: 0.94,
    },
}

#: Consumer users are more latency-tolerant than business users (Figure 5);
#: consumer SelectMail sits clearly above the business curve.
CONSUMER_ANCHORS: Dict[str, Dict[float, float]] = {
    ActionType.SELECT_MAIL.value: {
        50.0: 1.08, 150.0: 1.04, 300.0: 1.0, 500.0: 0.93,
        1000.0: 0.79, 1500.0: 0.73, 2000.0: 0.70, 3000.0: 0.68,
    },
}

#: Sensitivity exponents per six-hour period (Figure 7): daytime steepest.
PERIOD_EXPONENTS: Dict[DayPeriod, float] = {
    DayPeriod.MORNING: 1.20,
    DayPeriod.AFTERNOON: 1.05,
    DayPeriod.NIGHT: 0.80,
    DayPeriod.LATE_NIGHT: 0.60,
}

#: Sensitivity exponents per median-latency quartile (Figure 6): users
#: accustomed to fast service (Q1) react most strongly.
QUARTILE_EXPONENTS: Tuple[float, float, float, float] = (1.35, 1.10, 0.85, 0.60)


def paper_curve(action: ActionType | str, user_class: UserClass | str = UserClass.BUSINESS) -> PreferenceCurve:
    """The paper-derived ground-truth curve for an (action, class) pair.

    Consumer users get the shallower consumer variant where defined,
    otherwise an exponent-softened business curve.
    """
    action_name = action.value if isinstance(action, ActionType) else str(action)
    class_name = user_class.value if isinstance(user_class, UserClass) else str(user_class)
    if action_name not in PAPER_ANCHORS:
        raise ConfigError(f"no paper anchors for action {action_name!r}")
    if class_name == UserClass.CONSUMER.value:
        if action_name in CONSUMER_ANCHORS:
            return PreferenceCurve.from_mapping(
                CONSUMER_ANCHORS[action_name], name=f"{action_name}/consumer"
            )
        # Soften the business curve: consumers are ~0.7x as sensitive.
        base = PAPER_ANCHORS[action_name]
        softened = {x: y ** 0.7 for x, y in base.items()}
        return PreferenceCurve.from_mapping(softened, name=f"{action_name}/consumer")
    return PreferenceCurve.from_mapping(
        PAPER_ANCHORS[action_name], name=f"{action_name}/business"
    )


class GroundTruth:
    """Complete ground-truth preference model for a simulated service.

    Combines per-(action, class) base curves with multiplicative sensitivity
    exponents for time-of-day period and per-user conditioning:

    ``pref(L) = base_curve[action, class](L) ** (e_period * e_user)``

    A flat model (no latency sensitivity at all) is expressed by curves that
    are constant 1.
    """

    def __init__(
        self,
        curves: Mapping[Tuple[str, str], PreferenceCurve],
        period_exponents: Mapping[DayPeriod, float] | None = None,
        reference_ms: float = REFERENCE_LATENCY_MS,
    ) -> None:
        if not curves:
            raise ConfigError("GroundTruth needs at least one curve")
        self.curves = dict(curves)
        self.period_exponents = dict(period_exponents or {})
        self.reference_ms = reference_ms

    @classmethod
    def paper_default(
        cls,
        actions: Tuple[ActionType, ...] = tuple(ActionType),
        classes: Tuple[UserClass, ...] = tuple(UserClass),
        time_of_day_effect: bool = False,
    ) -> "GroundTruth":
        """The full paper-shaped model over all action/class combinations."""
        curves = {
            (a.value, c.value): paper_curve(a, c) for a in actions for c in classes
        }
        return cls(
            curves,
            period_exponents=PERIOD_EXPONENTS if time_of_day_effect else None,
        )

    def curve_for(self, action: str, user_class: str) -> PreferenceCurve:
        key = (action, user_class)
        if key in self.curves:
            return self.curves[key]
        # Fall back to a class-agnostic curve if one was registered.
        key_any = (action, "")
        if key_any in self.curves:
            return self.curves[key_any]
        raise ConfigError(f"no ground-truth curve for {key}")

    def period_exponent(self, hours: np.ndarray) -> np.ndarray:
        """Per-sample sensitivity exponent from local hour of day."""
        hours = np.asarray(hours, dtype=float)
        if not self.period_exponents:
            return np.ones(hours.shape, dtype=float)
        # DayPeriod.of_hour per element, as masks: NaN falls through to
        # LATE_NIGHT there and here.
        hour = hours % 24.0
        periods = (
            (DayPeriod.NIGHT, (20.0 <= hour) | (hour < 2.0)),
            (DayPeriod.AFTERNOON, (14.0 <= hour) & (hour < 20.0)),
            (DayPeriod.MORNING, (8.0 <= hour) & (hour < 14.0)),
        )
        out = np.full(hours.shape, self.period_exponents.get(DayPeriod.LATE_NIGHT, 1.0))
        for period, mask in periods:
            out[mask] = self.period_exponents.get(period, 1.0)
        return out

    def preference(
        self,
        latency_ms: np.ndarray,
        action: str,
        user_class: str,
        hours: np.ndarray | None = None,
        user_exponent: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """Ground-truth acceptance preference, un-normalized (value at any L)."""
        curve = self.curve_for(action, user_class)
        exponent = np.asarray(user_exponent, dtype=float)
        if hours is not None:
            exponent = exponent * self.period_exponent(hours)
        base = curve(latency_ms)
        return np.power(base, exponent)

    def expected_nlp(
        self,
        latency_ms: np.ndarray,
        action: str,
        user_class: str,
        period: DayPeriod | None = None,
        user_exponent: float = 1.0,
    ) -> np.ndarray:
        """The NLP curve AutoSens should recover for a homogeneous group."""
        exponent = user_exponent
        if period is not None and self.period_exponents:
            exponent *= self.period_exponents.get(period, 1.0)
        curve = self.curve_for(action, user_class)
        return curve.normalized(latency_ms, self.reference_ms, exponent)
