"""The telemetry record schema.

AutoSens needs only ``(T, A, L, M)`` tuples per the paper's Section 2.1: a
start timestamp, the action type, the client-measured end-to-end latency,
and optional metadata (anonymized user id, subscription class). We add a
success flag (the paper discards errored actions) and a timezone offset so
time-of-day analyses can run in the user's local time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.errors import SchemaError


#: ``extra``'s default: each record gets a fresh dict, as from
#: ``field(default_factory=dict)``.
_NO_EXTRA: Any = object()


@dataclass(frozen=True, init=False)
class ActionRecord:
    """One logged user action.

    Attributes
    ----------
    time:
        Action start time, seconds since the epoch of the log (the simulator
        uses seconds since the start of the simulated period).
    action:
        Action type name, e.g. ``"SelectMail"``.
    latency_ms:
        Client-measured end-to-end latency in milliseconds.
    user_id:
        Anonymized user identifier (GUID-like string). Never inspected
        beyond grouping; see :mod:`repro.telemetry.anonymize`.
    user_class:
        Subscription tier, e.g. ``"business"`` or ``"consumer"``.
    success:
        Whether the action completed successfully. AutoSens analyses only
        successful actions.
    tz_offset_hours:
        The user's local-time offset from log time, in hours.
    extra:
        Free-form additional metadata; carried through IO, ignored by the
        analyses.
    """

    time: float
    action: str
    latency_ms: float
    user_id: str = ""
    user_class: str = ""
    success: bool = True
    tz_offset_hours: float = 0.0
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __init__(
        self,
        time: float,
        action: str,
        latency_ms: float,
        user_id: str = "",
        user_class: str = "",
        success: bool = True,
        tz_offset_hours: float = 0.0,
        extra: Mapping[str, Any] = _NO_EXTRA,
    ) -> None:
        # Hand-written: a frozen dataclass's generated __init__ sets each
        # field through object.__setattr__, which costs more than the rest
        # of building a record. Writing the instance dict directly leaves
        # assignment frozen, and eq, repr and pickling unchanged.
        if not isinstance(action, str) or not action:
            raise SchemaError(f"action must be a non-empty string, got {action!r}")
        if latency_ms < 0:
            raise SchemaError(f"latency must be non-negative, got {latency_ms}")
        if not -24.0 <= tz_offset_hours <= 24.0:
            raise SchemaError(
                f"tz_offset_hours out of range [-24, 24]: {tz_offset_hours}"
            )
        values = self.__dict__
        values["time"] = time
        values["action"] = action
        values["latency_ms"] = latency_ms
        values["user_id"] = user_id
        values["user_class"] = user_class
        values["success"] = success
        values["tz_offset_hours"] = tz_offset_hours
        values["extra"] = {} if extra is _NO_EXTRA else extra

    def local_time(self) -> float:
        """Action start time shifted into the user's local clock."""
        return self.time + 3600.0 * self.tz_offset_hours

    def to_dict(self) -> dict:
        """Flat dict representation used by the JSONL/CSV writers."""
        out = {
            "time": self.time,
            "action": self.action,
            "latency_ms": self.latency_ms,
            "user_id": self.user_id,
            "user_class": self.user_class,
            "success": self.success,
            "tz_offset_hours": self.tz_offset_hours,
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ActionRecord":
        """Inverse of :meth:`to_dict`; raises :class:`SchemaError` on bad input."""
        try:
            return cls(
                time=float(data["time"]),
                action=str(data["action"]),
                latency_ms=float(data["latency_ms"]),
                user_id=str(data.get("user_id", "")),
                user_class=str(data.get("user_class", "")),
                success=bool(data.get("success", True)),
                tz_offset_hours=float(data.get("tz_offset_hours", 0.0)),
                extra=dict(data.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed record {data!r}: {exc}") from exc
