"""Privacy utilities mirroring the paper's data-handling constraints.

The paper analyzes *only large user aggregates* with anonymized GUIDs and
never inspects content (Section 1, footnote; Section 3.4). This module
provides the two mechanisms the reproduction uses to honor that:

- :func:`anonymize_user_id` — deterministic keyed hashing of raw user ids
  into GUID-shaped opaque tokens, so raw ids never reach a log file;
- :func:`require_min_aggregate` — a guard raising :class:`PrivacyError`
  whenever a per-group statistic would be computed over fewer than a
  configurable number of distinct users.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import PrivacyError
from repro.telemetry.log_store import LogStore

#: Default minimum distinct users per analyzed aggregate.
DEFAULT_MIN_AGGREGATE = 50


def anonymize_user_id(raw_id: str, key: bytes = b"autosens-repro") -> str:
    """Map a raw user id to a stable GUID-shaped opaque token.

    Uses HMAC-SHA256 so anonymization is deterministic per key but raw ids
    cannot be recovered without the key.
    """
    digest = hmac.new(key, raw_id.encode("utf-8"), hashlib.sha256).hexdigest()
    return (
        f"{digest[0:8]}-{digest[8:12]}-{digest[12:16]}-"
        f"{digest[16:20]}-{digest[20:32]}"
    )


def require_min_aggregate(
    logs: LogStore,
    min_users: int = DEFAULT_MIN_AGGREGATE,
    what: str = "aggregate",
) -> LogStore:
    """Return ``logs`` unchanged if it covers enough distinct users.

    Raises :class:`PrivacyError` otherwise. Call this before reporting
    any per-group statistic.
    """
    n = logs.n_users() if len(logs) else 0
    if n < min_users:
        raise PrivacyError(
            f"{what} covers only {n} distinct users "
            f"(minimum {min_users}); refusing to report per-group statistics"
        )
    return logs


def is_guid_shaped(token: str) -> bool:
    """Check a token has the 8-4-4-4-12 hex GUID shape."""
    parts = token.split("-")
    if [len(p) for p in parts] != [8, 4, 4, 4, 12]:
        return False
    try:
        int("".join(parts), 16)
    except ValueError:
        return False
    return True
