"""Telemetry substrate: record schema, columnar store, IO, privacy guards.

The paper's substrate is OWA server-side logging (Section 3.1); this package
is its reproduction-scale equivalent: a schema for ``(T, A, L, M)`` tuples,
a NumPy-backed columnar store with vectorized slicing, JSONL/CSV round-trip
IO, sessionization, and the anonymization/aggregate-size
guards the paper's ethics posture requires.
"""

from repro.telemetry.anonymize import (
    DEFAULT_MIN_AGGREGATE,
    anonymize_user_id,
    is_guid_shaped,
    require_min_aggregate,
)
from repro.telemetry.csvio import iter_csv, read_csv, write_csv
from repro.telemetry.ingest import (
    INGEST_MODES,
    BadRow,
    IngestCollector,
    IngestPolicy,
    IngestReport,
    read_quarantine,
    validate_record,
)
from repro.telemetry.jsonl import iter_jsonl, read_jsonl, write_jsonl
from repro.telemetry.log_store import LogStore
from repro.telemetry.quality import QualityFlag, QualityReport, quality_report
from repro.telemetry.record import ActionRecord
from repro.telemetry.session import (
    DEFAULT_SESSION_GAP_SECONDS,
    Session,
    sessionize,
)
from repro.telemetry import timeutil

__all__ = [
    "ActionRecord",
    "QualityFlag",
    "QualityReport",
    "quality_report",
    "LogStore",
    "INGEST_MODES",
    "BadRow",
    "IngestCollector",
    "IngestPolicy",
    "IngestReport",
    "read_quarantine",
    "validate_record",
    "read_jsonl",
    "write_jsonl",
    "iter_jsonl",
    "read_csv",
    "write_csv",
    "iter_csv",
    "anonymize_user_id",
    "is_guid_shaped",
    "require_min_aggregate",
    "DEFAULT_MIN_AGGREGATE",
    "Session",
    "sessionize",
    "DEFAULT_SESSION_GAP_SECONDS",
    "timeutil",
]
