"""Deterministic fault injection for chaos-testing the pipeline.

Real OWA-scale telemetry arrives dirty: malformed lines, NaN latencies,
skewed clocks, duplicated batches, collector outages. This package turns
each of those failure modes into a seeded, composable
:class:`~tests.faults.specs.FaultSpec` so every one has a reproducible
chaos test — the ingestion layer (:mod:`repro.telemetry.ingest`) and the
fault-tolerant runtime (:mod:`repro.parallel`) are exercised against them
by the ``test_*.py`` modules of this package. The harness is test code:
nothing under ``src/`` imports it.

:mod:`tests.faults.tasks` adds *execution-level* faults — tasks that hang
(:class:`~tests.faults.tasks.StalledTask`) or balloon their working set
(:class:`~tests.faults.tasks.MemoryHog`) — for chaos-testing the
supervision layer in :mod:`repro.runtime`.
"""

from tests.faults.inject import corrupt_jsonl, corrupt_records, write_corrupted
from tests.faults.tasks import MemoryHog, StalledTask
from tests.faults.specs import (
    DEFAULT_FAULT_SPECS,
    ClockSkew,
    DropFields,
    DuplicateRows,
    FaultPlan,
    FaultSpec,
    GapWindow,
    MalformedLines,
    NaNLatency,
    NegativeLatency,
    OutlierLatency,
    OutOfOrderTimestamps,
    TruncatedLines,
)

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "MalformedLines",
    "TruncatedLines",
    "NaNLatency",
    "NegativeLatency",
    "OutlierLatency",
    "ClockSkew",
    "OutOfOrderTimestamps",
    "DuplicateRows",
    "DropFields",
    "GapWindow",
    "DEFAULT_FAULT_SPECS",
    "StalledTask",
    "MemoryHog",
    "corrupt_records",
    "corrupt_jsonl",
    "write_corrupted",
]
