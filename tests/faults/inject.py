"""Apply fault plans to telemetry on disk and in memory.

The injectors sit at the natural chaos boundary — between a clean source
(the workload generator, a pristine log file) and the ingestion layer under
test. ``corrupt_jsonl`` rewrites a JSONL file through a plan;
``corrupt_records`` does the same for an in-memory record stream.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Iterable, List, Union

from tests.faults.specs import FaultPlan, Row
from repro.telemetry.record import ActionRecord

__all__ = ["corrupt_records", "corrupt_jsonl", "write_corrupted"]

PathLike = Union[str, Path]


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def corrupt_records(
    records: Iterable[ActionRecord], plan: FaultPlan
) -> List[Row]:
    """Run records through a plan; returns dict rows and/or garbage lines."""
    return plan.apply([record.to_dict() for record in records])


def write_corrupted(rows: Iterable[Row], path: PathLike) -> int:
    """Serialize a corrupted row stream to JSONL; returns line count.

    Dicts are JSON-encoded (``allow_nan`` stays on: a NaN latency must
    round-trip so the ingest layer, not the injector, is what catches it);
    raw strings are written verbatim.
    """
    path = Path(path)
    count = 0
    with _open_text(path, "w") as fh:
        for row in rows:
            if isinstance(row, dict):
                fh.write(json.dumps(row, separators=(",", ":")))
            else:
                fh.write(row)
            fh.write("\n")
            count += 1
    return count


def corrupt_jsonl(src: PathLike, dst: PathLike, plan: FaultPlan) -> int:
    """Rewrite a JSONL file through a fault plan; returns lines written.

    Source lines that already fail to parse pass through verbatim (they
    are, after all, exactly the kind of fault the plan wants present).
    """
    src, dst = Path(src), Path(dst)
    rows: List[Row] = []
    with _open_text(src, "r") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                rows.append(line)
                continue
            rows.append(parsed if isinstance(parsed, dict) else line)
    return write_corrupted(plan.apply(rows), dst)
