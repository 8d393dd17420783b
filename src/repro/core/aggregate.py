"""Privacy-preserving aggregate exchange.

The AutoSens pipeline's sufficient statistics — per-(time-slot, latency-bin)
action counts plus per-slot time-at-latency fractions — contain no user
identifiers, no content, and no individual timestamps. A service operator
can therefore export a :class:`~repro.core.alpha.SlottedCounts` table and
hand it to an analyst who never touches raw telemetry, in the spirit of the
paper's aggregate-only analysis posture.

This module provides JSON (de)serialization for those tables and
:func:`curve_from_counts`, which runs the downstream pipeline (α
correction, multi-reference averaging, smoothing, normalization) on a
table alone.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import SchemaError
from repro.core.alpha import SlottedCounts
from repro.core.pipeline import AutoSensConfig, reference_averaged_curve
from repro.core.result import PreferenceResult
from repro.stats.histogram import HistogramBins

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def save_counts(counts: SlottedCounts, path: PathLike) -> None:
    """Write a sufficient-statistics table to JSON."""
    payload = {
        "format_version": FORMAT_VERSION,
        "scheme": counts.scheme,
        "bins": {
            "low": counts.bins.low,
            "high": counts.bins.high,
            "width": counts.bins.width,
        },
        "slot_ids": [int(s) for s in counts.slot_ids],
        "biased_counts": counts.biased_counts.tolist(),
        "time_fractions": counts.time_fractions.tolist(),
        "slot_seconds": (None if counts.slot_seconds is None
                         else counts.slot_seconds.tolist()),
    }
    Path(path).write_text(json.dumps(payload))


def load_counts(path: PathLike) -> SlottedCounts:
    """Read a table written by :func:`save_counts`."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    try:
        if payload["format_version"] != FORMAT_VERSION:
            raise SchemaError(
                f"{path}: unsupported format version {payload['format_version']}"
            )
        bins = HistogramBins(**payload["bins"])
        slot_seconds = payload.get("slot_seconds")
        return SlottedCounts(
            scheme=str(payload["scheme"]),
            slot_ids=np.asarray(payload["slot_ids"], dtype=np.int64),
            biased_counts=np.asarray(payload["biased_counts"], dtype=float),
            time_fractions=np.asarray(payload["time_fractions"], dtype=float),
            bins=bins,
            slot_seconds=(None if slot_seconds is None
                          else np.asarray(slot_seconds, dtype=float)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed counts table: {exc}") from exc


def curve_from_counts(
    counts: SlottedCounts,
    config: Optional[AutoSensConfig] = None,
    slice_description: str = "",
) -> PreferenceResult:
    """Run the downstream AutoSens pipeline on a sufficient-statistics table.

    Bitwise :meth:`AutoSens.preference_curve` on the rows the table was
    built from (both run :func:`~repro.core.pipeline.reference_averaged_curve`),
    without any access to the telemetry. ``time_correction=False`` is a
    :class:`~repro.errors.ConfigError`.
    """
    result = reference_averaged_curve(
        counts, config or AutoSensConfig(), slice_description)
    result.metadata["from_aggregates"] = True
    return result
