"""Series export: CSV files for external plotting."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.errors import EmptyDataError

PathLike = Union[str, Path]


def save_series_csv(series: Dict[str, np.ndarray], path: PathLike) -> int:
    """Write a dict of equal-length columns to CSV; returns row count."""
    if not series:
        raise EmptyDataError("no series to export")
    lengths = {len(np.atleast_1d(v)) for v in series.values()}
    if len(lengths) != 1:
        raise EmptyDataError(f"columns differ in length: {sorted(lengths)}")
    n = lengths.pop()
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(series.keys())
        columns = [np.atleast_1d(v) for v in series.values()]
        for i in range(n):
            writer.writerow(
                ["" if (isinstance(c[i], float) and np.isnan(c[i])) else c[i]
                 for c in columns]
            )
    return n
