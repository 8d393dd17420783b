"""The biased latency distribution ``B`` (paper Section 2.2).

``B`` is simply the histogram of the latencies of the user actions that
actually happened. It is "biased" because users act more when latency is
low — which is exactly the signal AutoSens extracts by comparing ``B``
against the unbiased distribution ``U``.
"""

from __future__ import annotations

from repro.errors import EmptyDataError
from repro.stats.histogram import Histogram1D, HistogramBins
from repro.telemetry.log_store import LogStore


def biased_histogram(logs: LogStore, bins: HistogramBins) -> Histogram1D:
    """Histogram of observed action latencies."""
    if logs.is_empty:
        raise EmptyDataError("cannot build a biased distribution from empty logs")
    hist = Histogram1D(bins)
    hist.add(logs.latencies_ms)
    return hist
