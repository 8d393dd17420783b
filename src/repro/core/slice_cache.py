"""Memoization of expensive per-slice intermediates.

The analysis layer repeatedly evaluates the same telemetry slice: the
figure drivers share slices across figures, bootstrap bands resample around
one slice, and sweeps revisit the full store once per segment. The
expensive intermediates — the sliced :class:`~repro.telemetry.log_store.LogStore`
and the :class:`~repro.core.alpha.SlottedCounts` tensor with its exact
unbiased time fractions — are pure functions of ``(log store, slice
predicate, config fingerprint)``; the pipeline's remaining randomness
(subsampling) comes from pure named streams
(:meth:`repro.stats.rng.RngFactory.stream`). That purity is what makes
memoization *exact*: a cache hit returns bit-identical arrays to a
recompute.

Keys are plain tuples: a ``kind`` tag, an identity token for the log store
(strong-pinned so ``id()`` stays valid), the normalized slice predicate,
and :meth:`repro.core.pipeline.AutoSensConfig.fingerprint`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable

import repro.obs as obs
from repro.errors import ConfigError

__all__ = ["SliceCache"]


class SliceCache:
    """A small LRU cache for per-slice pipeline intermediates.

    Entries are evicted least-recently-used once ``max_entries`` is
    exceeded. Values are returned by reference — callers must treat them
    as immutable (the pipeline only ever reads them).
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        # Strong references keeping id()-based tokens valid for the cache's
        # lifetime (bounded by the number of distinct stores analyzed).
        self._pins: Dict[int, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def token(self, obj: Any) -> int:
        """A hashable identity token for an unhashable object.

        Pins a strong reference so the token cannot be recycled by a new
        object at the same address while the cache lives.
        """
        self._pins[id(obj)] = obj
        return id(obj)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on first use."""
        kind = key[0] if isinstance(key, tuple) and key else "value"
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            obs.inc("autosens_slice_cache_total", outcome="hit", kind=str(kind))
            return self._entries[key]
        value = compute()
        self.misses += 1
        obs.inc("autosens_slice_cache_total", outcome="miss", kind=str(kind))
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.inc("autosens_slice_cache_evictions_total")
        return value

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus current size, metrics-free."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        """Drop every entry, pinned reference and counter."""
        self._entries.clear()
        self._pins.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SliceCache(entries={len(self._entries)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
