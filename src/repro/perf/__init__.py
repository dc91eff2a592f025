"""``repro.perf`` — the performance layer: named LRU caches and the profiler.

Three things live here:

* the registry of named, bounded LRU caches (:func:`get_cache`) used by the
  embedding store (``store``), with :func:`cache_stats`,
  :func:`clear_caches`, :func:`reset_stats` and :func:`resize`;
* :func:`params_version` / :func:`bump_params_version`, which key every
  weight-derived cache entry, and :func:`instance_token`;
* the op-level profiler, always off unless explicitly started; see
  :mod:`repro.perf.profiler`.
"""

from __future__ import annotations

from repro.perf.cache import (
    CacheStats,
    LRUCache,
    bump_params_version,
    cache_stats,
    clear_caches,
    get_cache,
    instance_token,
    params_version,
    reset_stats,
    resize,
)
from repro.perf.profiler import PROFILER, OpStats, Profiler, profile, profiler_enabled

__all__ = [
    "CacheStats", "LRUCache", "OpStats", "Profiler", "PROFILER",
    "bump_params_version", "cache_stats", "clear_caches", "get_cache",
    "instance_token", "params_version", "profile", "profiler_enabled",
    "reset_stats", "resize",
]
