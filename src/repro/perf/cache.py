"""Bounded, named LRU caches and the weights version that keys them.

The registry here backs the embedding store's fronting LRU (``store``:
shard reads and live encodes of stored records).

Everything in this module is dependency-light (numpy-only values, plain
Python containers, plus the stdlib-only ``repro.reliability`` leaf modules)
so it can be imported from the autograd engine, the optimizers, and the
module system without cycles.

Cache entries are exact memoizations: a hit returns the very value a miss
would have computed.  Mutable weights are handled by :func:`params_version`,
a global counter every optimizer step and ``load_state_dict`` bumps; any
cache key that depends on model weights includes the version, so stale
activations can never be returned.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

from repro.reliability.counters import COUNTERS
from repro.reliability.faults import fault_point

#: Sentinel an injected ``poison`` fault stores in place of a cached value.
_POISONED = object()

#: Write-sanitizer hook, installed by :mod:`repro.analysis.sanitizer`.  When
#: set, it is called as ``hook(value)`` on every stored entry so cached
#: arrays can be frozen against in-place mutation.
_freeze_hook = None


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Cache hits whose value failed validation (or was poisoned) and were
    #: recomputed via the uncached path instead of failing the run.
    degraded: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0.0 when unused)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "degraded": self.degraded,
            "hit_rate": round(self.hit_rate, 4),
        }

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.degraded = 0


class LRUCache:
    """A bounded least-recently-used mapping with usage counters.

    ``get``/``put`` move touched keys to the most-recent end; inserting past
    ``capacity`` evicts the least-recently-used entry.  ``get_or_compute``
    is the memoizing read with poisoned-entry degradation.
    """

    def __init__(self, capacity: int, name: str = "lru"):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.stats = CacheStats()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def keys(self):
        """Keys from least- to most-recently used."""
        return list(self._data.keys())

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            return default
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if _freeze_hook is not None:
            _freeze_hook(value)
        if key in self._data:
            self._data.move_to_end(key)
            self._data[key] = value
            return
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any],
                       validate: Optional[Callable[[Any], bool]] = None) -> Any:
        """Memoized ``compute()`` with poisoned-entry degradation.

        A hit whose value fails ``validate`` (or was poisoned by the
        ``cache.entry`` fault site) is dropped and recomputed through the
        uncached path — counted in ``stats.degraded`` and the global
        ``COUNTERS.cache_degraded`` — so a bad cache entry can never fail
        or corrupt a run.
        """
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            value = compute()
            self.put(key, value)
            return value
        self._data.move_to_end(key)
        if fault_point("cache.entry", cache=self.name) == "poison":
            self._data[key] = _POISONED  # the stored entry itself is mangled
            value = _POISONED
        if value is _POISONED or (validate is not None and not validate(value)):
            del self._data[key]
            self.stats.degraded += 1
            self.stats.misses += 1
            COUNTERS.increment("cache_degraded")
            value = compute()
            self.put(key, value)
            return value
        self.stats.hits += 1
        return value

    def clear(self) -> None:
        self._data.clear()


# ----------------------------------------------------------------------
# Parameter versioning — invalidates weight-dependent cache entries.
# ----------------------------------------------------------------------
_params_version = 0


def params_version() -> int:
    """Monotonic counter identifying the current state of *all* model weights."""
    return _params_version


def bump_params_version() -> None:
    """Called by optimizer steps and ``load_state_dict`` after mutating weights."""
    global _params_version
    _params_version += 1


# ----------------------------------------------------------------------
# The global cache registry.
# ----------------------------------------------------------------------
#: Default entry bounds (other names get 4096); change one with :func:`resize`.
DEFAULT_CAPACITY = {
    "store": 2048,      # dequantized embedding-store records (store/)
}

_caches: Dict[str, LRUCache] = {}


def get_cache(name: str) -> LRUCache:
    """Return (creating on first use) the named global cache."""
    cache = _caches.get(name)
    if cache is None:
        cache = LRUCache(DEFAULT_CAPACITY.get(name, 4096), name=name)
        _caches[name] = cache
    return cache


def resize(name: str, capacity: int) -> None:
    """Resize a cache, dropping LRU entries if it shrinks."""
    cache = get_cache(name)
    cache.capacity = capacity
    while len(cache) > capacity:
        cache._data.popitem(last=False)
        cache.stats.evictions += 1


def clear_caches() -> None:
    """Drop all cached entries (counters survive; use reset_stats too)."""
    for cache in _caches.values():
        cache.clear()


def reset_stats() -> None:
    for cache in _caches.values():
        cache.stats.reset()


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Per-cache counters plus an aggregate ``total`` row."""
    out: Dict[str, Dict[str, float]] = {}
    total = CacheStats()
    for name, cache in sorted(_caches.items()):
        out[name] = {"entries": len(cache), **cache.stats.as_dict()}
        total.hits += cache.stats.hits
        total.misses += cache.stats.misses
        total.evictions += cache.stats.evictions
        total.degraded += cache.stats.degraded
    out["total"] = total.as_dict()
    return out


_instance_counter = 0


def instance_token(obj) -> int:
    """A process-unique id for ``obj``, assigned lazily and pinned to it.

    Unlike ``id()``, tokens are never reused after garbage collection, so
    they are safe inside cache keys.
    """
    token = getattr(obj, "_perf_token", None)
    if token is None:
        global _instance_counter
        _instance_counter += 1
        token = _instance_counter
        try:
            obj._perf_token = token
        except AttributeError:  # __slots__ instances can't be tagged
            return id(obj)
    return token
