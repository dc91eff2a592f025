"""``repro.perf`` — the performance layer: encoding caches and the profiler.

One switch, ``cache`` (default **on**), controls exact memoization of
tokenization, padded slot batches, and frozen-weights LM contexts.  It is
bitwise-transparent: a cached run produces identical logits to an uncached
one.  (The slot-stacked HierGAT forward is not a switch: it is the only
forward; see ``HierGATNetwork.forward``.)

Environment override: ``REPRO_PERF=0`` (or ``off``/``false``) turns the
caches off at import time; any other value keeps the default.

The op-level profiler is always off unless explicitly started; see
:mod:`repro.perf.profiler`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

from repro.perf.cache import (
    CacheStats,
    LRUCache,
    batch_cache,
    bump_params_version,
    cache_stats,
    clear_caches,
    entity_key,
    get_cache,
    instance_token,
    lm_cache,
    params_version,
    reset_stats,
    resize,
    token_cache,
)
from repro.perf.profiler import PROFILER, OpStats, Profiler, profile, profiler_enabled

__all__ = [
    "CacheStats", "LRUCache", "OpStats", "Profiler", "PROFILER",
    "batch_cache", "bump_params_version", "cache_enabled", "cache_stats",
    "clear_caches", "configure", "disable", "enable", "entity_key",
    "get_cache", "instance_token", "lm_cache",
    "params_version", "perf_mode",
    "profile", "profiler_enabled", "reset_stats", "resize", "token_cache",
]


@dataclasses.dataclass
class PerfConfig:
    """The active switch settings for the performance layer."""

    cache: bool = True


def _from_env() -> PerfConfig:
    raw = os.environ.get("REPRO_PERF", "").strip().lower()
    return PerfConfig(cache=raw not in ("0", "off", "false"))


_config = _from_env()


def get_config() -> PerfConfig:
    return _config


def cache_enabled() -> bool:
    return _config.cache


def configure(cache: bool = None) -> PerfConfig:
    """Update the switch; ``None`` leaves it unchanged."""
    global _config
    _config = PerfConfig(cache=_config.cache if cache is None else bool(cache))
    if not _config.cache:
        clear_caches()
    return _config


def enable() -> PerfConfig:
    """Turn the encoding caches on (the default)."""
    return configure(cache=True)


def disable() -> PerfConfig:
    """Turn the whole performance layer off (the measured baseline)."""
    return configure(cache=False)


@contextlib.contextmanager
def perf_mode(cache: bool = None):
    """Temporarily override the switch (restores the previous config)."""
    global _config
    previous = _config
    configure(cache=cache)
    try:
        yield _config
    finally:
        _config = previous
