"""Shared test fixtures: every test runs at the tiny CI scale.

Test tiers (see docs/TESTING.md):
    fast (default)  everything not marked ``slow``; ``make ci`` runs
                    ``-m "not slow"`` and must finish in well under 120 s.
    slow            multi-minute integration paths (LM pre-training from
                    scratch, golden end-to-end pipeline); run by ``make test``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Scale, set_scale


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running integration test, excluded from `make ci` "
        "(-m 'not slow')")


@pytest.fixture(autouse=True)
def ci_scale():
    """Force the tiny CI scale for all tests (seconds, not minutes)."""
    set_scale(Scale.ci())
    yield
    set_scale(Scale())


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def f64():
    """Switch the default dtype to float64 for gradient checks.

    Function-scoped: the default dtype is process-global, so the teardown
    must restore it after each test, or every later module would run in
    float64 instead of the documented float32.
    """
    from repro.autograd import get_default_dtype, set_default_dtype

    previous = get_default_dtype()
    set_default_dtype(np.float64)
    yield
    set_default_dtype(previous)


def camera_arrivals(records: int = 2000, block: int = 8):
    """DI2KG camera records from 24 sources in the resolve-stream
    benchmark's arrival order: ``seq`` is a record's stream position and
    arrivals are shuffled within consecutive blocks of ``block``.
    Returns ``[(seq, record), ...]`` in arrival order."""
    from repro.data.di2kg import di2kg_spec
    from repro.data.generators import generate_source_tables

    sources = tuple(f"site{i:02d}" for i in range(24))
    tables, _ = generate_source_tables(di2kg_spec("camera"), 300, seed=7,
                                       sources=sources, overlap=0.3)
    pool = [record for source in sorted(tables) for record in tables[source]]
    pool = pool[:records]
    rng = np.random.default_rng(7)
    arrivals = []
    for start in range(0, len(pool), block):
        indices = np.arange(start, min(start + block, len(pool)))
        rng.shuffle(indices)
        arrivals.extend((int(i), pool[int(i)]) for i in indices)
    return arrivals


def released_bursts(arrivals, capacity: int = 32):
    """The record groups a ``ReorderBuffer(capacity)`` releases at once
    when fed ``arrivals``, then its drain."""
    from repro.resolve import ReorderBuffer

    buffer = ReorderBuffer(capacity)
    for seq, record in arrivals:
        released = buffer.offer(seq, record)
        if released:
            yield [arrival.record for arrival in released]
    tail = buffer.drain()
    if tail:
        yield [arrival.record for arrival in tail]


@pytest.fixture(scope="session")
def camera_stream():
    """:func:`camera_arrivals` at its defaults, built once per session."""
    return camera_arrivals()


@pytest.fixture(scope="session")
def camera_bursts(camera_stream):
    """:func:`released_bursts` of :func:`camera_stream`."""
    return list(released_bursts(camera_stream))
