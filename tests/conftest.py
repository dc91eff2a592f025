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
