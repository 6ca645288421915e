"""Shared fixtures for the MP-STREAM reproduction test suite."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.core import TuningParameters
from repro.obs import metrics as obs_metrics
from repro.ocl.platform import find_device
from repro.units import KIB


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked @pytest.mark.slow",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def cpu_device():
    return find_device("cpu")


@pytest.fixture(scope="session")
def gpu_device():
    return find_device("gpu")


@pytest.fixture(scope="session")
def aocl_device():
    return find_device("aocl")


@pytest.fixture(scope="session")
def sdaccel_device():
    return find_device("sdaccel")


@pytest.fixture(params=["aocl", "sdaccel", "cpu", "gpu"])
def any_device(request):
    """Parametrized over all four paper targets."""
    return find_device(request.param)


@pytest.fixture
def small_params() -> TuningParameters:
    """A parameter point small enough for fast functional execution."""
    return TuningParameters(array_bytes=64 * KIB)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2018)


@pytest.fixture
def counters():
    """Activate a fresh metrics registry for the test.

    The fixture's value returns the registry's counters so far, 0 for a
    name never counted.
    """
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry):
        yield lambda: defaultdict(int, registry.snapshot()["counters"])
