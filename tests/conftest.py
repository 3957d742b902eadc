"""Shared fixtures for the test suite.

Fixtures favour small, fast workloads; the paper-scale reproduction
checks live in ``tests/analysis/test_experiments.py`` and use reduced
chunk budgets so the whole suite stays quick.
"""

from __future__ import annotations

import pytest

from repro.backends import set_default_backend
from repro.backends.batch import clear_decode_cache
from repro.controller.interconnect import InterconnectModel
from repro.core.config import SystemConfig
from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR, next_gen_mobile_ddr
from repro.load.frames import clear_frame_memo
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        default=None,
        metavar="NAME",
        help=(
            "Run the suite with NAME as the default simulation backend "
            "(reference, fast, analytic, batch, or any registered name). "
            "Every "
            "SystemConfig built without an explicit backend= picks it up; "
            "the CI backend matrix drives the smoke subset through this."
        ),
    )


def pytest_configure(config):
    backend = config.getoption("--backend")
    if backend:
        set_default_backend(backend)


@pytest.fixture(autouse=True)
def cold_process_memos():
    """Start every test with an empty frame memo and decode cache.

    Both are process-wide, so without this a test that counts phases,
    memo hits or decode misses would depend on which tests ran before
    it in the same process.
    """
    clear_frame_memo()
    clear_decode_cache()


@pytest.fixture
def device():
    """The calibrated next-generation mobile DDR descriptor."""
    return NEXT_GEN_MOBILE_DDR


@pytest.fixture
def fresh_device():
    """A newly built descriptor (for mutation-free comparisons)."""
    return next_gen_mobile_ddr()


@pytest.fixture
def ideal_interconnect():
    """Zero-overhead interconnect: exposes pure DRAM timing."""
    return InterconnectModel(address_cycles_per_access=0.0)


@pytest.fixture
def config_1ch():
    """Single channel at the paper's 400 MHz design point."""
    return SystemConfig(channels=1, freq_mhz=400.0)


@pytest.fixture
def config_4ch():
    """Four channels at 400 MHz (the paper's 1080p30 answer)."""
    return SystemConfig(channels=4, freq_mhz=400.0)


@pytest.fixture
def level_720p30():
    """H.264 level 3.1: 720p at 30 fps."""
    return level_by_name("3.1")


@pytest.fixture
def level_1080p30():
    """H.264 level 4: 1080p at 30 fps."""
    return level_by_name("4")


@pytest.fixture
def use_case_720p30(level_720p30):
    """The full recording use case at 720p30."""
    return VideoRecordingUseCase(level_720p30)
