"""Shared fixtures for the benchmark suite."""

import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.prover import ProverConfig
from repro.verify import SoundnessChecker
from repro.cobalt.engine import CobaltEngine
from repro.cobalt.labels import standard_registry


@pytest.fixture(scope="session")
def checker():
    return SoundnessChecker(config=ProverConfig(timeout_s=120))


@pytest.fixture(scope="session")
def engine():
    return CobaltEngine(standard_registry())
