"""Shared fixtures."""

from __future__ import annotations

import pytest

from repro.sim import Environment
from repro.hardware import NEMO_POWER, PENTIUM_M_TABLE, nemo_cluster


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def event_engine_runs(monkeypatch) -> list:
    """Every ``Environment.run`` call from here on (one per event-engine
    simulation), so a test can tell which tier served its points."""
    calls: list = []
    real = Environment.run

    def spy(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Environment, "run", spy)
    return calls


@pytest.fixture
def cluster(env):
    """A 4-node NEMO-like cluster without batteries (fast)."""
    return nemo_cluster(env, 4, with_batteries=False)


@pytest.fixture
def cluster16(env):
    """The full 16-node NEMO testbed, with batteries."""
    return nemo_cluster(env, 16, with_batteries=True, seed=7)


@pytest.fixture
def node(cluster):
    return cluster[0]


@pytest.fixture
def cpu(node):
    return node.cpu


def approx_rel(value, expected, rel=0.05):
    """True when value is within ``rel`` of expected."""
    return abs(value - expected) <= rel * abs(expected)
