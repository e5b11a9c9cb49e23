"""Shared fixtures: deterministic instances at several scales."""

from __future__ import annotations

import numpy as np
import pytest

from repro.drp.instance import DRPInstance
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.runtime.faults import FaultPlan, FaultSchedule


@pytest.fixture(scope="session")
def tiny_instance() -> DRPInstance:
    """16 servers x 60 objects, deterministic; fast enough for any test."""
    return paper_instance(
        ExperimentConfig(
            n_servers=16, n_objects=60, total_requests=8_000, seed=101, name="tiny"
        )
    )


@pytest.fixture(scope="session")
def read_heavy_instance() -> DRPInstance:
    """A 95%-read instance with generous capacity — the paper's headline
    regime, where every algorithm has plenty of profitable moves."""
    return paper_instance(
        ExperimentConfig(
            n_servers=20,
            n_objects=80,
            total_requests=15_000,
            rw_ratio=0.95,
            capacity_fraction=0.45,
            seed=7,
            name="read-heavy",
        )
    )


@pytest.fixture(scope="session")
def write_heavy_instance() -> DRPInstance:
    """A 25%-read instance: replication is rarely worthwhile."""
    return paper_instance(
        ExperimentConfig(
            n_servers=16,
            n_objects=60,
            total_requests=10_000,
            rw_ratio=0.25,
            seed=13,
            name="write-heavy",
        )
    )


@pytest.fixture(scope="session")
def region_down():
    """``region_down(instance, partition, *regions)`` builds the
    :class:`FaultPlan` that loses those regional bodies: every agent of
    the listed regions is down for the whole run (the default ``M * N``
    round cap), with checkpointing off."""

    def plan(instance: DRPInstance, partition: np.ndarray, *regions: int):
        horizon = instance.n_servers * instance.n_objects
        down = np.flatnonzero(np.isin(partition, regions))
        return FaultPlan(
            schedule=FaultSchedule(
                agent_crashes={int(a): ((0, horizon),) for a in down}
            ),
            checkpoint_period=0,
        )

    return plan


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260706)


def manual_instance(
    *,
    cost: np.ndarray,
    reads: np.ndarray,
    writes: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    primaries: np.ndarray,
) -> DRPInstance:
    """Helper for hand-built instances in unit tests."""
    return DRPInstance(
        cost=cost,
        reads=reads,
        writes=writes,
        sizes=sizes,
        capacities=capacities,
        primaries=primaries,
        name="manual",
    )


@pytest.fixture(scope="session")
def line_instance() -> DRPInstance:
    """Three servers on a line 0-1-2 (unit edges), two objects.

    Hand-checkable: object 0 primary at server 0, object 1 primary at
    server 2; every server has room for one extra unit-size object.
    """
    cost = np.array(
        [
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 1.0],
            [2.0, 1.0, 0.0],
        ]
    )
    reads = np.array([[0, 4], [2, 2], [6, 0]])
    writes = np.array([[1, 0], [0, 1], [0, 1]])
    return manual_instance(
        cost=cost,
        reads=reads,
        writes=writes,
        sizes=np.array([1, 1]),
        capacities=np.array([3, 2, 3]),
        primaries=np.array([0, 2]),
    )
