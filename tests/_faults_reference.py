"""Reference fault plan: one scalar uniform per (agent, round) cell.

This is ``FaultSchedule.random`` in its straightforward form, a
crash-start draw per up-round in a Python loop.  The production method
draws the uniforms in blocks and rewinds at a crash;
``tests/test_runtime_faults.py`` requires it to return the same plan and
to leave the generator where this loop leaves it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.faults import FaultSchedule
from repro.utils.rng import SeedLike, as_generator


def random_schedule(
    *,
    n_agents: int,
    horizon: int,
    seed: SeedLike = 0,
    crash_rate: float = 0.0,
    mean_outage: float = 3.0,
    straggler_rate: float = 0.0,
    central_crash_rate: float = 0.0,
    central_crashes: Sequence[int] = (),
) -> FaultSchedule:
    """Sample a stochastic schedule, reproducible from ``seed``."""
    if n_agents < 1 or horizon < 0:
        raise ConfigurationError("need n_agents >= 1 and horizon >= 0")
    for name, p in (
        ("crash_rate", crash_rate),
        ("straggler_rate", straggler_rate),
        ("central_crash_rate", central_crash_rate),
    ):
        if not (0.0 <= p < 1.0):
            raise ConfigurationError(f"{name} must be in [0, 1); got {p}")
    if mean_outage < 1.0:
        raise ConfigurationError("mean_outage must be >= 1 round")
    rng = as_generator(seed)
    crashes: dict[int, list[tuple[int, int]]] = {}
    for agent in range(n_agents):
        rnd = 0
        while rnd < horizon:
            if rng.random() < crash_rate:
                length = 1 + int(rng.geometric(1.0 / mean_outage))
                crashes.setdefault(agent, []).append((rnd, rnd + length))
                rnd += length
            rnd += 1
    # Agent-major: cell ``agent * horizon + rnd``.
    hit = np.flatnonzero(rng.random(n_agents * horizon) < straggler_rate)
    late_agents, late_rounds = np.divmod(hit, max(horizon, 1))
    stragglers = set(zip(late_rounds.tolist(), late_agents.tolist()))
    central = set(int(r) for r in central_crashes)
    central.update(
        np.flatnonzero(rng.random(horizon) < central_crash_rate).tolist()
    )
    return FaultSchedule(
        agent_crashes={a: tuple(iv) for a, iv in crashes.items()},
        central_crashes=frozenset(central),
        stragglers=frozenset(stragglers),
    )
