"""Empirical truthfulness / dominant-strategy verification.

Lemma 1 and Theorem 5 claim truth-telling is a dominant strategy under
the second-price payment.  This module measures it:

* :func:`one_shot_utilities` — the exact single-round game, where
  second-price dominance is an if-and-only-if: the deviator's utility can
  never exceed the truthful one.
* :func:`full_run_utilities` — the repeated game over a complete
  mechanism execution.  Dominance is proved per round; across rounds a
  deviation changes the game trajectory, so the comparison is empirical
  (and, with the paper's payment, deviations remain unprofitable in
  practice).
* :func:`truthfulness_gap` — aggregate statistic over sampled agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.agt_ram import AGTRam
from repro.core.payments import PAYMENT_RULES
from repro.core.strategies import Strategy
from repro.drp.delta import DeltaBenefitEngine, make_local_engine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class UtilityComparison:
    """Utilities of one agent playing truthfully vs deviating."""

    agent: int
    truthful: float
    deviating: float

    @property
    def gain_from_deviation(self) -> float:
        return self.deviating - self.truthful


def _play_one_round(
    engine: DeltaBenefitEngine,
    agent: int,
    strategy: Strategy | None,
    payment_rule: str,
) -> float:
    """Play a single mechanism round; return ``agent``'s utility.

    All other agents are truthful.  ``strategy=None`` makes ``agent``
    truthful too.
    """
    pay = PAYMENT_RULES[payment_rule]
    true_vals, true_objs = engine.best_per_server()
    reported = true_vals.copy()
    objs = true_objs.copy()
    if strategy is not None:
        row = strategy.report(engine.row(agent))
        if np.isfinite(row).any():
            obj = int(np.argmax(row))
            objs[agent] = obj
            reported[agent] = row[obj]
        else:
            reported[agent] = -np.inf
    winner = int(np.argmax(reported))
    if not np.isfinite(reported[winner]) or reported[winner] <= 0.0:
        return 0.0
    if winner != agent:
        return 0.0
    payment = pay(reported, winner)
    true_value = engine.value_at(agent, int(objs[agent]))
    return true_value - payment


def one_shot_utilities(
    instance: DRPInstance,
    agent: int,
    strategy: Strategy,
    *,
    payment_rule: str = "second_price",
) -> UtilityComparison:
    """Single-round utilities of ``agent``: truthful vs ``strategy``.

    Under the second-price rule ``deviating <= truthful`` always holds
    (exact dominance); under first price the inequality can reverse.
    """
    state = ReplicationState.primaries_only(instance)
    engine = make_local_engine(instance, state)
    truthful = _play_one_round(engine, agent, None, payment_rule)
    deviating = _play_one_round(engine, agent, strategy, payment_rule)
    return UtilityComparison(agent=agent, truthful=truthful, deviating=deviating)


def full_run_utilities(
    instance: DRPInstance,
    agent: int,
    strategy: Strategy,
    *,
    payment_rule: str = "second_price",
) -> UtilityComparison:
    """Cumulative utilities of ``agent`` across two complete runs."""
    base = AGTRam(payment_rule=payment_rule).run(instance)
    dev = AGTRam(payment_rule=payment_rule, strategies={agent: strategy}).run(instance)
    return UtilityComparison(
        agent=agent,
        truthful=float(base.extra["utilities"][agent]),
        deviating=float(dev.extra["utilities"][agent]),
    )


def truthfulness_gap(
    instance: DRPInstance,
    strategy_factory,
    *,
    n_agents: int = 8,
    payment_rule: str = "second_price",
    one_shot: bool = True,
    seed: SeedLike = None,
) -> list[UtilityComparison]:
    """Sample agents and compare truthful vs deviating utilities.

    Parameters
    ----------
    strategy_factory:
        Zero-argument callable producing a fresh :class:`Strategy` per
        sampled agent (fresh RNG state for random projections).
    one_shot:
        Use the exact single-round game (default) or full-run utilities.
    """
    rng = as_generator(seed)
    m = instance.n_servers
    agents = rng.choice(m, size=min(n_agents, m), replace=False)
    fn = one_shot_utilities if one_shot else full_run_utilities
    return [
        fn(instance, int(a), strategy_factory(), payment_rule=payment_rule)
        for a in agents
    ]
