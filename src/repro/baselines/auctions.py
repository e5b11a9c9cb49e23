"""Shared machinery for the Dutch and English auction comparators [15].

Both auctions sell replication rights: in every sale the winning agent
gets to place its preferred object on its server at the clock price.
Agents value objects with the same private Eq. 5 CoR that AGT-RAM uses;
what differs is *price discovery* — a descending clock (Dutch) or an
ascending clock (English) with finite tick granularity, instead of
AGT-RAM's sealed-bid second-price round.  The granularity is exactly why
the auctions lose solution quality: allocations whose benefit falls
between clock ticks are missed or mis-assigned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.drp.delta import DeltaBenefitEngine, make_local_engine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState


@dataclass
class AuctionContext:
    """Mutable bundle shared by one auction run."""

    instance: DRPInstance
    state: ReplicationState
    engine: DeltaBenefitEngine
    payments: np.ndarray
    sales: int = 0
    ticks: int = 0

    @classmethod
    def fresh(cls, instance: DRPInstance) -> "AuctionContext":
        state = ReplicationState.primaries_only(instance)
        return cls(
            instance=instance,
            state=state,
            engine=make_local_engine(instance, state),
            payments=np.zeros(instance.n_servers),
        )

    def best_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Each agent's best local valuation and the object realizing it."""
        return self.engine.best_per_server()

    def max_value(self) -> float:
        vals, _ = self.best_values()
        finite = vals[np.isfinite(vals)]
        return float(finite.max()) if len(finite) else -np.inf

    def sell(self, agent: int, obj: int, price: float) -> None:
        """Allocate ``obj`` on ``agent``'s server at ``price``."""
        self.state.add_replica(agent, obj)
        self.engine.notify_allocation(agent, obj)
        self.payments[agent] += price
        self.sales += 1
