"""The Dutch (descending-price) auction comparator.

The auctioneer opens the clock at the highest plausible valuation and
lowers it multiplicatively.  At each price level every agent whose best
local valuation meets the price raises its hand; the auctioneer serves
hand-raisers one at a time in random order ("first to accept wins"),
re-checking each claim against the live price because earlier sales in
the same level may have changed an agent's valuations.  When a level
clears with no claims the clock drops; the auction ends at the price
floor.

Two quality leaks relative to AGT-RAM, both inherent to the format:
the random service order within a price level can allocate an object to
a lower-valuation claimant than the best one, and the floor (plus the
multiplicative grid) leaves small-benefit placements unallocated.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.auctions import AuctionContext
from repro.baselines.base import ReplicaPlacer
from repro.drp.cost import total_otc
from repro.drp.instance import DRPInstance
from repro.result import PlacementResult
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer


class DutchAuctionPlacer(ReplicaPlacer):
    """Descending-clock auction replica placement.

    Parameters
    ----------
    decrement:
        Fractional price drop per empty level (clock multiplier 1 - d).
    floor_fraction:
        The auction stops when the clock falls below
        ``floor_fraction * opening_price``.
    """

    name = "DA"

    def __init__(
        self,
        *,
        decrement: float = 0.10,
        floor_fraction: float = 0.001,
        seed: SeedLike = None,
    ):
        if not (0.0 < decrement < 1.0):
            raise ValueError(f"decrement must be in (0, 1), got {decrement}")
        if not (0.0 < floor_fraction < 1.0):
            raise ValueError(
                f"floor_fraction must be in (0, 1), got {floor_fraction}"
            )
        self.decrement = decrement
        self.floor_fraction = floor_fraction
        self.seed = seed

    def _place(self, instance: DRPInstance) -> PlacementResult:
        rng = as_generator(self.seed)
        timer = Timer()
        with timer:
            ctx = AuctionContext.fresh(instance)
            opening = ctx.max_value()
            if not np.isfinite(opening) or opening <= 0.0:
                return PlacementResult(
                    algorithm=self.name,
                    state=ctx.state,
                    otc=total_otc(ctx.state),
                    runtime_s=timer.elapsed,
                    rounds=0,
                    extra={"payments": ctx.payments},
                )
            price = opening
            floor = self.floor_fraction * opening

            while price >= floor:
                ctx.ticks += 1
                vals, objs = ctx.best_values()
                claimants = np.flatnonzero(np.isfinite(vals) & (vals >= price))
                if len(claimants) == 0:
                    price *= 1.0 - self.decrement
                    continue
                rng.shuffle(claimants)
                for agent in claimants:
                    # Re-check: earlier sales this level may have changed
                    # this agent's valuations or capacity.
                    row = ctx.engine.row(agent)
                    obj = int(np.argmax(row))
                    if np.isfinite(row[obj]) and row[obj] >= price:
                        ctx.sell(int(agent), obj, price)
                # Stay at this level; the next loop iteration collects any
                # remaining claims before the clock drops.
                vals, _ = ctx.best_values()
                if not np.any(np.isfinite(vals) & (vals >= price)):
                    price *= 1.0 - self.decrement

        return PlacementResult(
            algorithm=self.name,
            state=ctx.state,
            otc=total_otc(ctx.state),
            runtime_s=timer.elapsed,
            rounds=ctx.ticks,
            extra={"payments": ctx.payments, "sales": ctx.sales},
        )
