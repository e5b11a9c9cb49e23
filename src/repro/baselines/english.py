"""The English (ascending-price) auction comparator.

One English auction is run per replica sale: the clock opens at a small
reserve and rises by a fixed increment; agents stay in while their best
local valuation meets the clock.  When at most one agent remains, the
last survivor wins at the final clock price (random tie-break when
several drop simultaneously).  The process repeats until an auction
attracts no bidder above the reserve.

The coarse additive increment makes the English auction the weakest of
the price-discovery trio: every sale burns several clock ticks (slow),
the winner within the last increment is decided by tie-break (possible
mis-allocation), and any placement worth less than one increment above
the reserve never sells — missing more of the benefit tail than the
Dutch clock's multiplicative grid.  This reproduces the paper's "Low
performance" classification for EA.
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
from repro.utils.validation import check_nonnegative_int


class EnglishAuctionPlacer(ReplicaPlacer):
    """Ascending-clock auction replica placement.

    Parameters
    ----------
    increment_fraction:
        Clock increment as a fraction of the opening maximum valuation.
    reserve_fraction:
        Reserve price as a fraction of the opening maximum valuation;
        sales below the reserve never happen.
    max_sales:
        Safety cap on the number of auctions, an integer >= 0.
    """

    name = "EA"

    def __init__(
        self,
        *,
        increment_fraction: float = 0.02,
        reserve_fraction: float = 0.005,
        max_sales: int | None = None,
        seed: SeedLike = None,
    ):
        if not (0.0 < increment_fraction < 1.0):
            raise ValueError(
                f"increment_fraction must be in (0, 1), got {increment_fraction}"
            )
        if not (0.0 <= reserve_fraction < 1.0):
            raise ValueError(
                f"reserve_fraction must be in [0, 1), got {reserve_fraction}"
            )
        if max_sales is not None:
            max_sales = check_nonnegative_int(max_sales, "max_sales")
        self.increment_fraction = increment_fraction
        self.reserve_fraction = reserve_fraction
        self.max_sales = max_sales
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
            increment = self.increment_fraction * opening
            reserve = self.reserve_fraction * opening
            cap = (
                self.max_sales
                if self.max_sales is not None
                else instance.n_servers * instance.n_objects
            )

            while ctx.sales < cap:
                vals, objs = ctx.best_values()
                active = np.flatnonzero(np.isfinite(vals) & (vals > reserve))
                if len(active) == 0:
                    break
                price = reserve
                # Ascending clock: raise until at most one bidder stays.
                # If everyone drops in the same tick, the tie is broken
                # randomly among the bidders active at the previous level.
                while True:
                    ctx.ticks += 1
                    staying = active[vals[active] >= price + increment]
                    if len(staying) == 0:
                        break
                    active = staying
                    price += increment
                    if len(staying) == 1:
                        break
                winner = int(rng.choice(active))
                obj = int(objs[winner])
                ctx.sell(winner, obj, price)

        return PlacementResult(
            algorithm=self.name,
            state=ctx.state,
            otc=total_otc(ctx.state),
            runtime_s=timer.elapsed,
            rounds=ctx.ticks,
            extra={"payments": ctx.payments, "sales": ctx.sales},
        )
