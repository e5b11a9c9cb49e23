"""Hierarchical / regional AGT-RAM — the paper's Section 7 extension.

"As future work, we would extend the semi-distributed model to regional
autonomous, self-governed and self-repairing mechanisms ... This would
enable the system to be less vulnerable to the failures of a single
mechanism, and in turn would open the realms of devising hierarchical
games."

Design (two-level game):

* servers are partitioned into regions (by network proximity — each
  server joins the region of its nearest seed under the cost metric, or
  an explicit partition is supplied);
* each region runs its own sealed-bid AGT-RAM round with a *regional*
  central body (regional second price);
* two composition modes:

  - ``"sequential"`` — regional winners' bids are forwarded to a root
    body that approves exactly one allocation per global round.  The
    winner pays the max of its regional second price and the best
    competing regional winner's bid, which keeps the payment
    independent of its own report (truthfulness survives both levels).
  - ``"concurrent"`` — every region allocates its own winner each
    round (regional autonomy).  Rounds shrink by ~|regions| at the cost
    of intra-round staleness: regions commit without seeing each
    other's allocations until the end-of-round broadcast.

* failure resilience: regions listed in ``failed_regions`` have lost
  their regional body; their servers stop participating, but the rest
  of the system keeps allocating — the flat mechanism, by contrast,
  dies entirely with its single central body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.payments import second_best_payment
from repro.drp.cost import total_otc
from repro.drp.delta import ENGINE_NAMES, make_local_engine, resolve_engine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.result import PlacementResult
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer
from repro.utils.validation import check_nonnegative_int


def partition_by_proximity(
    instance: DRPInstance, n_regions: int, *, seed: SeedLike = None
) -> np.ndarray:
    """Partition servers into regions by cost-metric proximity.

    Farthest-point seeding (deterministic given ``seed``) followed by
    nearest-seed assignment: pick a random first seed, then repeatedly
    add the server farthest from all chosen seeds; finally each server
    joins its nearest seed's region.

    Returns an (M,) int array of region ids in [0, n_regions).
    """
    m = instance.n_servers
    if not (1 <= n_regions <= m):
        raise ConfigurationError(
            f"n_regions must be in [1, {m}], got {n_regions}"
        )
    rng = as_generator(seed)
    seeds = [int(rng.integers(m))]
    dist_to_seeds = instance.cost[:, seeds[0]].copy()
    while len(seeds) < n_regions:
        nxt = int(np.argmax(dist_to_seeds))
        seeds.append(nxt)
        dist_to_seeds = np.minimum(dist_to_seeds, instance.cost[:, nxt])
    return np.asarray(instance.cost[:, seeds].argmin(axis=1), dtype=np.int64)


@dataclass
class RegionStats:
    """Per-region accounting of a hierarchical run."""

    region: int
    servers: int
    allocations: int = 0
    payments: float = 0.0


@dataclass
class HierarchicalAGTRam:
    """Two-level regional mechanism.

    Parameters
    ----------
    n_regions:
        Number of regions when ``partition`` is not given.
    partition:
        Optional explicit (M,) region-id array (e.g. transit-stub
        domains); overrides ``n_regions``.
    mode:
        ``"sequential"`` or ``"concurrent"`` (see module docstring).
    regional_game:
        ``"non-cooperative"`` — agents keep the private Eq. 5 CoR (the
        paper's base model); ``"cooperative"`` — §7's other option: the
        agents of a region pool their books, so bids price the whole
        region's read rerouting
        (:class:`~repro.drp.global_engine.RegionalBenefitEngine`).
    failed_regions:
        Regions whose mechanism is down; their servers abstain.
    seed:
        Seed for the proximity partition.
    engine:
        Benefit-engine selector for the non-cooperative regional games:
        ``"auto"`` (vectorized when numpy allows, the default),
        ``"naive"``, or ``"vectorized"`` — the same passthrough as the
        flat mechanism (:mod:`repro.drp.delta`); the two engines are
        bit-for-bit identical at the regional level.  The cooperative
        game prices regional coalitions through
        :class:`~repro.drp.global_engine.RegionalBenefitEngine`, which
        has no vectorized implementation: requesting
        ``engine="vectorized"`` with ``regional_game="cooperative"``
        is a configuration error.
    """

    n_regions: int = 4
    partition: Optional[np.ndarray] = None
    mode: str = "concurrent"
    regional_game: str = "non-cooperative"
    failed_regions: Sequence[int] = field(default_factory=tuple)
    seed: SeedLike = None
    max_rounds: Optional[int] = None
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in ("sequential", "concurrent"):
            raise ConfigurationError(
                f"mode must be 'sequential' or 'concurrent', got {self.mode!r}"
            )
        if self.regional_game not in ("non-cooperative", "cooperative"):
            raise ConfigurationError(
                "regional_game must be 'non-cooperative' or 'cooperative', "
                f"got {self.regional_game!r}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"engine must be one of {ENGINE_NAMES}, got {self.engine!r}"
            )
        if self.regional_game == "cooperative" and self.engine == "vectorized":
            raise ConfigurationError(
                "the cooperative regional game has no vectorized engine; "
                "use engine='auto' or 'naive'"
            )
        if self.max_rounds is not None:
            self.max_rounds = check_nonnegative_int(self.max_rounds, "max_rounds")

    # -- helpers -----------------------------------------------------------

    def _regions(self, instance: DRPInstance) -> np.ndarray:
        if self.partition is not None:
            part = np.asarray(self.partition, dtype=np.int64)
            if part.shape != (instance.n_servers,):
                raise ConfigurationError(
                    f"partition must have shape ({instance.n_servers},), "
                    f"got {part.shape}"
                )
            if part.min() < 0:
                raise ConfigurationError("region ids must be non-negative")
            return part
        return partition_by_proximity(instance, self.n_regions, seed=self.seed)

    # -- run ----------------------------------------------------------------

    def run(self, instance: DRPInstance) -> PlacementResult:
        timer = Timer()
        part = self._regions(instance)
        region_ids = sorted(set(int(r) for r in part))
        failed = set(int(r) for r in self.failed_regions)
        stats = {
            r: RegionStats(region=r, servers=int((part == r).sum()))
            for r in region_ids
        }
        payments = np.zeros(instance.n_servers)

        label = (
            f"H-AGT-RAM({self.mode})"
            if self.regional_game == "non-cooperative"
            else f"H-AGT-RAM({self.mode},coop)"
        )
        sink = ev.current()
        eventing = sink.enabled

        with timer:
            state = ReplicationState.primaries_only(instance)
            if self.regional_game == "cooperative":
                from repro.drp.global_engine import RegionalBenefitEngine

                engine = RegionalBenefitEngine(instance, state, part)
                engine_name = "naive"
            else:
                engine_name = resolve_engine(self.engine)
                engine = make_local_engine(engine_name, instance, state)
            live_regions = [r for r in region_ids if r not in failed]
            region_masks = {r: np.flatnonzero(part == r) for r in live_regions}

            if eventing:
                sink.emit(ev.RunStart(t=ev.now(), algorithm=label))
                state.begin_otc_tracking()

            rounds = 0
            cap = (
                self.max_rounds
                if self.max_rounds is not None
                else instance.n_servers * instance.n_objects
            )
            while rounds < cap:
                vals, objs = engine.best_per_server()
                # Regional sealed-bid rounds.
                regional: list[tuple[int, int, int, float, float]] = []
                for r in live_regions:
                    rows = region_masks[r]
                    rvals = vals[rows]
                    if not np.isfinite(rvals).any():
                        continue
                    local_idx = int(np.argmax(rvals))
                    winner = int(rows[local_idx])
                    bid = float(rvals[local_idx])
                    if bid <= 0.0:
                        continue
                    regional_price = second_best_payment(rvals, local_idx)
                    regional.append(
                        (r, winner, int(objs[winner]), bid, regional_price)
                    )
                if not regional:
                    break

                if self.mode == "sequential":
                    # Root picks one regional winner per global round.
                    best_idx = int(np.argmax([b for *_, b, _ in regional]))
                    r, winner, obj, bid, regional_price = regional[best_idx]
                    forwarded = [b for *_, b, _ in regional]
                    root_price = second_best_payment(forwarded, best_idx)
                    # max(regional second, best competing regional
                    # winner) == the global second price, so the flat
                    # audit verifies sequential rounds unchanged.
                    price = max(regional_price, root_price)
                    if eventing:
                        sink.emit(ev.RoundStart(t=ev.now(), round=rounds))
                        self._emit_bids(
                            sink, rounds, live_regions, region_masks,
                            part, vals, objs,
                        )
                        sink.emit(
                            ev.WinnerEvent(
                                t=ev.now(), round=rounds, agent=winner,
                                obj=obj, value=bid,
                                obj_size=int(instance.sizes[obj]),
                                residual_before=int(state.residual[winner]),
                                region=r,
                            )
                        )
                    state.add_replica(winner, obj)
                    engine.notify_allocation(winner, obj)
                    payments[winner] += price
                    stats[r].allocations += 1
                    stats[r].payments += price
                    if eventing:
                        sink.emit(
                            ev.PaymentEvent(
                                t=ev.now(), round=rounds, agent=winner,
                                amount=price, region=r,
                            )
                        )
                        sink.emit(
                            ev.RoundEnd(
                                t=ev.now(), round=rounds, committed=1,
                                otc=state.tracked_otc(),
                            )
                        )
                else:
                    # Concurrent: every region commits its winner; NN
                    # updates propagate only after all regions commit,
                    # so a round's bids are mutually stale (the price of
                    # autonomy).  Conflicts are impossible — winners are
                    # distinct servers — but capacity is re-checked
                    # against the live state.  Each region's sub-round
                    # is a self-contained region-tagged round in the
                    # event stream, so both the flat audit and the
                    # per-shard audit verify it independently.
                    committed: list[tuple[int, int]] = []
                    for r, winner, obj, bid, regional_price in regional:
                        if eventing:
                            sink.emit(
                                ev.RoundStart(
                                    t=ev.now(), round=rounds, region=r
                                )
                            )
                            self._emit_bids(
                                sink, rounds, [r], region_masks,
                                part, vals, objs,
                            )
                        if not state.can_host(winner, obj):
                            if eventing:
                                reason = (
                                    "duplicate"
                                    if state.x[winner, obj]
                                    else "capacity"
                                )
                                sink.emit(
                                    ev.CapacityReject(
                                        t=ev.now(), round=rounds,
                                        agent=winner, obj=obj,
                                        obj_size=int(instance.sizes[obj]),
                                        residual=int(state.residual[winner]),
                                        reason=reason, region=r,
                                    )
                                )
                                sink.emit(
                                    ev.RoundEnd(
                                        t=ev.now(), round=rounds,
                                        committed=0,
                                        otc=state.tracked_otc(),
                                        region=r,
                                    )
                                )
                            continue
                        if eventing:
                            sink.emit(
                                ev.WinnerEvent(
                                    t=ev.now(), round=rounds, agent=winner,
                                    obj=obj, value=bid,
                                    obj_size=int(instance.sizes[obj]),
                                    residual_before=int(
                                        state.residual[winner]
                                    ),
                                    region=r,
                                )
                            )
                        state.add_replica(winner, obj)
                        committed.append((winner, obj))
                        payments[winner] += regional_price
                        stats[r].allocations += 1
                        stats[r].payments += regional_price
                        if eventing:
                            sink.emit(
                                ev.PaymentEvent(
                                    t=ev.now(), round=rounds, agent=winner,
                                    amount=regional_price, region=r,
                                )
                            )
                            sink.emit(
                                ev.RoundEnd(
                                    t=ev.now(), round=rounds, committed=1,
                                    otc=state.tracked_otc(), region=r,
                                )
                            )
                    if not committed:
                        break
                    for winner, obj in committed:
                        engine.refresh_object(obj)
                        engine.refresh_server(winner)
                rounds += 1

            if eventing:
                sink.emit(
                    ev.RunEnd(
                        t=ev.now(), algorithm=label,
                        otc=state.tracked_otc(), rounds=rounds,
                    )
                )

        return PlacementResult(
            algorithm=label,
            state=state,
            otc=total_otc(state),
            runtime_s=timer.elapsed,
            rounds=rounds,
            extra={
                "payments": payments,
                "partition": part,
                "region_stats": stats,
                "failed_regions": sorted(failed),
                "mode": self.mode,
                "engine": engine_name,
            },
        )

    @staticmethod
    def _emit_bids(
        sink: "ev.EventSink",
        rnd: int,
        regions: Sequence[int],
        region_masks: dict[int, np.ndarray],
        part: np.ndarray,
        vals: np.ndarray,
        objs: np.ndarray,
    ) -> None:
        """Emit every finite regional bid, tagged with its region."""
        for r in regions:
            for server in region_masks[r]:
                value = float(vals[server])
                if not np.isfinite(value):
                    continue
                sink.emit(
                    ev.BidEvent(
                        t=ev.now(), round=rnd, agent=int(server),
                        obj=int(objs[server]), value=value,
                        region=int(r),
                    )
                )
