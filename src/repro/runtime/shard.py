"""Regional AGT-RAM: the paper's §7 mechanism, partition tolerant.

§7 proposes "regional autonomous, self-governed and self-repairing
mechanisms" that leave the system "less vulnerable to the failures of
a single mechanism".  :class:`ShardedAGTRam` is the library's one
regional mechanism: it shards the central body into regional
sub-centrals and survives the failures the single central already
tolerates (crash/election/checkpoint from :mod:`repro.runtime.faults`,
Byzantine bids from :mod:`repro.runtime.adversary`) **plus** the
failure only a sharded deployment can have: a network partition
between the regional centrals.

Model
-----

* Servers join regions by cost-metric proximity
  (:func:`partition_by_proximity`) or by an explicit region-id array
  (e.g. transit-stub domains).
* Regions clear **concurrently** on a shared replication state: one
  sealed-bid round per region per global round, each winner paying its
  regional second price.  NN updates propagate after every region has
  committed, so a round's bids are mutually stale — the price of
  autonomy, paid for with ~``k`` times fewer global rounds.  One region
  is the flat mechanism bit for bit.
* ``valuation="local"`` keeps the paper's private Eq. 5 CoR on the
  production delta engine; ``"regional"`` is §7's cooperative game,
  where a region's agents pool their books
  (:class:`~repro.drp.global_engine.RegionalBenefitEngine`).
* A lost regional body is a :class:`FaultPlan` that takes every agent
  of the region down for the whole run: the region abstains while the
  others keep allocating.
* A seeded :class:`PartitionSchedule` declares half-open round windows
  ``[start, end)`` during which the regional centrals are split into
  *islands*.  At a window start every island forks the replication
  state; while split, each island keeps clearing locally on its fork
  (regional autonomy — the paper's motivation for sharding in the
  first place).
* Regional-central **crashes** (scheduled per ``(round, region)``)
  stall that region for the round: the region's live agents elect a
  stand-in (lowest live id, mirroring the flat simulator), the
  stand-in restores the region's :class:`CheckpointStore` snapshot and
  re-learns newer commits from agent state-sync reports.
* At the window end the islands **heal**.  Divergence is resolved by a
  deterministic reconciliation protocol (:func:`reconcile_divergence`):
  an object committed by two or more islands during the window is
  *contested*; per contested object the single best commit survives
  (highest reported benefit, ties to the lowest server id) and every
  other commit is revoked — its capacity refunded, its payment clawed
  back, the object re-auctioned by the healed market.  The merged
  placement is therefore capacity-feasible with zero double-allocated
  ``(object, server)`` pairs, and every divergence is declared in a
  typed :class:`~repro.obs.events.ReconcileEvent` so
  :func:`repro.obs.audit.audit_sharded_events` can re-verify the merge
  from the log alone.

Message accounting
------------------

Regional centrals are addressed as ``-(region + 1)`` (the flat central
body is ``-1`` == region 0's central, keeping the convention).  Per
committing regional round: one :class:`BidMessage` per delivered bid,
one :class:`AllocateMessage` per agent *of that region* (the regional
OMAX broadcast), one :class:`PaymentMessage` to the winner.  Commits
gossip between an island's centrals as :class:`StateSyncMessage`\\ s,
and each island batches one :class:`NNResyncMessage` per agent per
committing round.

The traffic saving over the flat protocol (≈ ``3M + 1`` messages per
commit, ``M`` agents) comes from **regional quiescence**: a region
whose best marginal benefit is non-positive stands down — its agents
send no bids and its central defers per-agent NN digests until the
region re-enters the game.  This is sound because replica *additions*
only lower marginal benefits (a new replica elsewhere can only shorten
nearest-neighbour distances), so a quiescent region stays quiescent
until a heal *revokes* replicas — and the heal-time resync reaches
every agent of every region, waking them with a current digest.
Central-to-central gossip keeps flowing regardless, so regional
centrals always know the island placement.  A round's per-agent cost
is therefore ``≈ 3·m_active`` (the awake regions' sizes), not ``3M``;
the ``shard-*`` campaign presets measure the realized reduction against
the flat simulator.  With an active :class:`AdversaryPlan` quiescence is
disabled — Byzantine agents bid regardless of honest valuations, so
every region must hold its round.

Composition notes: the :class:`FaultPlan` channel/quorum knobs model a
WAN between agents and the *single* central and are not consulted here
(regional links are intra-domain); its schedule's ``central_crashes``
target the flat central — sharded central crashes come from the
:class:`PartitionSchedule` instead.  Agent crashes, stragglers and the
checkpoint period compose unchanged, as does the full
:class:`AdversaryPlan` pipeline (corruption at the lying agent, a
validator + detector + quarantine boundary in front of every regional
central) under the local valuation — the boundary re-prices bids on
the local engine's Eq. 5 terms, as of the round's start, which the
cooperative regional engine does not have, so ``valuation="regional"``
takes no adversary plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.agents import Bid
from repro.drp.benefit import NEG_INF
from repro.drp.cost import total_otc
from repro.drp.delta import make_local_engine
from repro.drp.global_engine import RegionalBenefitEngine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs.export import bid_run
from repro.result import PlacementResult
from repro.runtime.adversary import (
    AdversaryInjector,
    AdversaryPlan,
    BidColumns,
    QuarantinePolicy,
    TrustBoundary,
)
from repro.runtime.central import CentralBody, Decision
from repro.runtime.faults import CheckpointStore, FaultPlan, FaultSchedule
from repro.runtime.messages import (
    AllocateMessage,
    BidMessage,
    ElectionMessage,
    MessageLog,
    NNResyncMessage,
    PaymentMessage,
    StateSyncMessage,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer
from repro.utils.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "partition_by_proximity",
    "RegionStats",
    "PartitionWindow",
    "PartitionSchedule",
    "ShardAllocation",
    "ReconcileOutcome",
    "reconcile_divergence",
    "ShardedAGTRam",
    "central_id",
]

# -- regions -----------------------------------------------------------------


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
    n_regions = check_positive_int(n_regions, "n_regions")
    if n_regions > m:
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
    """Per-region accounting of a regional run."""

    region: int
    servers: int
    allocations: int = 0
    payments: float = 0.0


def central_id(region: int) -> int:
    """Wire address of region ``r``'s central body: ``-(r + 1)``."""
    return -(int(region) + 1)


def _gossip(
    log: MessageLog, region: int, peers: Sequence[int], objs: tuple[int, ...]
) -> None:
    """Region ``region``'s central sends its commits ``objs`` to every
    other central in ``peers`` (one :class:`StateSyncMessage` each)."""
    log.record_fanout(
        lambda c: StateSyncMessage(
            sender=central_id(region), receiver=c, objs=objs
        ),
        [central_id(p) for p in peers if p != region],
    )


# -- partition schedule ------------------------------------------------------


def _dense_islands(labels: Iterable[int]) -> tuple[int, ...]:
    """Renumber island labels to dense first-occurrence order."""
    remap: dict[int, int] = {}
    out: list[int] = []
    for v in labels:
        out.append(remap.setdefault(int(v), len(remap)))
    return tuple(out)


@dataclass(frozen=True)
class PartitionWindow:
    """One network partition: rounds ``[start, end)`` split the regions
    into islands; ``islands[r]`` is region ``r``'s island index (dense
    from 0, at least two distinct islands)."""

    start: int
    end: int
    islands: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "end", int(self.end))
        object.__setattr__(
            self, "islands", tuple(int(i) for i in self.islands)
        )
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"window [{self.start}, {self.end}) must satisfy "
                "0 <= start < end"
            )
        if not self.islands:
            raise ConfigurationError("window needs an islands assignment")
        distinct = sorted(set(self.islands))
        if distinct != list(range(len(distinct))):
            raise ConfigurationError(
                f"island ids must be dense from 0, got {self.islands}"
            )
        if len(distinct) < 2:
            raise ConfigurationError(
                "a partition window must split the regions into at least "
                "two islands"
            )

    @property
    def n_islands(self) -> int:
        return len(set(self.islands))

    def to_dict(self) -> dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "islands": list(self.islands),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PartitionWindow":
        return cls(
            start=int(d["start"]),
            end=int(d["end"]),
            islands=tuple(int(i) for i in d.get("islands", ())),
        )


@dataclass(frozen=True)
class PartitionSchedule:
    """A fully materialized plan of when the sharded central splits.

    ``windows`` are non-overlapping, sorted partition windows whose
    ``islands`` assignments cover exactly ``n_regions`` regions.
    ``central_crashes`` lists ``(round, region)`` pairs at whose start
    that *regional* central crashes (election + checkpoint recovery
    within the region).  Pure data: JSON round-trips via
    :meth:`to_dict` / :meth:`from_dict` and composes with
    :class:`~repro.runtime.faults.FaultPlan` and
    :class:`~repro.runtime.adversary.AdversaryPlan` in
    :class:`ShardedAGTRam`.
    """

    n_regions: int = 4
    windows: tuple[PartitionWindow, ...] = ()
    central_crashes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_regions", check_positive_int(self.n_regions, "n_regions")
        )
        windows = tuple(
            sorted(self.windows, key=lambda w: (w.start, w.end))
        )
        object.__setattr__(self, "windows", windows)
        object.__setattr__(
            self,
            "central_crashes",
            tuple(sorted((int(r), int(g)) for r, g in self.central_crashes)),
        )
        prev_end = -1
        for w in windows:
            if len(w.islands) != self.n_regions:
                raise ConfigurationError(
                    f"window [{w.start}, {w.end}) assigns {len(w.islands)} "
                    f"regions, schedule has {self.n_regions}"
                )
            if w.start < prev_end:
                raise ConfigurationError(
                    f"window [{w.start}, {w.end}) overlaps the previous one"
                )
            prev_end = w.end
        for rnd, region in self.central_crashes:
            if rnd < 0 or not (0 <= region < self.n_regions):
                raise ConfigurationError(
                    f"central crash ({rnd}, {region}) is out of range"
                )

    @classmethod
    def null(cls, n_regions: int = 4) -> "PartitionSchedule":
        """The empty schedule: the shards never split, nothing crashes."""
        return cls(n_regions=n_regions)

    @property
    def is_null(self) -> bool:
        return not self.windows and not self.central_crashes

    @classmethod
    def random(
        cls,
        *,
        n_regions: int,
        horizon: int,
        seed: SeedLike = 0,
        partition_fraction: float = 0.3,
        mean_width: float = 6.0,
        n_islands: int = 2,
        crash_rate: float = 0.0,
    ) -> "PartitionSchedule":
        """Sample a stochastic schedule, reproducible from ``seed``.

        Windows are placed left to right until ``partition_fraction``
        of the ``horizon`` rounds is partitioned: a geometric healthy
        gap, then a geometric window of mean ``mean_width`` rounds
        whose island assignment draws each region into one of
        ``n_islands`` groups (re-labelled dense; degenerate all-in-one
        draws are repaired by moving the last region).  Regional
        central crashes are Bernoulli ``crash_rate`` per (round,
        region).  Sampling order is fixed, so the schedule is a pure
        function of the arguments.
        """
        n_regions = check_positive_int(n_regions, "n_regions")
        if n_regions < 2 and partition_fraction > 0:
            raise ConfigurationError(
                "partitioning needs at least 2 regions"
            )
        if not (0.0 <= partition_fraction <= 1.0):
            raise ConfigurationError(
                "partition_fraction must be in [0, 1], got "
                f"{partition_fraction}"
            )
        if not (0.0 <= crash_rate <= 1.0):
            raise ConfigurationError("crash_rate must be in [0, 1]")
        if mean_width < 1.0:
            raise ConfigurationError("mean_width must be >= 1")
        rng = as_generator(seed)
        target = int(round(partition_fraction * horizon))
        k_isl = max(2, min(int(n_islands), n_regions))
        windows: list[PartitionWindow] = []
        cursor, covered = 0, 0
        while covered < target:
            gap = int(rng.geometric(0.25))  # mean 4 healthy rounds
            start = cursor + gap
            if start >= horizon:
                break
            width = int(rng.geometric(1.0 / mean_width))
            end = min(start + max(1, width), horizon)
            if end <= start:
                break
            labels = [int(x) for x in rng.integers(0, k_isl, n_regions)]
            islands = list(_dense_islands(labels))
            if len(set(islands)) < 2:
                islands[-1] = 1
            windows.append(
                PartitionWindow(start=start, end=end, islands=tuple(islands))
            )
            covered += end - start
            cursor = end
        crashes: list[tuple[int, int]] = []
        if crash_rate > 0:
            for rnd in range(horizon):
                for region in range(n_regions):
                    if rng.random() < crash_rate:
                        crashes.append((rnd, region))
        return cls(
            n_regions=n_regions,
            windows=tuple(windows),
            central_crashes=tuple(crashes),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_regions": self.n_regions,
            "windows": [w.to_dict() for w in self.windows],
            "central_crashes": [list(c) for c in self.central_crashes],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PartitionSchedule":
        return cls(
            n_regions=d.get("n_regions", 4),
            windows=tuple(
                PartitionWindow.from_dict(w) for w in d.get("windows", ())
            ),
            central_crashes=tuple(
                (int(r), int(g)) for r, g in d.get("central_crashes", ())
            ),
        )


# -- reconciliation ----------------------------------------------------------


@dataclass(unsafe_hash=True)
class ShardAllocation:
    """One regional commit, as reconciliation sees it."""

    region: int
    server: int
    obj: int
    value: float
    payment: float
    round: int


@dataclass(frozen=True)
class ReconcileOutcome:
    """What the heal-time merge decided.

    ``conflicts`` are the contested object ids (committed by two or
    more islands during the window), sorted ascending.  ``kept`` holds
    the single surviving commit per contested object, ``revoked`` every
    other commit of a contested object; both are sorted by
    ``(obj, server)``.  Uncontested commits are untouched and appear in
    neither list.
    """

    conflicts: tuple[int, ...] = ()
    kept: tuple[ShardAllocation, ...] = ()
    revoked: tuple[ShardAllocation, ...] = ()


def reconcile_divergence(
    commits: Iterable[ShardAllocation],
    island_of_region: Mapping[int, int],
) -> ReconcileOutcome:
    """Resolve split-brain divergence deterministically.

    Pure function of the *set* of commits: the outcome is independent
    of input order and idempotent (feeding the survivors back in
    revokes nothing).  An object is contested when commits for it came
    from at least two distinct islands (``island_of_region`` maps each
    committing region to its island during the window).  Per contested
    object the commit with the highest reported benefit survives —
    lowest-cost-winner — with deterministic tie-breaks (lowest server
    id, then lowest region, then earliest round); all other commits of
    that object are revoked.
    """
    by_obj: dict[int, list[ShardAllocation]] = {}
    for c in commits:
        by_obj.setdefault(int(c.obj), []).append(c)
    conflicts: list[int] = []
    kept: list[ShardAllocation] = []
    revoked: list[ShardAllocation] = []
    for obj in sorted(by_obj):
        group = by_obj[obj]
        islands = {island_of_region[c.region] for c in group}
        if len(islands) < 2:
            continue
        conflicts.append(obj)
        winner = min(
            group, key=lambda c: (-c.value, c.server, c.region, c.round)
        )
        kept.append(winner)
        revoked.extend(c for c in group if c is not winner)
    key = lambda c: (c.obj, c.server)  # noqa: E731 — canonical order
    return ReconcileOutcome(
        conflicts=tuple(conflicts),
        kept=tuple(sorted(kept, key=key)),
        revoked=tuple(sorted(revoked, key=key)),
    )


# -- runtime -----------------------------------------------------------------


@dataclass
class _Island:
    """One side of a partition: the regions that can still reach each
    other, their forked state, and the benefit engine over it."""

    index: int
    regions: list[int]
    state: ReplicationState
    engine: Any
    commits: list[ShardAllocation] = field(default_factory=list)


class _RoundStartView:
    """The valuation oracle as an island's bidders saw it this round.

    Every region of a global round bids from the island's round-start
    view (``engine.best_per_server()`` before any region clears), but
    the regions commit one after another on the shared state.  The
    trust boundary must re-price a bid on the view it was made from,
    or an honest bid for an object an earlier region just placed reads
    as a misreport.  A commit changes only its winner's row (replica
    bit, residual capacity) and the committed object's NN column, and
    no later region's bidder is an earlier winner, so keeping each
    committed column's pre-commit copy until the round ends gives the
    engine's ``value_at`` exactly as it was before any commit.
    """

    def __init__(self, engine: Any, n_regions: int) -> None:
        self.state: ReplicationState = engine.state
        self.rstat, self.wterm = engine.rstat, engine.wterm
        # Column j of ``_cols`` is the pre-commit NN column of the j-th
        # object committed this round; ``_slot[k]`` is its j (-1: none).
        self._cols = np.empty((self.state.instance.n_servers, n_regions))
        self._slot: Optional[np.ndarray] = None
        self._kept = 0

    def keep(self, k: int) -> None:
        """Save object ``k``'s NN column before a commit changes it."""
        if self._slot is None:
            self._slot = np.full(self.state.instance.n_objects, -1)
        if self._slot[k] < 0:
            self._slot[k] = self._kept
            self._cols[:, self._kept] = self.state.nn_dist[:, k]
            self._kept += 1

    def values_at(self, agents: np.ndarray, objs: np.ndarray) -> np.ndarray:
        """Masked local-CoR cells ``(agents[i], objs[i])`` (``-inf`` when
        ineligible), with the engines' arithmetic."""
        state = self.state
        cells = agents * state.instance.n_objects + objs
        nn = state.nn_dist.take(cells)
        if self._slot is not None:
            slot = self._slot.take(objs)
            kept = slot >= 0
            if kept.any():
                nn[kept] = self._cols[agents[kept], slot[kept]]
        values = self.rstat.take(cells) * nn - self.wterm.take(cells)
        ineligible = state.x.take(cells) | (
            state.instance.sizes.take(objs) > state.residual.take(agents)
        )
        values[ineligible] = NEG_INF
        return values


@dataclass
class ShardedAGTRam:
    """Concurrent regional AGT-RAM under partitions, crashes and
    Byzantine bids.  See the module docstring for the model.

    n_regions / partition / seed:
        ``n_regions`` proximity regions (partition seed ``seed``), or an
        explicit (M,) integer region-id array, dense from 0.
    plan:
        The :class:`PartitionSchedule`; ``None`` means
        :meth:`PartitionSchedule.null` — the run is then byte-identical
        (event-stream-wise) to an explicitly null-scheduled run.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`; agent
        crashes and stragglers abstain from bidding, and
        ``checkpoint_period`` drives the per-region
        :class:`CheckpointStore` (no plan disables checkpointing).
    adversary:
        Optional :class:`~repro.runtime.adversary.AdversaryPlan`;
        corruption happens at the lying agent, and every regional
        central screens through a shared
        :class:`~repro.runtime.adversary.TrustBoundary` (the defence
        policy is replicated across shards, so strikes survive
        partitions).
    quarantine:
        Optional :class:`~repro.runtime.adversary.QuarantinePolicy` for
        that shared boundary; ``None`` uses the defaults.  Only
        consulted when an adversary plan is supplied.
    valuation:
        ``"local"`` (default, on the delta engine) or ``"regional"``
        (on :class:`~repro.drp.global_engine.RegionalBenefitEngine`).
        The regional game has no trust boundary, so it takes no
        adversary plan.
    max_rounds / keep_messages:
        Global round cap (``None``: ``M * N`` plus the partition
        calendar); keep every message object, not only the tallies.
    """

    n_regions: int = 4
    partition: Optional[np.ndarray] = None
    plan: Optional[PartitionSchedule] = None
    faults: Optional[FaultPlan] = None
    adversary: Optional[AdversaryPlan] = None
    quarantine: Optional[QuarantinePolicy] = None
    valuation: str = "local"
    seed: SeedLike = None
    max_rounds: Optional[int] = None
    keep_messages: bool = False

    def __post_init__(self) -> None:
        self.n_regions = check_positive_int(self.n_regions, "n_regions")
        if self.valuation not in ("local", "regional"):
            raise ConfigurationError(
                "valuation must be 'local' or 'regional', "
                f"got {self.valuation!r}"
            )
        if (
            self.valuation == "regional"
            and self.adversary is not None
            and not self.adversary.is_null
        ):
            raise ConfigurationError(
                "the regional valuation takes no adversary plan: the "
                "trust boundary prices bids with the local engine"
            )
        if self.max_rounds is not None:
            self.max_rounds = check_nonnegative_int(self.max_rounds, "max_rounds")

    # -- helpers -----------------------------------------------------------

    def _regions(self, instance: DRPInstance) -> np.ndarray:
        if self.partition is None:
            return partition_by_proximity(
                instance, self.n_regions, seed=self.seed
            )
        part = np.asarray(self.partition)
        if part.dtype.kind not in "iu":
            raise ConfigurationError(
                f"partition must hold integer region ids, got dtype {part.dtype}"
            )
        if part.shape != (instance.n_servers,):
            raise ConfigurationError(
                f"partition must have shape ({instance.n_servers},), "
                f"got {part.shape}"
            )
        if part.min() < 0:
            raise ConfigurationError("region ids must be non-negative")
        return part.astype(np.int64)

    # -- run ----------------------------------------------------------------

    def run(self, instance: DRPInstance) -> PlacementResult:
        timer = Timer()
        with timer:
            result = self._run(instance)
        result.runtime_s = timer.elapsed
        return result

    def _run(self, instance: DRPInstance) -> PlacementResult:
        m = instance.n_servers
        part = self._regions(instance)
        region_ids = sorted(set(int(r) for r in part))
        k = len(region_ids)
        if region_ids != list(range(k)):
            raise ConfigurationError(
                f"region ids must be dense 0..{k - 1}, got {region_ids}"
            )
        plan = self.plan if self.plan is not None else PartitionSchedule.null(k)
        if plan.n_regions != k:
            raise ConfigurationError(
                f"schedule covers {plan.n_regions} regions, partition has {k}"
            )
        regional = self.valuation == "regional"

        def make_engine(state: ReplicationState, like: Any = None) -> Any:
            """The engine for the start state, a partition fork or a heal.

            A fork (``state`` a copy of the state of engine ``like``)
            starts from ``like``'s cached bests: the copy holds the same
            bits, so only a heal's merged state needs a sweep.
            """
            if regional:
                return RegionalBenefitEngine(instance, state, part)
            if like is None:
                return make_local_engine(instance, state)
            return make_local_engine(instance, state, like.best_per_server())

        label = "Sharded-AGT-RAM(regional)" if regional else "Sharded-AGT-RAM"
        rows = {r: [int(a) for a in np.flatnonzero(part == r)] for r in region_ids}
        agents_of = {r: np.array(rows[r], dtype=np.int64) for r in region_ids}

        schedule = self.faults.schedule if self.faults else FaultSchedule.null()
        ckpt_period = self.faults.checkpoint_period if self.faults else 0
        stores = {r: CheckpointStore(ckpt_period) for r in region_ids}
        injector = (
            AdversaryInjector(self.adversary, m)
            if self.adversary is not None and not self.adversary.is_null
            else None
        )
        boundary = (
            TrustBoundary(instance, self.quarantine)
            if injector is not None
            else None
        )
        central = CentralBody("second_price")

        log = MessageLog(keep_messages=self.keep_messages)
        sink = ev.current()
        eventing = sink.enabled
        payments = np.zeros(m)
        stats = {r: RegionStats(region=r, servers=len(rows[r])) for r in region_ids}
        counters = {
            "windows": 0, "heals": 0, "divergent": 0, "conflicts": 0,
            "revocations": 0, "refunded_capacity": 0, "elections": 0,
            "recoveries": 0, "checkpoints": 0, "crashes_injected": 0,
        }
        refunded_payment = 0.0
        revoked_log: list[ShardAllocation] = []
        reauctioned_all: set[int] = set()

        state = ReplicationState.primaries_only(instance)
        if eventing:
            sink.emit(ev.RunStart(t=ev.now(), algorithm=label))
            state.begin_otc_tracking()
        islands = [
            _Island(
                index=0,
                regions=list(region_ids),
                state=state,
                engine=make_engine(state),
            )
        ]
        fork_base: Optional[ReplicationState] = None
        active: Optional[PartitionWindow] = None
        next_widx = 0
        crash_set = set(plan.central_crashes)
        # The default cap bounds *work* like the flat mechanism's M*N,
        # plus the partition calendar: idle partitioned rounds are
        # fast-forwarded but still advance the round clock, and revoked
        # objects re-auction after the last heal.
        cap = (
            self.max_rounds
            if self.max_rounds is not None
            else instance.n_servers * instance.n_objects
            + (plan.windows[-1].end if plan.windows else 0)
        )

        def heal(at_round: int) -> None:
            nonlocal islands, fork_base, active, refunded_payment
            assert active is not None and fork_base is not None
            window = active
            commits = [c for isl in islands for c in isl.commits]
            island_of = {r: window.islands[r] for r in region_ids}
            outcome = reconcile_divergence(commits, island_of)
            revoked_pairs = {(c.server, c.obj) for c in outcome.revoked}
            merged = fork_base
            for c in sorted(
                commits, key=lambda c: (c.round, c.region, c.server, c.obj)
            ):
                if (c.server, c.obj) in revoked_pairs:
                    continue
                merged.add_replica(c.server, c.obj)
            refund_cap = int(
                sum(int(instance.sizes[c.obj]) for c in outcome.revoked)
            )
            refund_pay = float(sum(c.payment for c in outcome.revoked))
            reauctioned = tuple(sorted({c.obj for c in outcome.revoked}))
            for c in outcome.revoked:
                payments[c.server] -= c.payment
                stats[c.region].allocations -= 1
                stats[c.region].payments -= c.payment
            refunded_payment += refund_pay
            revoked_log.extend(outcome.revoked)
            reauctioned_all.update(reauctioned)
            counters["heals"] += 1
            counters["divergent"] += len(commits)
            counters["conflicts"] += len(outcome.conflicts)
            counters["revocations"] += len(outcome.revoked)
            counters["refunded_capacity"] += refund_cap
            if eventing:
                sink.emit(
                    ev.ReconcileEvent(
                        t=ev.now(), round=at_round,
                        conflicts=outcome.conflicts,
                        kept=tuple((c.server, c.obj) for c in outcome.kept),
                        revoked=tuple(
                            (c.server, c.obj) for c in outcome.revoked
                        ),
                        refunded_capacity=refund_cap,
                        refunded_payment=refund_pay,
                        reauctioned=reauctioned,
                    )
                )
                sink.emit(
                    ev.HealEvent(
                        t=ev.now(), round=at_round, islands=window.islands,
                        divergent=len(commits),
                    )
                )
            # Heal-time resync: centrals exchange their window commits
            # pairwise, then each region's central pushes the merged
            # NN digest to its own agents.
            objs_by_region: dict[int, list[int]] = {r: [] for r in region_ids}
            for c in commits:
                objs_by_region[c.region].append(c.obj)
            kept_objs = tuple(
                sorted(
                    {
                        c.obj
                        for c in commits
                        if (c.server, c.obj) not in revoked_pairs
                    }
                )
            )
            for r in region_ids:
                _gossip(log, r, region_ids, tuple(objs_by_region[r]))
            for r in region_ids:
                log.record_fanout(
                    lambda a, r=r: NNResyncMessage(
                        sender=central_id(r), receiver=a, objs=kept_objs
                    ),
                    rows[r],
                )
            islands = [
                _Island(
                    index=0,
                    regions=list(region_ids),
                    state=merged,
                    engine=make_engine(merged),
                )
            ]
            fork_base = None
            active = None

        pround = 0
        while pround < cap:
            if active is not None and pround >= active.end:
                heal(active.end)
            if (
                active is None
                and next_widx < len(plan.windows)
                and plan.windows[next_widx].start <= pround
            ):
                window = plan.windows[next_widx]
                next_widx += 1
                active = window
                counters["windows"] += 1
                base = islands[0].state
                fork_base = base.copy()
                groups = sorted(set(window.islands))
                new_islands: list[_Island] = []
                for g in groups:
                    regions_g = [
                        r for r in region_ids if window.islands[r] == g
                    ]
                    if g == 0:
                        # Island 0 keeps the live state and its engine.
                        new_islands.append(
                            _Island(
                                index=0, regions=regions_g, state=base,
                                engine=islands[0].engine,
                            )
                        )
                    else:
                        forked = base.copy()
                        new_islands.append(
                            _Island(
                                index=g, regions=regions_g, state=forked,
                                engine=make_engine(forked, islands[0].engine),
                            )
                        )
                islands = new_islands
                if eventing:
                    sink.emit(
                        ev.PartitionEvent(
                            t=ev.now(), round=pround, islands=window.islands,
                        )
                    )

            any_commit = False
            stalled = False
            down = schedule.down_mask(pround, m)
            late = schedule.straggler_mask(pround, m)
            for island in islands:
                vals, objs = island.engine.best_per_server()
                view = (
                    _RoundStartView(island.engine, len(island.regions))
                    if boundary is not None
                    else None
                )
                committed_regions: list[int] = []
                round_objs: list[int] = []
                awake: list[int] = []
                for r in island.regions:
                    if (pround, r) in crash_set:
                        stalled = True
                        awake.append(r)
                        self._regional_crash(
                            pround, r, agents_of[r], down, stores[r],
                            island, log, sink, eventing, counters,
                        )
                        continue
                    commit, participated = self._clear_region(
                        pround, r, agents_of[r], island, vals, objs, view,
                        instance, down, late, stores[r], injector,
                        boundary, central, log, sink, eventing, counters,
                    )
                    if participated:
                        awake.append(r)
                    if commit is None:
                        continue
                    any_commit = True
                    island.commits.append(commit)
                    payments[commit.server] += commit.payment
                    stats[r].allocations += 1
                    stats[r].payments += commit.payment
                    committed_regions.append(r)
                    round_objs.append(commit.obj)
                if not committed_regions:
                    continue
                # End-of-round propagation inside the island: engine
                # refresh, pairwise central gossip, batched NN resync.
                for c in island.commits[-len(committed_regions):]:
                    island.engine.refresh_object(c.obj)
                    island.engine.refresh_server(c.server)
                digest = tuple(sorted(set(round_objs)))
                for r, obj in zip(committed_regions, round_objs):
                    _gossip(log, r, island.regions, (obj,))
                # Quiescent regions defer their per-agent digest (the
                # heal-time resync catches them up); a crashed region's
                # recovery ends with its agents current, so it counts
                # as awake for this round's digest.
                for r in awake:
                    log.record_fanout(
                        lambda a, r=r: NNResyncMessage(
                            sender=central_id(r), receiver=a, objs=digest
                        ),
                        rows[r],
                    )

            if not any_commit and not stalled:
                if active is not None:
                    # Every island is idle: fast-forward to the heal
                    # (later rounds of the window are inert; any
                    # crashes scheduled inside the skipped span target
                    # idle centrals and are skipped with it).
                    pround = active.end
                    continue
                # Converged with no partition pending or active; any
                # remaining windows fork an idle state and are inert.
                break
            pround += 1

        if active is not None:
            # Round cap hit mid-window: heal so the returned placement
            # is always reconciled.
            heal(pround)

        final = islands[0].state
        if eventing:
            sink.emit(
                ev.RunEnd(
                    t=ev.now(), algorithm=label,
                    otc=final.tracked_otc(), rounds=pround,
                )
            )

        extra: dict[str, Any] = {
            "payments": payments,
            "partition": part,
            "region_stats": stats,
            "engine": islands[0].engine.engine_name,
            "schedule": plan.to_dict(),
            "messages": log.total_messages(),
            "message_bytes": log.bytes_total,
            "message_counts": dict(log.counts),
            "message_log": log,
            "refunded_payment": refunded_payment,
            "revoked": [
                (c.region, c.server, c.obj, c.value, c.payment, c.round)
                for c in revoked_log
            ],
            "reauctioned": sorted(reauctioned_all),
            **counters,
        }
        if boundary is not None:
            extra["boundary"] = boundary.summary_dict()
        if injector is not None:
            extra["adversary"] = injector.summary_dict()
        return PlacementResult(
            algorithm=label,
            state=final,
            otc=total_otc(final),
            runtime_s=0.0,
            rounds=pround,
            extra=extra,
        )

    # -- one regional round -------------------------------------------------

    def _clear_region(
        self,
        pround: int,
        r: int,
        region_rows: np.ndarray,
        island: _Island,
        vals: np.ndarray,
        objs: np.ndarray,
        view: Optional[_RoundStartView],
        instance: DRPInstance,
        down: np.ndarray,
        late: np.ndarray,
        store: CheckpointStore,
        injector: Optional[AdversaryInjector],
        boundary: Optional[TrustBoundary],
        central: CentralBody,
        log: MessageLog,
        sink: "ev.EventSink",
        eventing: bool,
        counters: dict[str, int],
    ) -> tuple[Optional[ShardAllocation], bool]:
        """Run region ``r``'s sealed-bid round.

        Returns ``(commit, participated)``: the commit if the region
        allocated, and whether the region held its round at all —
        a *quiescent* region (best live benefit non-positive, see the
        module docstring) sends nothing, emits nothing and skips its
        round-end NN digest, which is where the sharded protocol's
        message reduction comes from.

        Mirrors the flat simulator's round otherwise: live agents
        (``down`` and ``late`` are the round's crash and straggler
        masks) bid their engine-cached best, the adversary corrupts at
        the sender, the trust boundary screens in front of the regional
        central on ``view`` (the island's round-start valuations, which
        the bids came from), and :meth:`CentralBody.clear` arbitrates.
        The round's bids travel as ``(agent, obj, value, seq)`` columns
        in agent order, a scripted sender's payloads in place of its
        honest one.  Round events are only emitted when the region
        actually attempts an allocation (an exhausted region is skipped
        silently), and only *accepted* bids are emitted — the first copy
        per sender, as one packed run of bid records
        (:meth:`~repro.obs.events.EventSink.emit_bids`) — so the flat and
        per-shard audits verify each regional round independently.
        """
        state = island.state
        rcid = central_id(r)
        live = region_rows[~down[region_rows]]
        if boundary is not None:
            live = np.array(
                boundary.filter_bidders(live.tolist(), pround), dtype=np.int64
            )
        live_vals = vals[live]
        # An empty L_i (-inf) means the agent has left the game.
        bidding = np.isfinite(live_vals)
        if injector is None or injector.dormant(
            pround,
            boundary.quarantine.expelled if boundary is not None else
            frozenset(),
        ):
            # Regional quiescence: with only honest bidders, a round
            # whose best benefit is non-positive is a foregone
            # DO_NOT_REPLICATE — nobody bids, no wire is used.  (While
            # an adversary is *armed* the round must be held: corrupted
            # bids do not respect honest valuations.  Once its window
            # has ended — or every attacker is permanently expelled —
            # only honest traffic remains and quiescence is safe again.)
            if not bidding.any() or live_vals[bidding].max() <= 0.0:
                return None, False
        straggling = bidding & late[live]
        if straggling.any():
            # Sent, but past the regional deadline: the wire was used,
            # the report does not count.
            lagging = live[straggling].tolist()
            lag_objs = objs[lagging].tolist()
            lag_vals = vals[lagging].tolist()
            log.record_fanout(
                lambda j: BidMessage(
                    sender=lagging[j], receiver=rcid, obj=lag_objs[j],
                    value=lag_vals[j],
                ),
                range(len(lagging)),
            )
            if eventing:
                for a in lagging:
                    sink.emit(
                        ev.FaultEvent(
                            t=ev.now(), round=pround, kind="straggler",
                            agent=a, target="bid", detail=f"region {r}",
                        )
                    )
        arrived = live[bidding & ~straggling]
        if not len(arrived):
            return None, True

        bids = BidColumns(
            agent=arrived,
            obj=objs[arrived],
            value=vals[arrived],
            seq=np.zeros(len(arrived), dtype=np.int64),
        )
        if injector is not None:
            bids = self._corrupt(pround, bids, injector, state, instance)
        log.record_fanout(
            lambda j: BidMessage(
                sender=int(bids.agent[j]), receiver=rcid,
                obj=int(bids.obj[j]), value=float(bids.value[j]),
                seq=int(bids.seq[j]),
            ),
            range(len(bids)),
        )
        if boundary is not None:
            accepted, _ = boundary.screen_columns(bids, state, view, pround)
            if not accepted.all():
                bids = bids.take(accepted.nonzero()[0])
        # What survives has one payload per sender (the validator voids
        # conflicting copies), so the central's report vectors are the
        # columns scattered by agent.
        reports = np.full(instance.n_servers, NEG_INF)
        report_objs = np.full(instance.n_servers, -1, dtype=np.int64)
        reports[bids.agent] = bids.value
        report_objs[bids.agent] = bids.obj
        outcome = central.clear(reports, report_objs)
        if outcome.decision is Decision.DO_NOT_REPLICATE:
            return None, True

        winner, obj = outcome.winner, outcome.obj
        if eventing:
            sink.emit(ev.RoundStart(t=ev.now(), round=pround, region=r))
            # One bid per sender (its first copy), as one packed run;
            # a round that allocates has at least one bid.
            first = np.ones(len(bids), dtype=bool)
            np.not_equal(bids.agent[1:], bids.agent[:-1], out=first[1:])
            logged = bids.take(first.nonzero()[0])
            t, step = ev.now_block(len(logged))
            sink.emit_bids(
                bid_run(
                    t, step, pround, logged.agent, logged.obj, logged.value, r
                )
            )
        if not state.can_host(winner, obj):
            if eventing:
                reason = "duplicate" if state.x[winner, obj] else "capacity"
                sink.emit(
                    ev.CapacityReject(
                        t=ev.now(), round=pround, agent=winner, obj=obj,
                        obj_size=int(instance.sizes[obj]),
                        residual=int(state.residual[winner]),
                        reason=reason, region=r,
                    )
                )
                sink.emit(
                    ev.RoundEnd(
                        t=ev.now(), round=pround, committed=0,
                        otc=state.tracked_otc(), region=r,
                    )
                )
            return None, True
        won_value = float(reports[winner])
        if eventing:
            sink.emit(
                ev.WinnerEvent(
                    t=ev.now(), round=pround, agent=winner, obj=obj,
                    value=won_value,
                    obj_size=int(instance.sizes[obj]),
                    residual_before=int(state.residual[winner]),
                    region=r,
                )
            )
        if view is not None:
            view.keep(obj)
        state.add_replica(winner, obj)
        if store.commit(winner, obj, pround):
            counters["checkpoints"] += 1
            if eventing:
                sink.emit(
                    ev.CheckpointEvent(
                        t=ev.now(), round=pround,
                        allocations=len(store.allocations),
                    )
                )
        # Regional OMAX broadcast + the winner's payment.
        log.record_fanout(
            lambda a: AllocateMessage(
                sender=rcid, receiver=a, winner=winner, obj=obj
            ),
            region_rows.tolist(),
        )
        log.record(PaymentMessage(sender=rcid, receiver=winner,
                                  amount=outcome.payment))
        if eventing:
            sink.emit(
                ev.PaymentEvent(
                    t=ev.now(), round=pround, agent=winner,
                    amount=outcome.payment, region=r,
                )
            )
            sink.emit(
                ev.RoundEnd(
                    t=ev.now(), round=pround, committed=1,
                    otc=state.tracked_otc(), region=r,
                )
            )
        return ShardAllocation(
            region=r, server=winner, obj=obj, value=won_value,
            payment=float(outcome.payment), round=pround,
        ), True

    @staticmethod
    def _corrupt(
        pround: int,
        bids: BidColumns,
        injector: AdversaryInjector,
        state: ReplicationState,
        instance: DRPInstance,
    ) -> BidColumns:
        """The round's wire payloads: the injector rewrites its scripted
        agents' honest bids, and a sender with several payloads
        (equivocation) sends them in place of its one, seq 0, 1, ..."""
        arrived = bids.agent
        scripted = arrived[injector.scripted[arrived]].tolist()
        if not scripted:
            return bids
        index = {a: int(i) for a, i in zip(
            scripted, np.searchsorted(arrived, scripted)
        )}
        sends = injector.corrupt_round(
            pround,
            {
                a: Bid(agent=a, obj=int(bids.obj[i]), value=float(bids.value[i]))
                for a, i in index.items()
            },
            state,
            instance,
        )
        # The columns are this round's own copies: rewrite them in place.
        obj, value = bids.obj, bids.value
        several: dict[int, list[tuple[int, float]]] = {}
        for a, payloads in sends.items():
            if len(payloads) == 1:
                obj[index[a]], value[index[a]] = payloads[0]
            else:
                several[index[a]] = payloads
        if not several:
            return bids
        reps = np.ones(len(arrived), dtype=np.int64)
        reps[list(several)] = [len(p) for p in several.values()]
        start = np.cumsum(reps) - reps
        out = BidColumns(
            agent=np.repeat(arrived, reps),
            obj=np.repeat(obj, reps),
            value=np.repeat(value, reps),
            seq=np.arange(int(reps.sum())) - np.repeat(start, reps),
        )
        for i, payloads in several.items():
            at = int(start[i])
            for si, (o, v) in enumerate(payloads):
                out.obj[at + si], out.value[at + si] = o, v
        return out

    # -- regional central crash ---------------------------------------------

    @staticmethod
    def _regional_crash(
        pround: int,
        r: int,
        region_rows: np.ndarray,
        down: np.ndarray,
        store: CheckpointStore,
        island: _Island,
        log: MessageLog,
        sink: "ev.EventSink",
        eventing: bool,
        counters: dict[str, int],
    ) -> None:
        """Region ``r``'s central crashes at the start of ``pround``:
        the region stalls for the round while its live agents elect the
        lowest live id as stand-in (mirroring the flat simulator's
        election) and the stand-in restores the newest checkpoint,
        re-learning newer commits from agent state-sync reports."""
        counters["crashes_injected"] += 1
        if eventing:
            sink.emit(
                ev.FaultEvent(
                    t=ev.now(), round=pround, kind="central_crash",
                    agent=-1, detail=f"region {r}",
                )
            )
        live = region_rows[~down[region_rows]].tolist()
        if not live:
            return  # nobody left to elect; the region sits the epoch out
        stand_in = min(live)
        for a in live:
            log.record_fanout(
                lambda b, a=a: ElectionMessage(
                    sender=a, receiver=b, candidate=stand_in
                ),
                [b for b in live if b != a],
            )
        counters["elections"] += 1
        if eventing:
            sink.emit(
                ev.ElectionEvent(
                    t=ev.now(), round=pround, candidate=stand_in,
                    voters=len(live),
                )
            )
        ckpt = store.restore()
        replayed = store.lost_since_checkpoint
        for a in live:
            if a == stand_in:
                continue
            held = tuple(int(o) for o in np.flatnonzero(island.state.x[a]))
            log.record(
                StateSyncMessage(sender=a, receiver=central_id(r), objs=held)
            )
        counters["recoveries"] += 1
        if eventing:
            sink.emit(
                ev.RecoveryEvent(
                    t=ev.now(), round=pround, kind="central", agent=-1,
                    checkpoint_round=ckpt.round, replayed=replayed,
                    acting_central=stand_in,
                )
            )
