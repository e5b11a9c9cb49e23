"""The request-level serving loop — the online half of the mechanism.

Streams workload traffic against an AGT-RAM placement and keeps
serving when replicas fail:

* each request routes to the nearest live replica (reads) or the
  primary (writes) via :class:`~repro.serving.router.RequestRouter`;
* a crashed or overloaded attempt times out and **fails over** to the
  next-nearest replica with capped exponential backoff
  (:class:`~repro.serving.policies.BackoffPolicy`);
* slow reads are **hedged** to a second replica once the first attempt
  outlives a trailing latency quantile;
* a token bucket **sheds** traffic the system cannot admit;
* per-replica EWMA health routes around servers that keep failing
  before wasting attempts on them;
* a drift detector watches the served object mix and, when it moves
  beyond tolerance, triggers an **incremental re-auction**
  (:func:`repro.core.reauction.reauction_objects`) for the drifted
  objects while the loop keeps serving the stale placement; the new
  placement is swapped in atomically between requests.

Everything is deterministic: all randomness derives from the campaign
seed via :func:`repro.utils.rng.substream`, "latency" is a seeded
function of link cost, and under
:func:`repro.obs.events.logical_time` the emitted event log is
byte-for-byte reproducible.  Failures come from the same
:class:`~repro.runtime.faults.FaultSchedule` vocabulary as the chaos
protocol campaigns — request ticks map onto fault rounds through
``requests_per_round``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.reauction import reauction_objects
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.runtime.faults import FaultSchedule
from repro.serving.drift import DriftDetector
from repro.serving.policies import (
    BackoffPolicy,
    EwmaHealth,
    QuantileTracker,
    TokenBucket,
)
from repro.serving.router import RequestRouter
from repro.serving.streams import ServeRequest
from repro.utils.rng import SeedLike, substream

__all__ = ["ServeConfig", "ServeReport", "serve"]

_INF = float("inf")


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving loop; defaults suit the smoke campaigns."""

    #: Attempt deadline, in the same units as the latency model.  None
    #: auto-calibrates to the instance's cost diameter (every healthy
    #: origin→replica attempt comfortably fits the deadline).
    timeout: Optional[float] = None
    #: Attempts per request before it is declared failed.
    max_attempts: int = 3
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: Hedge reads whose first attempt outlives this trailing quantile.
    hedge_quantile: float = 0.95
    hedge_enabled: bool = True
    #: Token-bucket admission: tokens per request tick / bucket depth.
    rate: float = 1.0
    burst: float = 50.0
    health_alpha: float = 0.3
    health_threshold: float = 0.5
    #: latency = latency_scale * cost(origin, replica) + Exp(latency_noise).
    latency_scale: float = 1.0
    latency_noise: float = 1.0
    #: Latency multiplier while the serving replica is a straggler.
    straggler_factor: float = 10.0
    #: Request ticks per fault-schedule round.
    requests_per_round: int = 500
    drift_window: int = 2000
    drift_threshold: float = 0.25
    drift_top_k: int = 8
    #: Re-auction budget; 0 disables drift-triggered re-auctions.
    max_reauctions: int = 4

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError("timeout must be > 0")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.requests_per_round < 1:
            raise ConfigurationError("requests_per_round must be >= 1")
        if self.latency_scale < 0 or self.latency_noise < 0:
            raise ConfigurationError("latency model must be non-negative")
        if self.straggler_factor < 1.0:
            raise ConfigurationError("straggler_factor must be >= 1")
        if self.max_reauctions < 0:
            raise ConfigurationError("max_reauctions must be >= 0")


@dataclass
class ServeReport:
    """Outcome of one serving campaign (wall-clock free, deterministic)."""

    workload: str
    n_requests: int
    admitted: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    hedges: int = 0
    failovers: int = 0
    timeouts: int = 0
    reauctions: int = 0
    p50: float = 0.0
    p99: float = 0.0
    mean_latency: float = 0.0
    reauction_log: list[dict[str, Any]] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of *admitted* requests served; sheds are reported
        separately (declining work is not the same as botching it)."""
        return self.served / self.admitted if self.admitted else 1.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "n_requests": self.n_requests,
            "admitted": self.admitted,
            "served": self.served,
            "failed": self.failed,
            "shed": self.shed,
            "hedges": self.hedges,
            "failovers": self.failovers,
            "timeouts": self.timeouts,
            "reauctions": self.reauctions,
            "availability": self.availability,
            "p50": self.p50,
            "p99": self.p99,
            "mean_latency": self.mean_latency,
            "reauction_log": list(self.reauction_log),
        }


def _replica_pairs(state: ReplicationState) -> tuple[tuple[int, int], ...]:
    """Non-primary (server, object) replica pairs of ``state``."""
    primaries = state.instance.primaries
    servers, objs = np.nonzero(state.x)
    return tuple(
        (int(s), int(k))
        for s, k in zip(servers, objs)
        if primaries[k] != s
    )


def _cell_counts(cells: list[int], shape: tuple[int, int]) -> np.ndarray:
    """(M, N) request counts of flat ``server * N + obj`` cells."""
    counts = np.bincount(
        np.asarray(cells, dtype=np.intp), minlength=shape[0] * shape[1]
    )
    return counts.reshape(shape)


def _exponentials(rng: np.random.Generator, scale: float) -> Iterator[float]:
    """``rng.exponential(scale)`` draws one by one, taken from blocks:
    a block holds the very values, in order, of as many scalar calls."""
    while True:
        yield from rng.exponential(scale, 1024).tolist()


def serve(
    instance: DRPInstance,
    state: ReplicationState,
    stream: Iterable[ServeRequest],
    *,
    config: Optional[ServeConfig] = None,
    faults: Optional[FaultSchedule] = None,
    seed: SeedLike = 0,
    workload: str = "custom",
    n_requests: Optional[int] = None,
) -> ServeReport:
    """Serve ``stream`` against ``state``; returns the campaign report.

    ``faults`` is interpreted over *serving rounds* (tick //
    ``requests_per_round``): a crashed server answers nothing for the
    outage, a straggler answers ``straggler_factor`` slower.  ``state``
    is not mutated; re-auctions swap fresh states into the router.
    Event emission follows the repro.obs discipline — nothing is
    recorded unless a sink is installed.  A request whose ``kind`` is
    not ``"read"``/``"write"`` or whose ``server``/``obj`` is out of
    range raises :class:`~repro.errors.ConfigurationError` naming its
    tick and field, before it is admitted or counted.

    Each input of a request's decision is derived when it changes, not
    per request: the crashed and straggling servers once per fault
    round, and each origin's cost row and each (origin, object) pair's
    nearest-first replicas on first use
    (:class:`~repro.serving.router.RequestRouter`; the pairs are read
    again after each re-auction).
    """
    cfg = config or ServeConfig()
    plan = faults or FaultSchedule.null()
    router = RequestRouter(instance, state.copy())
    bucket = TokenBucket(cfg.rate, cfg.burst)
    health = EwmaHealth(
        instance.n_servers,
        alpha=cfg.health_alpha,
        threshold=cfg.health_threshold,
    )
    quantiles = QuantileTracker(cfg.hedge_quantile)
    detector: Optional[DriftDetector] = None
    demand_ref = instance.reads.sum(axis=0) + instance.writes.sum(axis=0)
    if cfg.max_reauctions > 0 and demand_ref.sum() > 0:
        detector = DriftDetector(
            demand_ref,
            window=cfg.drift_window,
            threshold=cfg.drift_threshold,
            top_k=cfg.drift_top_k,
        )
    demand_total = float(demand_ref.sum())
    lat_rng = substream(seed, "serving/latency")
    backoff_rng = substream(seed, "serving/backoff")
    # Auto-calibrated deadline: cover the worst origin→replica link
    # plus an 8-mean-deviations noise allowance, so only genuinely
    # failed/straggling attempts time out.
    timeout = (
        cfg.timeout
        if cfg.timeout is not None
        else max(
            1.0,
            cfg.latency_scale * float(instance.cost.max())
            + 8.0 * cfg.latency_noise,
        )
    )

    report = ServeReport(
        workload=workload,
        n_requests=0 if n_requests is None else int(n_requests),
    )
    n_servers, n_objects = instance.n_servers, instance.n_objects
    # Observed demand since the last re-auction, as flat (server,
    # object) cells; counted into the override matrices a
    # drift-triggered sub-auction optimizes for.
    read_cells: list[int] = []
    write_cells: list[int] = []
    latencies: list[float] = []

    sink = ev.current()
    eventing = sink.enabled
    emit = sink.emit
    now = ev.now
    if eventing:
        emit(
            ev.ServeStart(
                now(),
                workload,
                report.n_requests,
                n_servers,
                n_objects,
                tuple(int(p) for p in instance.primaries),
                _replica_pairs(router.state),
            )
        )

    lat_scale, slowdown = cfg.latency_scale, cfg.straggler_factor
    noise = _exponentials(lat_rng, cfg.latency_noise).__next__
    # The fault round's crashed and straggling servers, indexed by id.
    down: list[bool] = []
    slow: list[bool] = []

    def attempt_latency(row: Sequence[float], target: int) -> float:
        lat = lat_scale * row[target] + noise()
        if slow[target]:
            lat *= slowdown
        return lat

    per_round = cfg.requests_per_round
    max_attempts = cfg.max_attempts
    hedging = cfg.hedge_enabled
    backoff = cfg.backoff
    score, healthy_at = health.score, health.threshold
    read_candidates, write_target = router.read_candidates, router.write_target
    cost_row = router.cost_row
    rnd = -1
    admitted = served = failed = shed = hedges = failovers = timeouts = 0
    for tick, req in enumerate(stream):
        client, origin, obj, kind = req.client, req.server, req.obj, req.kind
        # A malformed request is the caller's error, reported before it
        # moves any counter (plain comparisons: this runs per request).
        if kind != "read" and kind != "write":
            raise ConfigurationError(
                f"request at tick {tick}: kind must be 'read' or 'write', "
                f"got {kind!r}"
            )
        if not 0 <= origin < n_servers:
            raise ConfigurationError(
                f"request at tick {tick}: server must be in "
                f"[0, {n_servers}), got {origin}"
            )
        if not 0 <= obj < n_objects:
            raise ConfigurationError(
                f"request at tick {tick}: obj must be in "
                f"[0, {n_objects}), got {obj}"
            )
        if not bucket.admit():
            shed += 1
            if eventing:
                emit(ev.ShedEvent(now(), tick, client, obj, kind, bucket.tokens))
            continue
        admitted += 1
        if tick // per_round != rnd:
            rnd = tick // per_round
            down = plan.down_mask(rnd, n_servers).tolist()
            slow = plan.straggler_mask(rnd, n_servers).tolist()
        if detector is not None:
            cell = origin * n_objects + obj
            (read_cells if kind == "read" else write_cells).append(cell)

        if kind == "write":
            # Writes target the primary; when it is down, the
            # next-nearest live replica accepts the update as a hinted
            # hand-off (it hosts the object, so the write lands on a
            # legitimate copy and is forwarded once the primary heals).
            primary = write_target(obj)
            candidates = [primary] + read_candidates(
                origin, obj, exclude=(primary,)
            )
        else:
            candidates = read_candidates(origin, obj)
            healthy = [s for s in candidates if score[s] >= healthy_at]
            if len(healthy) < len(candidates):
                sick = [s for s in candidates if not score[s] >= healthy_at]
                if healthy and sick[0] == candidates[0]:
                    # The nearest replica is marked down: route around
                    # it without spending an attempt.
                    failovers += 1
                    if eventing:
                        emit(
                            ev.FailoverEvent(
                                now(), tick, obj, sick[0], healthy[0], "unhealthy"
                            )
                        )
                candidates = healthy + sick

        row = cost_row(origin)
        total_latency = 0.0
        replica = -1
        attempts = 0
        hedged = False
        # A request may retry a server it already tried (cycling) when
        # it has fewer distinct candidates than the attempt budget.
        n_candidates = len(candidates)
        for pos in range(max_attempts if n_candidates else 0):
            target = candidates[pos % n_candidates]
            attempts += 1
            lat = _INF if down[target] else attempt_latency(row, target)
            if lat > timeout:
                timeouts += 1
                health.record(target, False)
                total_latency += timeout
                if eventing:
                    emit(
                        ev.RequestTimeout(
                            now(), tick, obj, target, attempts, timeout
                        )
                    )
                if pos + 1 < max_attempts:
                    total_latency += backoff.delay(attempts, backoff_rng)
                    failovers += 1
                    if eventing:
                        emit(
                            ev.FailoverEvent(
                                now(),
                                tick,
                                obj,
                                target,
                                candidates[(pos + 1) % n_candidates],
                                "timeout",
                            )
                        )
                continue
            # Attempt succeeded.  Hedge slow reads to the next-nearest
            # live replica: the duplicate is issued once the first
            # attempt outlives the trailing quantile, and whichever
            # answer lands first wins.
            threshold = quantiles.quantile()
            final = lat
            winner = target
            if hedging and kind == "read" and lat > threshold:
                for backup in candidates:
                    if backup != target and not down[backup]:
                        lat2 = threshold + attempt_latency(row, backup)
                        hedges += 1
                        hedged = True
                        if lat2 < final:
                            final = lat2
                            winner = backup
                        if eventing:
                            emit(
                                ev.HedgeEvent(
                                    now(),
                                    tick,
                                    obj,
                                    target,
                                    backup,
                                    winner,
                                    threshold,
                                )
                            )
                        break
            total_latency += final
            replica = winner
            health.record(winner, True)
            quantiles.observe(final)
            break

        if replica >= 0:
            served += 1
            latencies.append(total_latency)
        else:
            failed += 1
        if eventing:
            emit(
                ev.RequestEvent(
                    now(),
                    tick,
                    client,
                    origin,
                    obj,
                    kind,
                    replica,
                    total_latency,
                    attempts,
                    hedged,
                    "ok" if replica >= 0 else "failed",
                )
            )

        # Drift check after serving: the router keeps answering from
        # the stale placement until the re-auction commits.
        if detector is not None and detector.observe(obj):
            objects = detector.drifted_objects()
            scale = demand_total / max(
                1.0, float(len(read_cells) + len(write_cells))
            )
            shape = (n_servers, n_objects)
            outcome = reauction_objects(
                instance,
                router.state,
                objects,
                reads=_cell_counts(read_cells, shape) * scale,
                writes=_cell_counts(write_cells, shape) * scale,
            )
            router.swap_state(outcome.state)
            report.reauctions += 1
            report.reauction_log.append(
                {
                    "tick": tick,
                    "objects": list(outcome.objects),
                    "added": len(outcome.added),
                    "removed": len(outcome.removed),
                    "otc_before": outcome.otc_before,
                    "otc_after": outcome.otc_after,
                    "rounds": outcome.rounds,
                }
            )
            if eventing:
                emit(
                    ev.ReauctionEvent(
                        now(),
                        tick,
                        "drift",
                        outcome.objects,
                        outcome.added,
                        outcome.removed,
                        outcome.otc_before,
                        outcome.otc_after,
                        outcome.rounds,
                    )
                )
            detector.rebase()
            read_cells.clear()
            write_cells.clear()
            if report.reauctions >= cfg.max_reauctions:
                detector = None

    report.admitted, report.served, report.failed = admitted, served, failed
    report.shed, report.hedges = shed, hedges
    report.failovers, report.timeouts = failovers, timeouts
    if report.n_requests == 0:
        report.n_requests = report.admitted + report.shed
    if latencies:
        arr = np.asarray(latencies)
        report.p50 = float(np.percentile(arr, 50))
        report.p99 = float(np.percentile(arr, 99))
        report.mean_latency = float(arr.mean())
    if eventing:
        emit(
            ev.ServeEnd(
                now(),
                report.served,
                report.shed,
                report.failed,
                report.hedges,
                report.failovers,
                report.reauctions,
                report.availability,
                report.p50,
                report.p99,
            )
        )
    return report
