"""The serving loop that recomputed each request's inputs per request,
kept as the reference for :func:`repro.serving.loop.serve`.

``serve`` now derives each input of a request's decision when that input
changes: the crashed and straggling servers once per fault round, each
(origin, object) pair's ordered replicas once per installed placement,
the hedge quantile on a sorted Python list, the health scores as Python
floats, and the drift re-auction's read costs from the states' NN
distances.  The code below is the loop it replaced, unchanged except for
its names and shorter error messages (a test feeds it valid requests
only): the router that sorted each read's replicas afresh, the numpy
health scores and ``np.quantile`` tracker, the per-element
``epoch_stream`` decode and the re-auction that priced every object
from its replica list.  A test runs one campaign both ways and requires
equal event streams and reports.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.reauction import ReauctionOutcome, _affected, build_sub_instance
from repro.drp.cost import otc_from_read_terms, read_cost_terms
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.runtime.faults import FaultSchedule
from repro.serving.drift import DriftDetector
from repro.serving.loop import ServeConfig, ServeReport, _replica_pairs
from repro.serving.policies import TokenBucket
from repro.serving.streams import ServeRequest
from repro.utils.rng import SeedLike, substream
from repro.workload.drift import WorkloadEpoch


class ReferenceRouter:
    """Nearest-replica-first routing; each read sorts its replicas."""

    def __init__(self, instance: DRPInstance, state: ReplicationState):
        self.instance = instance
        self.state = state
        self._n_servers = instance.n_servers
        self._n_objects = instance.n_objects
        self._replicas: dict[int, list[int]] = {}
        self._cost_rows: dict[int, array] = {}

    def swap_state(self, state: ReplicationState) -> ReplicationState:
        previous = self.state
        self.state = state
        self._replicas = {}
        return previous

    def read_candidates(
        self, origin: int, obj: int, *, exclude: Iterable[int] = ()
    ) -> list[int]:
        if not (0 <= origin < self._n_servers and 0 <= obj < self._n_objects):
            raise ConfigurationError(f"bad request ({origin}, {obj})")
        reps = self._replicas.get(obj)
        if reps is None:
            reps = np.flatnonzero(self.state.x[:, obj]).tolist()
            self._replicas[obj] = reps
        dropped = {int(s) for s in exclude}
        if dropped:
            reps = [s for s in reps if s not in dropped]
        if len(reps) < 2:
            return list(reps)
        row = self._cost_rows.get(origin)
        if row is None:
            row = array("d", self.instance.cost[origin].tolist())
            self._cost_rows[origin] = row
        return sorted(reps, key=row.__getitem__)

    def write_target(self, obj: int) -> int:
        return int(self.instance.primaries[obj])


class ReferenceHealth:
    """Per-server EWMA success score held in a numpy array."""

    def __init__(
        self, n_servers: int, *, alpha: float = 0.3, threshold: float = 0.5
    ):
        self.alpha = alpha
        self.threshold = threshold
        self.score = np.ones(n_servers, dtype=np.float64)

    def record(self, server: int, ok: bool) -> None:
        s = self.score[server]
        self.score[server] = (1.0 - self.alpha) * s + self.alpha * (
            1.0 if ok else 0.0
        )

    def healthy(self, server: int) -> bool:
        return bool(self.score[server] >= self.threshold)


class ReferenceQuantileTracker:
    """Trailing-window quantile recomputed with ``np.quantile``."""

    def __init__(
        self,
        q: float = 0.95,
        *,
        window: int = 512,
        min_samples: int = 32,
        refresh: int = 64,
    ):
        self.q = q
        self.window = window
        self.min_samples = min_samples
        self.refresh = refresh
        self._buf = np.zeros(window, dtype=np.float64)
        self._n = 0
        self._cached = float("inf")
        self._since_refresh = 0

    def observe(self, latency: float) -> None:
        self._buf[self._n % self.window] = latency
        self._n += 1
        self._since_refresh += 1

    def quantile(self) -> float:
        if self._n < self.min_samples:
            return float("inf")
        if self._since_refresh >= self.refresh or self._cached == float("inf"):
            filled = self._buf[: min(self._n, self.window)]
            self._cached = float(np.quantile(filled, self.q))
            self._since_refresh = 0
        return self._cached


def reference_epoch_stream(
    epochs: Sequence[WorkloadEpoch],
    n_requests: int,
    *,
    seed: SeedLike = 0,
    chunk_size: int = 8_192,
) -> Iterator[ServeRequest]:
    """``epoch_stream`` decoding each sampled cell with scalar math."""
    rng = substream(seed, "serving/epoch-stream")
    per = n_requests // len(epochs)
    extra = n_requests - per * len(epochs)
    for e, epoch in enumerate(epochs):
        quota = per + (1 if e < extra else 0)
        w = epoch.workload
        m, n = w.reads.shape
        combined = np.concatenate([w.reads.ravel(), w.writes.ravel()])
        p = combined / combined.sum()
        emitted = 0
        while emitted < quota:
            batch = min(chunk_size, quota - emitted)
            idx = rng.choice(len(combined), size=batch, p=p)
            for flat in idx:
                is_write = flat >= m * n
                cell = int(flat) % (m * n)
                server, obj = divmod(cell, n)
                yield ServeRequest(
                    client=server,
                    server=server,
                    obj=obj,
                    kind="write" if is_write else "read",
                )
            emitted += batch


def reference_reauction_objects(
    instance: DRPInstance,
    state: ReplicationState,
    objects: Sequence[int],
    *,
    reads: Optional[np.ndarray] = None,
    writes: Optional[np.ndarray] = None,
) -> ReauctionOutcome:
    """``reauction_objects`` pricing every object from its replica list."""
    from repro.runtime.simulator import SemiDistributedSimulator

    ks = _affected(instance, objects)
    sub = build_sub_instance(instance, state, ks, reads=reads, writes=writes)
    if reads is None and writes is None:
        eval_instance = instance
    else:
        eval_instance = replace(
            instance,
            reads=instance.reads if reads is None else reads,
            writes=instance.writes if writes is None else writes,
        )
    sub_result = SemiDistributedSimulator().run(sub)
    merged = state.copy()
    merged.replace_columns(ks, sub_result.state.x)
    cols = ks.tolist()
    terms = read_cost_terms(eval_instance, state.x, range(instance.n_objects))
    otc_before = otc_from_read_terms(eval_instance, state.x, terms)
    for k, term in zip(cols, read_cost_terms(eval_instance, merged.x, cols)):
        terms[k] = term
    otc_after = otc_from_read_terms(eval_instance, merged.x, terms)

    was, now = state.x[:, ks], sub_result.state.x
    add_srv, add_col = np.nonzero(now & ~was)
    del_srv, del_col = np.nonzero(was & ~now)
    return ReauctionOutcome(
        state=merged,
        objects=tuple(int(k) for k in ks),
        added=tuple((int(s), int(ks[c])) for s, c in zip(add_srv, add_col)),
        removed=tuple((int(s), int(ks[c])) for s, c in zip(del_srv, del_col)),
        otc_before=otc_before,
        otc_after=otc_after,
        rounds=sub_result.rounds,
        sub_result=sub_result,
    )


def reference_serve(
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
    """``serve`` as it recomputed every input per request."""
    cfg = config or ServeConfig()
    plan = faults or FaultSchedule.null()
    router = ReferenceRouter(instance, state.copy())
    bucket = TokenBucket(cfg.rate, cfg.burst)
    health = ReferenceHealth(
        instance.n_servers,
        alpha=cfg.health_alpha,
        threshold=cfg.health_threshold,
    )
    quantiles = ReferenceQuantileTracker(cfg.hedge_quantile)
    detector: Optional[DriftDetector] = None
    demand_ref = instance.reads.sum(axis=0) + instance.writes.sum(axis=0)
    if cfg.max_reauctions > 0 and demand_ref.sum() > 0:
        detector = DriftDetector(
            demand_ref,
            window=cfg.drift_window,
            threshold=cfg.drift_threshold,
            top_k=cfg.drift_top_k,
        )
    lat_rng = substream(seed, "serving/latency")
    backoff_rng = substream(seed, "serving/backoff")
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
    obs_reads = np.zeros_like(instance.reads)
    obs_writes = np.zeros_like(instance.writes)
    latencies: list[float] = []

    sink = ev.current()
    if sink.enabled:
        sink.emit(
            ev.ServeStart(
                t=ev.now(),
                workload=workload,
                n_requests=report.n_requests,
                n_servers=instance.n_servers,
                n_objects=instance.n_objects,
                primaries=tuple(int(p) for p in instance.primaries),
                replicas=_replica_pairs(router.state),
            )
        )

    def attempt_latency(origin: int, target: int, rnd: int) -> float:
        lat = cfg.latency_scale * float(
            instance.cost[origin, target]
        ) + float(lat_rng.exponential(cfg.latency_noise))
        if plan.is_straggler(rnd, target):
            lat *= cfg.straggler_factor
        return lat

    n_servers, n_objects = instance.n_servers, instance.n_objects
    for tick, req in enumerate(stream):
        if req.kind != "read" and req.kind != "write":
            raise ConfigurationError(f"request at tick {tick}: bad kind")
        if not 0 <= req.server < n_servers:
            raise ConfigurationError(f"request at tick {tick}: bad server")
        if not 0 <= req.obj < n_objects:
            raise ConfigurationError(f"request at tick {tick}: bad obj")
        rnd = tick // cfg.requests_per_round
        if not bucket.admit():
            report.shed += 1
            if sink.enabled:
                sink.emit(
                    ev.ShedEvent(
                        t=ev.now(),
                        tick=tick,
                        client=req.client,
                        obj=req.obj,
                        kind=req.kind,
                        tokens=bucket.tokens,
                    )
                )
            continue
        report.admitted += 1
        if req.kind == "read":
            obs_reads[req.server, req.obj] += 1
        else:
            obs_writes[req.server, req.obj] += 1

        if req.kind == "write":
            primary = router.write_target(req.obj)
            others = router.read_candidates(
                req.server, req.obj, exclude=(primary,)
            )
            candidates = [primary] + others
        else:
            ordered = router.read_candidates(req.server, req.obj)
            healthy = [s for s in ordered if health.healthy(s)]
            sick = [s for s in ordered if not health.healthy(s)]
            if healthy and sick and sick[0] == ordered[0]:
                report.failovers += 1
                if sink.enabled:
                    sink.emit(
                        ev.FailoverEvent(
                            t=ev.now(),
                            tick=tick,
                            obj=req.obj,
                            from_server=sick[0],
                            to_server=healthy[0],
                            reason="unhealthy",
                        )
                    )
            candidates = healthy + sick

        plan_targets = [
            candidates[a % len(candidates)]
            for a in range(cfg.max_attempts)
        ] if candidates else []

        total_latency = 0.0
        replica = -1
        attempts = 0
        hedged = False
        for pos, target in enumerate(plan_targets):
            attempts += 1
            crashed = plan.agent_down(target, rnd)
            lat = (
                float("inf")
                if crashed
                else attempt_latency(req.server, target, rnd)
            )
            if lat > timeout:
                report.timeouts += 1
                health.record(target, False)
                total_latency += timeout
                if sink.enabled:
                    sink.emit(
                        ev.RequestTimeout(
                            t=ev.now(),
                            tick=tick,
                            obj=req.obj,
                            replica=target,
                            attempt=attempts,
                            deadline=timeout,
                        )
                    )
                if pos + 1 < len(plan_targets):
                    total_latency += cfg.backoff.delay(attempts, backoff_rng)
                    report.failovers += 1
                    if sink.enabled:
                        sink.emit(
                            ev.FailoverEvent(
                                t=ev.now(),
                                tick=tick,
                                obj=req.obj,
                                from_server=target,
                                to_server=plan_targets[pos + 1],
                                reason="timeout",
                            )
                        )
                continue
            threshold = quantiles.quantile()
            final = lat
            winner = target
            if (
                cfg.hedge_enabled
                and req.kind == "read"
                and lat > threshold
            ):
                backups = [
                    s
                    for s in candidates
                    if s != target and not plan.agent_down(s, rnd)
                ]
                if backups:
                    backup = backups[0]
                    lat2 = threshold + attempt_latency(
                        req.server, backup, rnd
                    )
                    report.hedges += 1
                    hedged = True
                    if lat2 < final:
                        final = lat2
                        winner = backup
                    if sink.enabled:
                        sink.emit(
                            ev.HedgeEvent(
                                t=ev.now(),
                                tick=tick,
                                obj=req.obj,
                                primary=target,
                                backup=backup,
                                winner=winner,
                                threshold=threshold,
                            )
                        )
            total_latency += final
            replica = winner
            health.record(winner, True)
            quantiles.observe(final)
            break

        ok = replica >= 0
        if ok:
            report.served += 1
            latencies.append(total_latency)
        else:
            report.failed += 1
        if sink.enabled:
            sink.emit(
                ev.RequestEvent(
                    t=ev.now(),
                    tick=tick,
                    client=req.client,
                    server=req.server,
                    obj=req.obj,
                    kind=req.kind,
                    replica=replica,
                    latency=total_latency,
                    attempts=attempts,
                    hedged=hedged,
                    outcome="ok" if ok else "failed",
                )
            )

        if detector is not None and detector.observe(req.obj):
            objects = detector.drifted_objects()
            scale = float(demand_ref.sum()) / max(
                1.0, float(obs_reads.sum() + obs_writes.sum())
            )
            outcome = reference_reauction_objects(
                instance,
                router.state,
                objects,
                reads=obs_reads * scale,
                writes=obs_writes * scale,
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
            if sink.enabled:
                sink.emit(
                    ev.ReauctionEvent(
                        t=ev.now(),
                        tick=tick,
                        trigger="drift",
                        objects=outcome.objects,
                        added=outcome.added,
                        removed=outcome.removed,
                        otc_before=outcome.otc_before,
                        otc_after=outcome.otc_after,
                        rounds=outcome.rounds,
                    )
                )
            detector.rebase()
            obs_reads[:] = 0.0
            obs_writes[:] = 0.0
            if report.reauctions >= cfg.max_reauctions:
                detector = None

    if report.n_requests == 0:
        report.n_requests = report.admitted + report.shed
    if latencies:
        arr = np.asarray(latencies)
        report.p50 = float(np.percentile(arr, 50))
        report.p99 = float(np.percentile(arr, 99))
        report.mean_latency = float(arr.mean())
    if sink.enabled:
        sink.emit(
            ev.ServeEnd(
                t=ev.now(),
                served=report.served,
                shed=report.shed,
                failed=report.failed,
                hedges=report.hedges,
                failovers=report.failovers,
                reauctions=report.reauctions,
                availability=report.availability,
                p50=report.p50,
                p99=report.p99,
            )
        )
    return report
