"""Workload adapters: turn workload generators into serving traffic.

The serving loop consumes a flat iterator of :class:`ServeRequest`
records — (client, origin server, object, read/write) — so every
workload family plugs in through one of the adapters here:

* :func:`worldcup_stream` — the WC'98-style synthetic trace, streamed
  chunk-by-chunk (:meth:`~repro.workload.worldcup.WorldCupLogGenerator.iter_requests`)
  with clients mapped onto servers by the paper's 1-M random mapping.
  Stationary: the drift detector should stay quiet.
* :func:`epoch_stream` — samples requests from a sequence of
  :class:`~repro.workload.drift.WorkloadEpoch` read/write matrices
  (drifting popularity or flash crowds), so the served mix *changes*
  mid-campaign and exercises the re-auction path.

Every random draw derives from the campaign seed through
:func:`repro.utils.rng.substream`, so arming one adapter never
perturbs another subsystem's stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.drp.instance import DRPInstance
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, substream
from repro.workload.clients import map_clients_to_servers
from repro.workload.drift import WorkloadEpoch, drifting_workloads
from repro.workload.flashcrowd import flash_crowd_workloads
from repro.workload.worldcup import WorldCupLogGenerator

__all__ = [
    "ServeRequest",
    "ServingTraffic",
    "worldcup_stream",
    "epoch_stream",
    "make_traffic",
    "make_stream",
    "with_demand",
    "SERVE_WORKLOADS",
]


@dataclass(unsafe_hash=True)
class ServeRequest:
    """One unit of serving traffic, already anchored to an origin server."""

    client: int
    server: int
    obj: int
    kind: str  # "read" | "write"


def worldcup_stream(
    n_requests: int,
    *,
    n_servers: int,
    n_objects: int,
    seed: SeedLike = 0,
    n_clients: int = 100,
    write_fraction: float = 0.05,
    chunk_size: int = 65_536,
) -> Iterator[ServeRequest]:
    """Stream WC'98-style traffic mapped onto ``n_servers`` origins."""
    if n_requests < 0:
        raise ConfigurationError("n_requests must be >= 0")
    gen = WorldCupLogGenerator(
        n_objects=n_objects,
        n_clients=n_clients,
        write_fraction=write_fraction,
        seed=substream(seed, "serving/worldcup"),
    )
    mapping = map_clients_to_servers(
        n_clients, n_servers, seed=substream(seed, "serving/client-map")
    )
    origin = mapping.tolist()
    for req in gen.iter_requests(n_requests, chunk_size=chunk_size):
        yield ServeRequest(req.client, origin[req.client], req.obj, req.kind)


def _epoch_requests(
    epoch: WorkloadEpoch, quota: int, rng: np.random.Generator, chunk_size: int
) -> Iterator[ServeRequest]:
    """``quota`` requests drawn from one epoch's demand cells (reads,
    then writes, row-major), ``chunk_size`` at a time.

    Each chunk draws the cells ``rng.choice(len(p), size=chunk, p=p)``
    would, from the CDF built once the way ``choice`` builds it, after
    ``choice``'s own checks on ``p``.  The cell arrays are dropped once
    the CDF is built, and the CDF when the epoch ends, so at most two
    of them are alive at a time.
    """
    w = epoch.workload
    m, n = w.reads.shape
    cells = np.concatenate([w.reads.ravel(), w.writes.ravel()])
    total = cells.sum()
    if total <= 0:
        raise ConfigurationError(f"epoch {epoch.index} has no demand")
    p = cells / total
    del cells
    rng.choice(len(p), size=0, p=p)  # draws nothing
    cdf = p.cumsum()
    del p
    cdf /= cdf[-1]
    emitted = 0
    while emitted < quota:
        batch = min(chunk_size, quota - emitted)
        idx = cdf.searchsorted(rng.random(batch), side="right")
        servers, objs = np.divmod(idx % (m * n), n)
        for server, obj, is_write in zip(
            servers.tolist(), objs.tolist(), (idx >= m * n).tolist()
        ):
            yield ServeRequest(server, server, obj, "write" if is_write else "read")
        emitted += batch


def epoch_stream(
    epochs: Sequence[WorkloadEpoch],
    n_requests: int,
    *,
    seed: SeedLike = 0,
    chunk_size: int = 8_192,
) -> Iterator[ServeRequest]:
    """Sample serving traffic from each epoch's demand matrices in turn.

    ``n_requests`` is split as evenly as possible across the epochs;
    within an epoch, each request draws a (server, object, kind) cell
    with probability proportional to the epoch's read/write weight for
    it.  The origin server doubles as the client id.  Cells are drawn
    ``chunk_size`` at a time (>= 1) and each chunk is decoded into
    servers, objects and kinds on arrays, from the epoch's CDF built
    once (see :func:`_epoch_requests`).
    """
    if not epochs:
        raise ConfigurationError("need at least one epoch")
    if n_requests < 0:
        raise ConfigurationError("n_requests must be >= 0")
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    rng = substream(seed, "serving/epoch-stream")
    per = n_requests // len(epochs)
    extra = n_requests - per * len(epochs)
    for e, epoch in enumerate(epochs):
        quota = per + (1 if e < extra else 0)
        yield from _epoch_requests(epoch, quota, rng, chunk_size)


#: Workload families a scenario's ``workload`` accepts.
SERVE_WORKLOADS = ("worldcup", "drift", "flashcrowd")


@dataclass
class ServingTraffic:
    """A serving stream plus the demand profile its *opening* traffic
    follows.

    ``reads`` / ``writes`` are the (M, N) matrices the placement should
    be auctioned for: the exact epoch-0 demand for epoch workloads, a
    sampled estimate for the WC'98 stream.  A placement built for a
    demand profile unrelated to the traffic it serves fails over
    constantly — auctioning against this profile is what makes the
    serving SLOs meaningful (and makes later epochs register as
    *drift* rather than noise)."""

    workload: str
    stream: Iterator[ServeRequest]
    reads: np.ndarray
    writes: np.ndarray


def with_demand(
    instance: DRPInstance, traffic: ServingTraffic
) -> DRPInstance:
    """``instance`` with its demand matrices replaced by the traffic's.

    Topology, sizes, capacities, and primaries stay; only reads/writes
    change — the instance to auction before serving ``traffic``.
    """
    from dataclasses import replace

    return replace(
        instance,
        reads=traffic.reads,
        writes=traffic.writes,
        name=f"{instance.name}/{traffic.workload}",
    )


def make_traffic(
    workload: str,
    instance: DRPInstance,
    n_requests: int,
    *,
    seed: SeedLike = 0,
    n_epochs: int = 4,
    calibration: int = 20_000,
) -> ServingTraffic:
    """Build the named workload's serving traffic over ``instance``.

    ``drift`` / ``flashcrowd`` generate ``n_epochs`` epochs whose
    demand moves mid-campaign — the traffic the drift detector and
    re-auction are there for; ``worldcup`` is stationary.  For the
    WC'98 stream the demand profile is estimated by aggregating the
    first ``min(n_requests, calibration)`` requests (an identically
    seeded prefix of the same stream).
    """
    m, n = instance.n_servers, instance.n_objects
    if workload == "worldcup":
        reads = np.zeros((m, n), dtype=np.float64)
        writes = np.zeros((m, n), dtype=np.float64)
        for req in worldcup_stream(
            min(n_requests, calibration), n_servers=m, n_objects=n, seed=seed
        ):
            if req.kind == "read":
                reads[req.server, req.obj] += 1
            else:
                writes[req.server, req.obj] += 1
        return ServingTraffic(
            workload=workload,
            stream=worldcup_stream(
                n_requests, n_servers=m, n_objects=n, seed=seed
            ),
            reads=reads,
            writes=writes,
        )
    if workload == "drift":
        epochs = drifting_workloads(
            m,
            n,
            n_epochs,
            total_requests=max(1, n_requests // max(1, n_epochs)),
            seed=substream(seed, "serving/drift-epochs"),
        )
    elif workload == "flashcrowd":
        epochs, _crowds = flash_crowd_workloads(
            m,
            n,
            n_epochs,
            total_requests=max(1, n_requests // max(1, n_epochs)),
            seed=substream(seed, "serving/crowd-epochs"),
        )
    else:
        raise ConfigurationError(
            f"unknown serving workload {workload!r}; pick from "
            f"{SERVE_WORKLOADS}"
        )
    first = epochs[0].workload
    return ServingTraffic(
        workload=workload,
        stream=epoch_stream(epochs, n_requests, seed=seed),
        reads=first.reads.astype(np.float64),
        writes=first.writes.astype(np.float64),
    )


def make_stream(
    workload: str,
    instance: DRPInstance,
    n_requests: int,
    *,
    seed: SeedLike = 0,
    n_epochs: int = 4,
) -> Iterator[ServeRequest]:
    """Just the stream of :func:`make_traffic` (tests, ad-hoc runs)."""
    return make_traffic(
        workload, instance, n_requests, seed=seed, n_epochs=n_epochs
    ).stream
