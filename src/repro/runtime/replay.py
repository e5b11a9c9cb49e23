"""Discrete request replay — an independent check of the OTC model.

The closed-form OTC (Eqs. 1–4) aggregates request counts; this module
re-derives the cost by walking a trace *one request at a time* against
a replication scheme, exactly as a deployed system would serve it:

* a read is shipped from the client's server's nearest replicator,
* a write travels to the primary, which broadcasts the new version to
  every other replicator.

Because the two computations share nothing but the instance data and the
scheme (X and its nearest-replica distances), their agreement (a tested
property) validates the whole pipeline: trace → aggregation → instance →
cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.workload.trace import Trace


@dataclass(frozen=True)
class RealizedCost:
    """Event-by-event accounting of a replayed trace."""

    read_cost: float
    write_cost: float
    n_reads: int
    n_writes: int
    n_transfers: int  # individual object shipments, broadcasts included

    @property
    def total(self) -> float:
        return self.read_cost + self.write_cost


def replay_requests(
    instance: DRPInstance,
    state: ReplicationState,
    servers: np.ndarray,
    objects: np.ndarray,
    is_read: np.ndarray,
) -> RealizedCost:
    """Replay per-request arrays (server, object, kind) against ``state``.

    Unlike the closed form, this walks requests individually; use
    :func:`replay_trace` for client-level traces.
    """
    servers = np.asarray(servers, dtype=np.int64)
    objects = np.asarray(objects, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    if not (len(servers) == len(objects) == len(is_read)):
        raise ConfigurationError("replay arrays must have equal length")
    if len(servers) and (
        servers.min() < 0
        or servers.max() >= instance.n_servers
        or objects.min() < 0
        or objects.max() >= instance.n_objects
    ):
        raise ConfigurationError("replay request out of range")

    c = instance.cost
    sizes = instance.sizes
    primaries = instance.primaries
    read_cost = 0.0
    write_cost = 0.0
    transfers = 0

    for i, k, rd in zip(servers, objects, is_read):
        o_k = float(sizes[k])
        if rd:
            read_cost += o_k * float(state.nn_dist[i, k])  # c(i, NN_ik)
            transfers += 1
        else:
            p = int(primaries[k])
            write_cost += o_k * float(c[i, p])  # ship update to primary
            transfers += 1
            for j in np.flatnonzero(state.x[:, k]):
                if j == i or j == p:
                    # The writer's own copy needs no return leg; the
                    # primary already holds the version it broadcasts.
                    continue
                write_cost += o_k * float(c[p, j])
                transfers += 1
    return RealizedCost(
        read_cost=read_cost,
        write_cost=write_cost,
        n_reads=int(is_read.sum()),
        n_writes=int(len(is_read) - is_read.sum()),
        n_transfers=transfers,
    )


def replay_trace(
    instance: DRPInstance,
    state: ReplicationState,
    trace: Trace,
    client_to_server: np.ndarray,
) -> RealizedCost:
    """Replay a client-level trace through the 1-M mapping."""
    client_to_server = np.asarray(client_to_server, dtype=np.int64)
    if client_to_server.shape != (trace.n_clients,):
        raise ConfigurationError(
            f"mapping has shape {client_to_server.shape}, "
            f"expected ({trace.n_clients},)"
        )
    servers = np.fromiter(
        (client_to_server[r.client] for r in trace), dtype=np.int64, count=len(trace)
    )
    objects = np.fromiter((r.obj for r in trace), dtype=np.int64, count=len(trace))
    is_read = np.fromiter(
        (r.kind == "read" for r in trace), dtype=bool, count=len(trace)
    )
    return replay_requests(instance, state, servers, objects, is_read)
