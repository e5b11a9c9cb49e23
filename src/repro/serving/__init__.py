"""repro.serving — the resilient online serving layer.

The mechanism places replicas; this package *serves* from them.  A
seeded, byte-reproducible request loop streams workload traffic
against an AGT-RAM placement and keeps answering under injected
failure:

* :mod:`repro.serving.router` — nearest-replica routing with failover
  ordering over the placement's NN structure,
* :mod:`repro.serving.policies` — backoff, admission control, hedge
  quantiles, EWMA replica health,
* :mod:`repro.serving.drift` — total-variation drift detection over
  the served object mix,
* :mod:`repro.serving.streams` — workload adapters (WC'98 trace,
  drifting popularity, flash crowds),
* :mod:`repro.serving.loop` — the serving loop tying it together,
  including the drift-triggered incremental re-auction
  (:mod:`repro.core.reauction`).

A :class:`~repro.runtime.scenario.Scenario` with a serving phase runs
it with SLO gates (``python -m repro resilience``).
"""

from repro.serving.policies import (
    BackoffPolicy,
    EwmaHealth,
    QuantileTracker,
    TokenBucket,
)
from repro.serving.router import RequestRouter
from repro.serving.drift import DriftDetector
from repro.serving.streams import (
    SERVE_WORKLOADS,
    ServeRequest,
    ServingTraffic,
    epoch_stream,
    make_stream,
    make_traffic,
    with_demand,
    worldcup_stream,
)
from repro.serving.loop import ServeConfig, ServeReport, serve

__all__ = [
    "BackoffPolicy",
    "TokenBucket",
    "QuantileTracker",
    "EwmaHealth",
    "RequestRouter",
    "DriftDetector",
    "ServeRequest",
    "ServingTraffic",
    "worldcup_stream",
    "epoch_stream",
    "make_traffic",
    "make_stream",
    "with_demand",
    "SERVE_WORKLOADS",
    "ServeConfig",
    "ServeReport",
    "serve",
]
