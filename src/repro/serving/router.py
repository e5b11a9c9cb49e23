"""Request routing over the placement's NN structure.

The router answers one question per request: *which server should this
origin read ``obj`` from (or write it to) right now?*  Reads prefer the
nearest replica by link cost — the same metric the mechanism's NN
tables encode — and fall back outward through the remaining replicas,
ending at the primary (which, per the paper, can never drop its copy).
Writes always target the primary, matching the cost model's
ship-to-primary-then-broadcast semantics (Eq. 2).

The placement is swappable: a drift-triggered re-auction builds a new
:class:`~repro.drp.state.ReplicationState` off to the side and
:meth:`RequestRouter.swap_state` installs it atomically between
requests, so the router serves the stale placement while the
re-auction runs.
"""

from __future__ import annotations

from array import array
from typing import Iterable

import numpy as np

from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError

__all__ = ["RequestRouter"]


class RequestRouter:
    """Nearest-replica-first routing with failover ordering.

    Each object's replica list is read off the installed placement once,
    on first use, and kept until :meth:`swap_state` installs another
    one.  An installed state must therefore not be mutated in place:
    install a new state instead (``serve`` installs private copies).
    """

    def __init__(self, instance: DRPInstance, state: ReplicationState):
        self.instance = instance
        self.state = state
        self._n_servers = instance.n_servers
        self._n_objects = instance.n_objects
        #: object -> its replica servers in ``state`` (python ints, ascending)
        self._replicas: dict[int, list[int]] = {}
        #: origin -> its row of the cost matrix (indexing yields python floats)
        self._cost_rows: dict[int, array] = {}

    def swap_state(self, state: ReplicationState) -> ReplicationState:
        """Install a new placement; returns the one it replaced."""
        previous = self.state
        self.state = state
        self._replicas = {}
        return previous

    def _reject(self, origin: int, obj: int) -> None:
        if not 0 <= origin < self._n_servers:
            raise ConfigurationError(
                f"origin server must be in [0, {self._n_servers}), got {origin}"
            )
        raise ConfigurationError(
            f"object id must be in [0, {self._n_objects}), got {obj}"
        )

    def read_candidates(
        self, origin: int, obj: int, *, exclude: Iterable[int] = ()
    ) -> list[int]:
        """Replica servers for a read, nearest first, primary included.

        Ordered by link cost from ``origin`` (ties break to the lower
        server id, keeping the order deterministic); ``exclude`` drops
        servers the caller already knows are unusable (crashed,
        unhealthy, or already tried).  Out-of-range ids raise
        :class:`~repro.errors.ConfigurationError`.
        """
        # Plain comparisons: this runs once per request.
        if not (0 <= origin < self._n_servers and 0 <= obj < self._n_objects):
            self._reject(origin, obj)
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
        # A stable sort of the ascending ids: equal costs keep the lower
        # server id first, the order ``np.lexsort((reps, costs))`` gives.
        return sorted(reps, key=row.__getitem__)

    def write_target(self, obj: int) -> int:
        """Writes go to the primary (the cost model's update path)."""
        if not 0 <= obj < self._n_objects:
            self._reject(0, obj)
        return int(self.instance.primaries[obj])

    def route_read(
        self, origin: int, obj: int, *, exclude: Iterable[int] = ()
    ) -> int:
        """Best read target, or ``-1`` when every replica is excluded."""
        candidates = self.read_candidates(origin, obj, exclude=exclude)
        return candidates[0] if candidates else -1
