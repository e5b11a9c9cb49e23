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


#: ``read_candidates``' default ``exclude``: nothing to drop.
_NO_EXCLUDE: tuple[int, ...] = ()


class RequestRouter:
    """Nearest-replica-first routing with failover ordering.

    Each object's replica list, and each (origin, object) pair's
    nearest-first order of it, is read off the installed placement
    once, on first use, and kept until :meth:`swap_state` installs
    another one.  An installed state must therefore not be mutated in
    place: install a new state instead (``serve`` installs private
    copies).
    """

    def __init__(self, instance: DRPInstance, state: ReplicationState):
        self.instance = instance
        self.state = state
        self._n_servers = instance.n_servers
        self._n_objects = instance.n_objects
        #: object -> its replica servers in ``state`` (python ints, ascending)
        self._replicas: dict[int, list[int]] = {}
        #: origin * N + object -> that object's replicas, nearest first
        self._ordered: dict[int, tuple[int, ...]] = {}
        #: origin -> its row of the cost matrix (indexing yields python floats)
        self._cost_rows: dict[int, array] = {}

    def swap_state(self, state: ReplicationState) -> ReplicationState:
        """Install a new placement; returns the one it replaced."""
        previous = self.state
        self.state = state
        self._replicas = {}
        self._ordered = {}
        return previous

    def _reject(self, origin: int, obj: int) -> None:
        if not 0 <= origin < self._n_servers:
            raise ConfigurationError(
                f"origin server must be in [0, {self._n_servers}), got {origin}"
            )
        raise ConfigurationError(
            f"object id must be in [0, {self._n_objects}), got {obj}"
        )

    def cost_row(self, origin: int) -> array:
        """``origin``'s row of the cost matrix (indexing it yields python
        floats), read off the instance on first use."""
        row = self._cost_rows.get(origin)
        if row is None:
            row = array("d", self.instance.cost[origin].tolist())
            self._cost_rows[origin] = row
        return row

    def _order(self, origin: int, obj: int) -> tuple[int, ...]:
        """``obj``'s replicas by link cost from ``origin``."""
        reps = self._replicas.get(obj)
        if reps is None:
            reps = np.flatnonzero(self.state.x[:, obj]).tolist()
            self._replicas[obj] = reps
        if len(reps) < 2:
            return tuple(reps)
        # A stable sort of the ascending ids: equal costs keep the lower
        # server id first, the order ``np.lexsort((reps, costs))`` gives.
        return tuple(sorted(reps, key=self.cost_row(origin).__getitem__))

    def read_candidates(
        self, origin: int, obj: int, *, exclude: Iterable[int] = _NO_EXCLUDE
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
        key = origin * self._n_objects + obj
        ordered = self._ordered.get(key)
        if ordered is None:
            ordered = self._order(origin, obj)
            self._ordered[key] = ordered
        if exclude is _NO_EXCLUDE:
            return list(ordered)
        # Dropping servers from a stable sort's output leaves the order
        # sorting the remaining servers would give.
        dropped = {int(s) for s in exclude}
        return [s for s in ordered if s not in dropped]

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
