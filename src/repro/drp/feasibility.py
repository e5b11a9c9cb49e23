"""Structural invariant checks for instances and replication states.

Used by tests and by long-running experiments as cheap sanity guards; a
violated invariant raises :class:`repro.errors.InfeasibleInstanceError`
with a message naming the first offending server/object.
"""

from __future__ import annotations

import numpy as np

from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import InfeasibleInstanceError


def check_instance(instance: DRPInstance) -> None:
    """Re-validate the instance's structural constraints.

    :class:`DRPInstance` validates at construction; this re-checks (the
    arrays are mutable numpy objects, so corruption is possible) and is
    what property-based tests call after adversarial mutations.
    """
    DRPInstance(
        cost=instance.cost,
        reads=instance.reads,
        writes=instance.writes,
        sizes=instance.sizes,
        capacities=instance.capacities,
        primaries=instance.primaries,
        name=instance.name,
    )


#: Cost cells per gathered block of :func:`check_state`'s NN check
#: (8 MiB of float64), so a large scheme never gathers all its replica
#: columns at once.
_NN_CHECK_CELLS = 1 << 20


def check_state(state: ReplicationState) -> None:
    """Verify all replication-scheme invariants.

    1. every primary copy is present (the primary-copies policy),
    2. storage use matches X and never exceeds capacity,
    3. NN distances equal the true minimum over replica columns.
    """
    inst = state.instance
    n = inst.n_objects
    cols = np.arange(n)

    if not state.x[inst.primaries, cols].all():
        k = int(np.nonzero(~state.x[inst.primaries, cols])[0][0])
        raise InfeasibleInstanceError(f"primary copy of object {k} is missing")

    used = state.x @ inst.sizes
    if not np.array_equal(used, state.used):
        raise InfeasibleInstanceError("state.used is inconsistent with X")
    over = np.nonzero(used > inst.capacities)[0]
    if len(over):
        i = int(over[0])
        raise InfeasibleInstanceError(
            f"server {i} stores {int(used[i])} > capacity {int(inst.capacities[i])}"
        )

    # Every column holds its primary (checked above), so each object's
    # replica rows form a non-empty segment and one minimum.reduceat per
    # block of objects gives their true NN distances.
    cost_cols = inst.cost_col_rows()  # row j = c(., j)
    counts = state.x.sum(axis=0)
    ends = np.cumsum(counts)
    budget = max(1, _NN_CHECK_CELLS // max(inst.n_servers, 1))
    start = 0
    while start < n:
        before = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + budget, "right")))
        _, reps = np.nonzero(state.x[:, start:stop].T)
        starts = ends[start:stop] - counts[start:stop] - before
        true_dist = np.minimum.reduceat(cost_cols[reps], starts, axis=0)
        fresh = np.isclose(state.nn_dist[:, start:stop].T, true_dist).all(axis=1)
        if not fresh.all():
            k = start + int(np.flatnonzero(~fresh)[0])
            raise InfeasibleInstanceError(f"NN distances stale for object {k}")
        start = stop
