"""Incremental re-auction: re-run the mechanism for a subset of objects.

The serving layer's drift detector flags objects whose observed demand
has moved away from the demand the current placement was auctioned for.
Re-running the whole game from scratch would stall serving for the full
O(MN) protocol; instead we carve out a **sub-instance** containing only
the affected objects and re-auction those, holding every other object's
replicas fixed.

The construction preserves feasibility by design:

* the sub-instance keeps the full server set and cost matrix (distances
  to replicas of *unaffected* objects never change);
* each server's capacity is reduced by the storage its unaffected
  replicas keep occupying, so the sub-auction can never oversubscribe a
  server — and the affected objects' primary copies always fit, because
  they are stored right now under the same accounting;
* the affected columns of the winning sub-scheme are merged back into
  a copy of the state, and only those columns' NN tables are rebuilt
  (:meth:`~repro.drp.state.ReplicationState.replace_columns`).

The result carries the replica **delta** — (server, object) pairs added
and removed relative to the pre-auction state — which is exactly what
the serving router swaps in and the serving audit replays
(:class:`repro.obs.events.ReauctionEvent`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.drp.cost import otc_from_read_terms, read_cost_terms
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.result import PlacementResult
from repro.utils.validation import check_index

__all__ = ["ReauctionOutcome", "build_sub_instance", "reauction_objects"]


@dataclass
class ReauctionOutcome:
    """Outcome of one incremental re-auction.

    ``added`` / ``removed`` are (server, object) replica pairs in the
    *full* instance's object numbering, relative to the pre-auction
    state.  Primary copies never appear in ``removed``.
    """

    state: ReplicationState
    objects: tuple[int, ...]
    added: tuple[tuple[int, int], ...]
    removed: tuple[tuple[int, int], ...]
    otc_before: float
    otc_after: float
    rounds: int
    sub_result: PlacementResult

    @property
    def improved(self) -> bool:
        return self.otc_after < self.otc_before


def _affected(instance: DRPInstance, objects: Sequence[int]) -> np.ndarray:
    """The sorted distinct object ids; each must be an integer (not a
    bool, not a float) in ``[0, N)``."""
    ids = [check_index(k, "object id", instance.n_objects) for k in objects]
    if not ids:
        raise ConfigurationError("reauction needs at least one object")
    return np.unique(np.asarray(ids, dtype=np.int64))


def _read_terms(instance: DRPInstance, state: ReplicationState) -> list[float]:
    """:func:`~repro.drp.cost.read_cost_terms` of every object under
    ``state.x``, reading the nearest-replica distances off
    ``state.nn_dist`` instead of gathering each object's replica columns.

    Same bits: ``nn_dist[:, k]`` holds the very minimum the replica
    columns give, and each dot keeps ``read_cost_terms``' operand
    strides — the primary's cost column for a lone copy, else a
    contiguous distance column — since BLAS sums a pair of unit-stride
    vectors in another order than a strided pair.
    """
    sizes = instance.sizes.tolist()
    primaries = instance.primaries.tolist()
    reads = instance.reads
    cost_cols = instance.cost.T  # row p views column p, strides and all
    dist = state.nn_dist
    lone = (state.x.sum(axis=0) == 1).tolist()
    terms = []
    for k in range(instance.n_objects):
        d = cost_cols[primaries[k]] if lone[k] else dist[:, k].copy()
        terms.append(float(sizes[k]) * float(reads[:, k] @ d))
    return terms


def build_sub_instance(
    instance: DRPInstance,
    state: ReplicationState,
    objects: Sequence[int],
    *,
    reads: Optional[np.ndarray] = None,
    writes: Optional[np.ndarray] = None,
) -> DRPInstance:
    """The induced DRP over ``objects``, holding the rest of ``state``.

    ``reads`` / ``writes`` optionally replace the instance's demand
    matrices — full (M, N) arrays (the serving loop passes its observed
    demand counts); only the affected columns are used.
    """
    ks = _affected(instance, objects)
    r = instance.reads if reads is None else np.asarray(reads, dtype=np.float64)
    w = instance.writes if writes is None else np.asarray(writes, dtype=np.float64)
    m, n = instance.n_servers, instance.n_objects
    if r.shape != (m, n) or w.shape != (m, n):
        raise ConfigurationError(
            f"demand overrides must have shape ({m}, {n}); got "
            f"{r.shape} and {w.shape}"
        )
    # Capacity left once every *unaffected* replica keeps its storage.
    used_unaffected = state.used - state.x[:, ks] @ instance.sizes[ks]
    return DRPInstance(
        cost=instance.cost,
        reads=r[:, ks],
        writes=w[:, ks],
        sizes=instance.sizes[ks],
        capacities=instance.capacities - used_unaffected,
        primaries=instance.primaries[ks],
        name=f"{instance.name}/reauction",
    )


def reauction_objects(
    instance: DRPInstance,
    state: ReplicationState,
    objects: Sequence[int],
    *,
    reads: Optional[np.ndarray] = None,
    writes: Optional[np.ndarray] = None,
    placer: Optional[Callable[[DRPInstance], PlacementResult]] = None,
) -> ReauctionOutcome:
    """Re-auction ``objects`` and merge the winners back into ``state``.

    ``placer`` maps the sub-instance to a :class:`PlacementResult`; by
    default the semi-distributed simulator runs the full message-level
    protocol (its nested run_start/run_end event stream audits cleanly
    inside a serving campaign's log).  ``state`` is not mutated — the
    merged scheme comes back in the outcome.

    ``otc_before`` / ``otc_after`` are evaluated against the demand the
    re-auction optimized for (the overrides when given), so
    :attr:`ReauctionOutcome.improved` measures the gain on the demand
    that actually triggered the re-auction.  They equal
    :func:`~repro.drp.cost.otc_of_matrix` of the two schemes bit for
    bit; only the re-auctioned objects' read terms are computed twice.
    """
    ks = _affected(instance, objects)
    sub = build_sub_instance(
        instance, state, ks, reads=reads, writes=writes
    )
    if reads is None and writes is None:
        eval_instance = instance
    else:
        from dataclasses import replace

        eval_instance = replace(
            instance,
            reads=instance.reads if reads is None else reads,
            writes=instance.writes if writes is None else writes,
        )
    if placer is None:
        from repro.runtime.simulator import SemiDistributedSimulator

        sub_result = SemiDistributedSimulator().run(sub)
    else:
        sub_result = placer(sub)

    merged = state.copy()
    merged.replace_columns(ks, sub_result.state.x)
    # ``merged`` differs from ``state`` only in the re-auctioned
    # columns, so every other object's read term is shared.
    cols = ks.tolist()
    terms = _read_terms(eval_instance, state)
    otc_before = otc_from_read_terms(eval_instance, state.x, terms)
    for k, term in zip(cols, read_cost_terms(eval_instance, merged.x, cols)):
        terms[k] = term
    otc_after = otc_from_read_terms(eval_instance, merged.x, terms)

    was, now = state.x[:, ks], sub_result.state.x
    add_srv, add_col = np.nonzero(now & ~was)
    del_srv, del_col = np.nonzero(was & ~now)
    added = tuple(
        (int(s), int(ks[c])) for s, c in zip(add_srv, add_col)
    )
    removed = tuple(
        (int(s), int(ks[c])) for s, c in zip(del_srv, del_col)
    )
    return ReauctionOutcome(
        state=merged,
        objects=tuple(int(k) for k in ks),
        added=added,
        removed=removed,
        otc_before=otc_before,
        otc_after=otc_after,
        rounds=sub_result.rounds,
        sub_result=sub_result,
    )
