"""Delta-maintained local-CoR oracle — the production engine.

Every production caller of the local CoR valuation (AGT-RAM's clearing
loop, the simulator's eager protocol, the sharded central, the auction
comparators, the axiom replay and the one-shot equilibrium) runs this
engine, built by :func:`make_local_engine`.
:class:`~repro.drp.benefit.BenefitEngine` keeps the full (M, N) matrix
and argmaxes it every round, O(M·N) per round; it stays as the
reference these bits are checked against (its docstring lists the few
places that still run it).

This engine maintains only each agent's dominant report — the
``(best_vals, best_objs)`` columns — and repairs them after an
allocation from a *dirty set* derived from the NN broadcast the protocol
already performs.  Why that is exact (and bit-for-bit identical to the
naive argmax, not merely equivalent):

* Within a run, a cell's value ``rstat[i,k] * nn_dist[i,k] - wterm[i,k]``
  only ever *decreases*: the NN broadcast relaxes ``nn_dist`` strictly
  downward and ``rstat >= 0``.  Eligibility only ever *shrinks* (capacity
  is consumed, replicas are never removed), and an ineligible cell is
  ``-inf``.
* After allocating object ``k`` on ``winner``, the only cells that
  changed are column ``k`` for the agents in the broadcast's ``closer``
  mask (value decreased) and row ``winner`` (eligibility shrank).
* A cached row argmax can therefore only go stale for (a) agents in
  ``closer`` whose cached best object *is* ``k`` — their winning cell
  just dropped — or (b) the winner itself.  For every other agent the
  cached best cell is untouched and every changed cell in its row moved
  *down*, so the full-row argmax — including numpy's first-index
  tie-break — is unchanged.  (If a changed cell had tied the cached max
  at a smaller index, the cached argmax would already have been that
  index.)

Dirty rows are rescanned with the same elementwise expression and the
same ``argmax(axis=1)`` the naive engine uses, so IEEE-754 semantics and
tie-breaks agree exactly — ``repro audit`` and the ``engine-equivalence``
CI job verify winners, second prices and event logs are identical.

Per round the engine costs O(M) for the argmax over cached bests plus
O(|dirty|·N) for the rescans, instead of O(M·N); empirically |dirty| is
a small constant, giving the ≥10x wall-clock win on the scaling presets
(see docs/performance.md).

The engine stores no eligibility mask: each rescan derives its row's
``sizes > residual_i | x[i]`` from the live state.  A stored mask would
hold the same bits: a row's eligibility changes only when its agent
wins, and every protocol then rescans that row (``notify_allocation``,
``refresh_server``) or resyncs.

A start from the primaries-only scheme (``n_replicas_added == 0``, the
key :meth:`~repro.drp.state.ReplicationState.otc_seed` uses) reads only
instance data — ``x`` holds the primaries, ``used`` the primary load,
``nn_dist`` the primary cost columns — so its bests are swept once per
instance, cached on it, and copied by every later start.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.drp.benefit import NEG_INF
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.obs import tracer as obs


def make_local_engine(
    instance: DRPInstance,
    state: ReplicationState,
    start: Optional[tuple[np.ndarray, np.ndarray]] = None,
):
    """The local-CoR oracle every production caller runs.

    ``start`` is the cached ``(values, objects)`` of an engine whose
    state holds the same bits as ``state`` (``state`` is its copy): the
    new engine starts from a copy of them, since a sweep would give the
    same bests.
    """
    return DeltaBenefitEngine(instance, state, start)


class DeltaBenefitEngine:
    """Dirty-set-maintained dominant reports over the local CoR oracle.

    API-compatible with :class:`~repro.drp.benefit.BenefitEngine`
    (``best_per_server`` / ``row`` / ``value_at`` / ``eligible_counts`` /
    ``refresh_object`` / ``refresh_server`` / ``notify_allocation`` /
    ``resync`` / ``matrix``), but stores only the per-agent best columns;
    rows and the full matrix are materialized on demand.
    """

    engine_name = "vectorized"

    #: Float64 cells per block of :meth:`_sweep` (256 KiB), so each
    #: block stays cache-resident across its multiply, subtract, mask and
    #: argmax passes and a full sweep allocates no (M, N) temporary.
    _BLOCK_CELLS = 1 << 15

    def __init__(
        self,
        instance: DRPInstance,
        state: ReplicationState,
        start: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ):
        if state.instance is not instance:
            raise ValueError("state does not belong to instance")
        with obs.current().span("delta_engine/init"):
            self.instance = instance
            self.state = state
            # Shared with BenefitEngine via the instance cache — the
            # *same* array objects, so cell arithmetic is bit-identical.
            self.rstat, self.wterm = instance.local_value_terms()  # (M, N)
            m, n = instance.n_servers, instance.n_objects
            self._best_vals = np.empty(m, dtype=np.float64)
            self._best_objs = np.empty(m, dtype=np.int64)
            # Scratch rows reused by every single-row rescan so the hot
            # loop allocates nothing.
            self._valbuf = np.empty(n, dtype=np.float64)
            self._maskbuf = np.empty(n, dtype=bool)
            rows = max(1, min(m, self._BLOCK_CELLS // max(n, 1)))
            self._blockbuf = np.empty((rows, n))
            self._blockmask = np.empty((rows, n), dtype=bool)
            # The tracer active at construction time is the one the run
            # executes under (the mechanism builds its engine inside the
            # capture scope); caching its enabled flag keeps contextvar
            # lookups out of the per-allocation repair path.
            self._counting = obs.current().enabled
            if start is None:
                self._rebuild()
            else:
                np.copyto(self._best_vals, start[0])
                np.copyto(self._best_objs, start[1])

    # -- maintenance --------------------------------------------------------

    def _rescan_row(self, i: int) -> None:
        """Recompute one agent's cached dominant report.

        Basic (view) indexing throughout — dirty sets are tiny (mean ~1
        row per round), so per-op numpy overhead dominates and fancy
        row-gathering would triple it.  Same elementwise expression and
        first-index argmax tie-break as the naive engine's full sweep,
        so every value is bit-identical.
        """
        state = self.state
        values = self._valbuf
        inel = self._maskbuf
        np.multiply(self.rstat[i], state.nn_dist[i], out=values)
        np.subtract(values, self.wterm[i], out=values)
        residual_i = self.instance.capacities[i] - state.used[i]
        np.greater(self.instance.sizes, residual_i, out=inel)
        np.logical_or(inel, state.x[i], out=inel)
        # Same value-wise result as np.where(eligible, values, NEG_INF).
        np.copyto(values, NEG_INF, where=inel)
        j = int(values.argmax())
        self._best_objs[i] = j
        self._best_vals[i] = values[j]

    def _rescan_rows(self, rows: np.ndarray) -> None:
        """Recompute the cached dominant report of the given rows.

        Same elementwise expression, masking and ``argmax(axis=1)``
        tie-break as the naive engine's full sweep, restricted to a row
        subset — the value in each cell is bit-identical.  Small sets go
        row-by-row (view indexing); large sets take one batched sweep.
        """
        n_rows = len(rows)
        if n_rows == 0:
            return
        if n_rows <= 8:
            for i in rows:
                self._rescan_row(int(i))
            return
        state = self.state
        values = self.rstat[rows] * state.nn_dist[rows] - self.wterm[rows]
        inel = self.instance.sizes > state.residual[rows, None]
        inel |= state.x[rows]
        masked = np.where(inel, NEG_INF, values)
        objs = masked.argmax(axis=1)
        self._best_objs[rows] = objs
        self._best_vals[rows] = masked[np.arange(n_rows), objs]

    def _rebuild(self) -> None:
        """Rebuild every cached best from the live state.

        A primaries-only state copies the instance's cached start
        (module docstring); the first such start on an instance sweeps
        and fills that cache.
        """
        if self.state.n_replicas_added:
            self._sweep()
            return
        cached = getattr(self.instance, "_primary_engine_bests", None)
        if cached is None:
            self._sweep()
            cached = (self._best_vals.copy(), self._best_objs.copy())
            object.__setattr__(self.instance, "_primary_engine_bests", cached)
        else:
            np.copyto(self._best_vals, cached[0])
            np.copyto(self._best_objs, cached[1])

    def _sweep(self) -> None:
        """Recompute every cached best, a block of rows at a time.

        Identical arithmetic and tie-break to :meth:`_rescan_rows` on
        ``arange(M)`` (the cells are elementwise, the argmax per row), but
        computed in place in reused cache-sized blocks — no row
        gathering and no (M, N) temporaries to allocate and page in.
        """
        state = self.state
        sizes = self.instance.sizes
        residual = state.residual[:, None]
        block = self._blockbuf
        step = block.shape[0]
        m = self.instance.n_servers
        for s in range(0, m, step):
            e = min(s + step, m)
            inel = self._blockmask[: e - s]
            np.greater(sizes, residual[s:e], out=inel)
            np.logical_or(inel, state.x[s:e], out=inel)
            values = block[: e - s]
            np.multiply(self.rstat[s:e], state.nn_dist[s:e], out=values)
            np.subtract(values, self.wterm[s:e], out=values)
            np.copyto(values, NEG_INF, where=inel)
            objs = values.argmax(axis=1)
            self._best_objs[s:e] = objs
            self._best_vals[s:e] = values[np.arange(e - s), objs]

    def notify_allocation(self, server: int, k: int) -> None:
        """Repair cached bests after ``state.add_replica(server, k)``.

        Dirty set: agents whose NN entry for ``k`` changed in the
        broadcast *and* whose cached best is ``k``, plus the winner
        (whose eligibility row shrank).  See the module docstring for
        the exactness argument.
        """
        dirty = self.state.last_nn_changed & (self._best_objs == k)
        dirty[server] = True
        rows = dirty.nonzero()[0]
        if len(rows) <= 8:
            for i in rows:
                self._rescan_row(int(i))
        else:
            self._rescan_rows(rows)
        if self._counting:
            tracer = obs.current()
            tracer.count("delta_engine/incremental_updates")
            tracer.count("delta_engine/dirty_rows", len(rows))

    def refresh_object(self, k: int) -> None:
        """Object k's column changed (NN relaxations, batch commits).

        Rescanning every agent whose cached best is ``k`` is exact: any
        other agent's changed cells in column ``k`` only moved down, so
        its cached argmax is untouched (module docstring argument).
        """
        self._rescan_rows(np.nonzero(self._best_objs == k)[0])

    def refresh_server(self, i: int) -> None:
        """Row i's eligibility changed (capacity consumed)."""
        self._rescan_row(i)

    def resync(self) -> None:
        """Full rebuild from the live state (lazy/stale-view protocols)."""
        self._rebuild()
        tracer = obs.current()
        if tracer.enabled:
            self._counting = True
            tracer.count("delta_engine/resyncs")

    # -- views --------------------------------------------------------------

    def best_per_server(self) -> tuple[np.ndarray, np.ndarray]:
        """Each agent's dominant report: (values, objects), both (M,).

        Returns copies — callers may hold them across allocations.
        """
        return self._best_vals.copy(), self._best_objs.copy()

    def best_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy view of the cached bests for the clearing loop.

        Mutated in place by :meth:`notify_allocation`; callers must not
        hold references across allocations.
        """
        return self._best_vals, self._best_objs

    def row(self, server: int) -> np.ndarray:
        """(N,) masked benefit row of one agent, materialized on demand."""
        values = (
            self.rstat[server] * self.state.nn_dist[server] - self.wterm[server]
        )
        eligible = (
            self.instance.sizes <= self.state.residual[server]
        ) & ~self.state.x[server]
        return np.where(eligible, values, NEG_INF)

    def value_at(self, server: int, k: int) -> float:
        """One masked benefit cell (``-inf`` when ineligible)."""
        if self.state.x[server, k] or (
            self.instance.sizes[k] > self.state.residual[server]
        ):
            return float(NEG_INF)
        return float(
            self.rstat[server, k] * self.state.nn_dist[server, k]
            - self.wterm[server, k]
        )

    def eligible_counts(self, servers: np.ndarray) -> np.ndarray:
        """Per-agent count of eligible objects (|L_i|) for the given rows."""
        eligible = (
            self.instance.sizes[None, :] <= self.state.residual[servers, None]
        ) & ~self.state.x[servers]
        return eligible.sum(axis=1)

    @property
    def matrix(self) -> np.ndarray:
        """Full (M, N) masked benefit matrix, materialized on demand.

        O(M·N) — for debugging and API compatibility only; the hot path
        never calls it.
        """
        values = self.rstat * self.state.nn_dist - self.wterm
        eligible = (
            self.instance.sizes[None, :] <= self.state.residual[:, None]
        ) & ~self.state.x
        return np.where(eligible, values, NEG_INF)

    def local_benefit(self, server: int, k: int) -> float:
        """Eq. 5 valuation of one cell, ignoring eligibility masking."""
        return float(
            self.rstat[server, k] * self.state.nn_dist[server, k]
            - self.wterm[server, k]
        )
