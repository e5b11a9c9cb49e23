"""Reference implementations the lean replication state is checked against.

``ReplicationState`` keeps an (M, N) ``nn_server`` table beside
``nn_dist``, and ``DeltaBenefitEngine`` a stored (M, N) eligibility mask
``_inel`` that it patches one row per allocation and sweeps from scratch
on every start.  They are kept verbatim, with ``check_state``'s
per-object loop and ``replay_requests``, which prices a read as
``c[i, nn_server[i, k]]``: ``tests/test_drp_lean_state.py`` drives both
versions through the same operations and requires equal schemes, NN
distances, bests and replay costs, and ``check_state`` must reject a
tampered state with the same message as the loop.  The loop here has no
NN-server checks; they read the table the production state no longer
keeps.
"""

from __future__ import annotations

import numpy as np

from repro.drp.benefit import NEG_INF
from repro.drp.instance import DRPInstance
from repro.errors import CapacityError, ConfigurationError, InfeasibleInstanceError
from repro.obs import tracer as obs
from repro.runtime.replay import RealizedCost


class ReplicationState:
    """Replication scheme over a :class:`~repro.drp.instance.DRPInstance`.

    Attributes
    ----------
    x:
        (M, N) boolean replication matrix; ``x[P_k, k]`` is always True.
    nn_dist:
        (M, N) float; ``nn_dist[i, k] = min_{j in R_k} c(i, j)`` — zero for
        replicators.
    nn_server:
        (M, N) int; the argmin server realizing ``nn_dist`` (ties break to
        the earliest replica added, matching the incremental protocol).
    used:
        (M,) storage units consumed on each server.
    """

    #: Class-level default: incremental OTC tracking is opt-in
    #: (:meth:`begin_otc_tracking`), so untracked states pay nothing.
    _otc_track = False

    def __init__(self, instance: DRPInstance):
        self.instance = instance
        m, n = instance.n_servers, instance.n_objects
        self.x = np.zeros((m, n), dtype=bool)
        self.x[instance.primaries, np.arange(n)] = True
        # With only primaries, NN of every server for object k is P_k.
        # The instance caches the column gather, so this is a memcpy.
        self.nn_dist = instance.primary_cost_cols().copy()
        self.nn_server = np.broadcast_to(instance.primaries, (m, n)).copy()
        self.used = instance.primary_load.copy()
        self.n_replicas_added = 0
        # (M,) bool mask of the agents whose NN entry changed in the most
        # recent :meth:`add_replica` broadcast.  Delta-maintained benefit
        # engines consume it as their dirty set; all-False before the
        # first allocation and after bulk NN rebuilds.  The buffer is
        # reused by every broadcast — read it before the next mutation.
        self.last_nn_changed = np.zeros(m, dtype=bool)

    # -- factories ----------------------------------------------------------

    @classmethod
    def primaries_only(cls, instance: DRPInstance) -> "ReplicationState":
        """The paper's initial scheme: only the primary copies exist."""
        return cls(instance)

    @classmethod
    def from_matrix(cls, instance: DRPInstance, x: np.ndarray) -> "ReplicationState":
        """Build a state from an arbitrary boolean matrix.

        The matrix is validated (primaries present, shapes match) and the
        NN tables are recomputed from scratch — used by population-based
        baselines (GRA) that manipulate whole schemes.
        """
        state = cls(instance)
        state.replace_columns(np.arange(instance.n_objects), x)
        return state

    def copy(self) -> "ReplicationState":
        dup = ReplicationState.__new__(ReplicationState)
        dup.instance = self.instance
        dup.x = self.x.copy()
        dup.nn_dist = self.nn_dist.copy()
        dup.nn_server = self.nn_server.copy()
        dup.used = self.used.copy()
        dup.n_replicas_added = self.n_replicas_added
        dup.last_nn_changed = self.last_nn_changed.copy()
        if self._otc_track:
            dup._otc_track = True
            dup._otc_value = self._otc_value
            dup._otc_read_k = self._otc_read_k.copy()
            dup._otc_rstat_rows = self._otc_rstat_rows
            dup._otc_wterm = self._otc_wterm
            dup._otc_scratch = np.empty_like(self._otc_scratch)
        return dup

    # -- queries ------------------------------------------------------------

    @property
    def residual(self) -> np.ndarray:
        """(M,) storage units still free on each server."""
        return self.instance.capacities - self.used

    def replica_set(self, k: int) -> np.ndarray:
        """Sorted server indices of R_k."""
        return np.nonzero(self.x[:, k])[0]

    def replica_counts(self) -> np.ndarray:
        """(N,) number of copies of each object, primaries included."""
        return self.x.sum(axis=0)

    def total_replicas(self) -> int:
        """Total copies beyond the primaries."""
        return int(self.x.sum() - self.instance.n_objects)

    def is_replica(self, server: int, k: int) -> bool:
        return bool(self.x[server, k])

    def can_host(self, server: int, k: int) -> bool:
        """True iff server may receive a new replica of k: not already a
        replicator and the object fits the residual capacity."""
        return (not self.x[server, k]) and (
            self.instance.sizes[k] <= self.residual[server]
        )

    # -- incremental OTC tracking -------------------------------------------

    def otc_seed(self) -> tuple[float, np.ndarray]:
        """The scheme's total OTC and per-object read costs, ``(otc, read_k)``.

        ``read_k[k] = Σ_i rstat_ik · nn_dist_ik``.  Both OTC
        delta-maintainers start from this — the state's own tracker
        (:meth:`begin_otc_tracking`) and the mechanism's flush-time
        settlement (``repro.core.agt_ram``) — so their per-round OTC
        floats cannot drift apart.  A primaries-only scheme reads the
        instance's cached terms in O(N); any other costs one O(M·N)
        reduction.  The returned array belongs to the caller.
        """
        inst = self.instance
        if self.n_replicas_added == 0:
            otc0, read_k = inst.primary_otc_terms()
            return otc0, read_k.copy()
        rstat, wterm = inst.local_value_terms()
        read_k = np.einsum("ik,ik->k", rstat, self.nn_dist)
        kept = float(np.einsum("ik,ik->", self.x, wterm))
        return float(read_k.sum()) + inst.primary_ship_total() + kept, read_k

    def begin_otc_tracking(self) -> float:
        """Start delta-maintaining the scheme's total OTC across commits.

        After this call :meth:`tracked_otc` returns the current OTC in
        O(1), and each :meth:`add_replica` keeps it fresh with one O(M)
        dot product on top of the broadcast it already performs — the
        per-round recompute the event stream used to pay
        (:func:`~repro.drp.cost.total_otc`, O(M·N)) disappears from the
        hot path.  The commit delta is exact: adding a replica of ``k``
        on ``server`` changes only the update-keeping term
        ``wterm[server, k]`` and object ``k``'s read column, whose new
        total is ``Σ_i rstat_ik · nn_dist_ik`` over the relaxed column.

        Tracked values accumulate float rounding commit by commit, so
        headline results should still report the closed-form
        :func:`~repro.drp.cost.total_otc`; the tracker is for per-round
        telemetry.  Returns the starting OTC.
        """
        inst = self.instance
        self._otc_value, self._otc_read_k = self.otc_seed()
        # Transposed copy: the per-commit delta dots one object's
        # read-scale row — contiguous in (N, M) layout, one cache/TLB
        # miss per element in the (M, N) one.
        self._otc_rstat_rows = inst.read_scale_rows()
        self._otc_wterm = inst.local_value_terms()[1]
        # Contiguous scratch for the masked read-cost delta each commit
        # computes inside :meth:`add_replica`.
        self._otc_scratch = np.empty(inst.n_servers)
        self._otc_track = True
        return self._otc_value

    def end_otc_tracking(self) -> None:
        """Stop tracking; subsequent commits skip the maintenance dot."""
        self._otc_track = False

    def tracked_otc(self) -> float:
        """The delta-maintained total OTC (requires active tracking)."""
        if not self._otc_track:
            raise ConfigurationError(
                "OTC tracking is not active; call begin_otc_tracking() first"
            )
        return self._otc_value

    # -- mutation -----------------------------------------------------------

    def add_replica(self, server: int, k: int) -> None:
        """Allocate a replica of object k on ``server``.

        Performs the paper's NN-table broadcast: every server relaxes its
        nearest-replica distance against the new replicator.  O(M).
        """
        if self.x[server, k]:
            raise ConfigurationError(
                f"server {server} already replicates object {k}"
            )
        size = int(self.instance.sizes[k])
        residual_server = int(self.instance.capacities[server] - self.used[server])
        if size > residual_server:
            raise CapacityError(
                f"object {k} (size {size}) exceeds residual "
                f"{residual_server} of server {server}"
            )
        self.x[server, k] = True
        self.used[server] += size
        self.n_replicas_added += 1
        d_new = self.instance.cost[:, server]
        # Column views + copyto-with-where instead of boolean fancy
        # indexing: same relaxation, no index-array materialization.
        dist_col = self.nn_dist[:, k]
        closer = np.less(d_new, dist_col, out=self.last_nn_changed)
        np.copyto(dist_col, d_new, where=closer)
        np.copyto(self.nn_server[:, k], server, where=closer)
        if self._otc_track:
            # dist_col now holds the relaxed column, so one dot refreshes
            # object k's read cost; the write side moves by exactly the
            # new replicator's update-keeping term.  The column is staged
            # contiguous first: einsum's reduction order depends on
            # operand strides, and over contiguous rows it matches the
            # batched ``einsum("rj,rj->r", ...)`` the mechanism's
            # flush-time settlement computes over its reconstructed copies
            # of the same columns — which is what keeps the two settlers'
            # OTC floats bit-identical.
            scratch = self._otc_scratch
            np.copyto(scratch, dist_col)
            new_rk = float(np.einsum("j,j->", self._otc_rstat_rows[k], scratch))
            self._otc_value += float(self._otc_wterm[server, k]) + (
                new_rk - float(self._otc_read_k[k])
            )
            self._otc_read_k[k] = new_rk

    def replace_columns(self, ks: np.ndarray, x_cols: np.ndarray) -> None:
        """Set X's columns ``ks`` to ``x_cols`` and rebuild their NN tables.

        ``x_cols`` is validated like :meth:`from_matrix`'s matrix (shape
        ``(M, len(ks))``, every primary copy kept); ``used`` and
        ``n_replicas_added`` follow the new columns.  Other columns keep
        their NN entries, so a bulk edit of a few objects costs
        O(Σ_{k∈ks} M·|R_k|), not a full rebuild.
        """
        inst = self.instance
        ks = np.asarray(ks)
        x_cols = np.asarray(x_cols, dtype=bool)
        m, n = inst.n_servers, inst.n_objects
        if x_cols.shape != (m, len(ks)):
            raise ConfigurationError(
                f"x must have shape ({m}, {len(ks)}), got {x_cols.shape}"
            )
        if len(ks) and (
            ks.dtype.kind not in "iu"
            or ks.min() < 0
            or ks.max() >= n
            or len(np.unique(ks)) < len(ks)
        ):
            raise ConfigurationError(
                f"columns must be distinct integer object ids in [0, {n}), "
                f"got {ks}"
            )
        ks = ks.astype(np.int64, copy=False)
        if not x_cols[inst.primaries[ks], np.arange(len(ks))].all():
            raise ConfigurationError("primary copies may not be de-allocated")
        old = self.x[:, ks]
        sizes = inst.sizes[ks]
        self.used = self.used + x_cols @ sizes - old @ sizes
        self.n_replicas_added += int(x_cols.sum()) - int(old.sum())
        self.x[:, ks] = x_cols
        self._rebuild_nn(ks)

    def recompute_nn(self) -> None:
        """Rebuild NN tables from X (vectorized per object).

        Cost O(Σ_k M·|R_k|); used after bulk edits to X.
        """
        self._rebuild_nn(range(self.instance.n_objects))

    def _rebuild_nn(self, ks) -> None:
        """Recompute the NN entries of the objects ``ks`` from X."""
        inst = self.instance
        # A bulk rebuild invalidates any notion of "the last broadcast" —
        # and the incremental OTC tracker, which only follows
        # add_replica deltas (re-arm with begin_otc_tracking if needed).
        self._otc_track = False
        self.last_nn_changed = np.zeros(inst.n_servers, dtype=bool)
        rows = np.arange(inst.n_servers)
        for k in ks:
            reps = np.nonzero(self.x[:, k])[0]
            block = inst.cost[:, reps]
            arg = block.argmin(axis=1)
            self.nn_dist[:, k] = block[rows, arg]
            self.nn_server[:, k] = reps[arg]

    def __repr__(self) -> str:
        return (
            f"ReplicationState(M={self.instance.n_servers}, "
            f"N={self.instance.n_objects}, extra_replicas={self.total_replicas()})"
        )


class DeltaBenefitEngine:
    """Dirty-set-maintained dominant reports over the local CoR oracle.

    API-compatible with :class:`~repro.drp.benefit.BenefitEngine`
    (``best_per_server`` / ``row`` / ``value_at`` / ``eligible_counts`` /
    ``refresh_object`` / ``refresh_server`` / ``notify_allocation`` /
    ``resync`` / ``matrix``), but stores only the per-agent best columns;
    rows and the full matrix are materialized on demand.
    """

    engine_name = "vectorized"

    #: Float64 cells per block of :meth:`_rebuild` (256 KiB), so each
    #: block stays cache-resident across its multiply, subtract, mask and
    #: argmax passes and a full sweep allocates no (M, N) temporary.
    _BLOCK_CELLS = 1 << 15

    def __init__(self, instance: DRPInstance, state: ReplicationState):
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
            # Maintained ineligibility mask: ``_inel[i, k]`` is True where
            # a replica may NOT be placed.  A row only changes when that
            # server's capacity or replica set changes (i.e. when it wins
            # a round), so per-round maintenance is O(N) for one row.
            self._inel = np.empty((m, n), dtype=bool)
            self._blockbuf = np.empty(
                (max(1, min(m, self._BLOCK_CELLS // max(n, 1))), n)
            )
            # The tracer active at construction time is the one the run
            # executes under (the mechanism builds its engine inside the
            # capture scope); caching its enabled flag keeps contextvar
            # lookups out of the per-allocation repair path.
            self._counting = obs.current().enabled
            self._rebuild()

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
        np.multiply(self.rstat[i], state.nn_dist[i], out=values)
        np.subtract(values, self.wterm[i], out=values)
        # Same value-wise result as np.where(eligible, values, NEG_INF).
        np.copyto(values, NEG_INF, where=self._inel[i])
        j = int(values.argmax())
        self._best_objs[i] = j
        self._best_vals[i] = values[j]

    def _refresh_ineligible_row(self, i: int) -> None:
        """Rebuild row i of the maintained ineligibility mask from state."""
        state = self.state
        row = self._inel[i]
        residual_i = state.instance.capacities[i] - state.used[i]
        np.greater(self.instance.sizes, residual_i, out=row)
        np.logical_or(row, state.x[i], out=row)

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
        values = self.rstat[rows] * self.state.nn_dist[rows] - self.wterm[rows]
        masked = np.where(self._inel[rows], NEG_INF, values)
        objs = masked.argmax(axis=1)
        self._best_objs[rows] = objs
        self._best_vals[rows] = masked[np.arange(n_rows), objs]

    def _rebuild(self) -> None:
        """Rebuild the ineligibility mask and every cached best from the
        live state, a block of rows at a time.

        Identical arithmetic and tie-break to :meth:`_rescan_rows` on
        ``arange(M)`` (the cells are elementwise, the argmax per row), but
        computed in place in a reused cache-sized block — no row
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
            inel = self._inel[s:e]
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
        self._refresh_ineligible_row(server)
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
        self._refresh_ineligible_row(i)
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

    for k in range(n):
        reps = np.nonzero(state.x[:, k])[0]
        true_dist = inst.cost[:, reps].min(axis=1)
        if not np.allclose(state.nn_dist[:, k], true_dist):
            raise InfeasibleInstanceError(f"NN distances stale for object {k}")


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
            nn = int(state.nn_server[i, k])
            read_cost += o_k * float(c[i, nn])
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
