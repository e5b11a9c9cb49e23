"""Mutable replication scheme: the X matrix plus the NN distances.

The paper's servers each store, for every object, the primary server P_k
and the nearest-neighbor server NN_ik holding a replica (Section 2).
Every quantity the mechanism prices reads NN_ik only through its
distance c(i, NN_ik) (Eq. 5's d_k(i)), so the state keeps that distance
and not the server.  The mechanism's NN-update broadcast (Figure 2,
line 20) is the :meth:`ReplicationState.add_replica` distance relaxation
here.
"""

from __future__ import annotations

import numpy as np

from repro.drp.instance import DRPInstance
from repro.errors import CapacityError, ConfigurationError


class ReplicationState:
    """Replication scheme over a :class:`~repro.drp.instance.DRPInstance`.

    Attributes
    ----------
    x:
        (M, N) boolean replication matrix; ``x[P_k, k]`` is always True.
    nn_dist:
        (M, N) float; ``nn_dist[i, k] = min_{j in R_k} c(i, j)``, the
        distance c(i, NN_ik) to server i's nearest replica of k — zero
        for replicators.
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
        NN distances are recomputed from scratch — used by population-based
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
        nearest-replica distance against the new replicator.  O(M), over
        the contiguous row of :meth:`~repro.drp.instance.DRPInstance.cost_col_rows`
        that holds the cost column ``c(·, server)``.
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
        d_new = self.instance.cost_col_rows()[server]
        # Column view + copyto-with-where instead of boolean fancy
        # indexing: same relaxation, no index-array materialization.
        dist_col = self.nn_dist[:, k]
        closer = np.less(d_new, dist_col, out=self.last_nn_changed)
        np.copyto(dist_col, d_new, where=closer)
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
        """Set X's columns ``ks`` to ``x_cols`` and rebuild their NN distances.

        ``x_cols`` is validated like :meth:`from_matrix`'s matrix (shape
        ``(M, len(ks))``, every primary copy kept); ``used`` and
        ``n_replicas_added`` follow the new columns.  Other columns keep
        their NN distances, so a bulk edit of a few objects costs
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
        """Rebuild the NN distances from X (vectorized per object).

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
        for k in ks:
            reps = np.nonzero(self.x[:, k])[0]
            self.nn_dist[:, k] = inst.cost[:, reps].min(axis=1)

    def __repr__(self) -> str:
        return (
            f"ReplicationState(M={self.instance.n_servers}, "
            f"N={self.instance.n_objects}, extra_replicas={self.total_replicas()})"
        )
