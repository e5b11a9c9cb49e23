"""Replication benefits: the local CoR valuation and the global ΔOTC.

Two oracles, deliberately distinct:

* **Local CoR** (Equation 5) — what an AGT-RAM *agent* can compute from
  its private data (its own reads/writes) plus public knowledge (costs,
  NN table, each object's total write count):

  ``b_ik = r_ik o_k d_k(i)  -  o_k c(P_k, i) (W_k - w_ik)``

  where ``d_k(i)`` is i's current nearest-replica distance and W_k the
  object's total write count.  The first term is i's read saving, the
  second the cost of keeping a new local copy up to date against everyone
  else's writes.

* **Global benefit** — the exact OTC drop from adding the replica, which
  additionally counts *other* servers rerouting their reads to the new
  copy:

  ``g_ik = Σ_x r_xk o_k max(0, d_k(x) - c(x, i))  -  o_k c(P_k, i) (W_k - w_ik)``

  Centralized baselines (Greedy, Aε-Star) use this oracle; the gap
  between the two is exactly the information the semi-distributed design
  gives up.  ``total_otc(after) == total_otc(before) - g_ik`` holds
  exactly (tested property).
"""

from __future__ import annotations

import numpy as np

from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.obs import tracer as obs

#: Sentinel benefit for ineligible (server, object) cells — already a
#: replicator, primary host, or insufficient residual capacity.
NEG_INF = -np.inf


class BenefitEngine:
    """Incrementally-maintained local-CoR matrix for one instance.

    The static parts of Eq. 5 are precomputed once:

    * ``wterm[i, k] = o_k c(P_k, i) (W_k - w_ik)`` — update-keeping cost,
    * ``rstat[i, k] = r_ik o_k`` — read-rate scale.

    The dynamic part is the NN distance, owned by the
    :class:`~repro.drp.state.ReplicationState`.  After an allocation the
    engine refreshes in O(M + N): only the allocated object's column and
    the winner's capacity row change, but every round's dominant reports
    take an O(M·N) argmax.

    Production callers run the delta engine
    (:func:`~repro.drp.delta.make_local_engine`), which gives the same
    bits.  This engine runs only where nothing else can:

    1. As the reference: ``AGTRam(engine="naive")`` and
       ``run_agt_ram(engine="naive")`` select it for the local
       valuation; :func:`~repro.obs.equivalence.compare_engines`, the
       emission gate, ``benchmarks/bench_scaling.py`` and the tests
       check the delta engine against it.
    2. In the simulator's lazy NN protocol (``nn_update_period > 1``):
       only the full matrix keeps the stale views that protocol models.
    3. For callers that read the whole matrix:
       :func:`~repro.core.disposition.run_with_declared_capacities`
       (which masks it by declared capacities every round and runs
       several times slower on the delta engine's on-demand matrix),
       Aε-Star's candidate ranking and :func:`local_benefit_matrix`.
    """

    engine_name = "naive"

    def __init__(self, instance: DRPInstance, state: ReplicationState):
        if state.instance is not instance:
            raise ValueError("state does not belong to instance")
        with obs.current().span("benefit_engine/init"):
            self.instance = instance
            self.state = state
            # Static Eq. 5 terms, cached on the (immutable) instance and
            # shared with the delta engine — identical array objects are
            # what make the two engines' arithmetic bit-for-bit equal.
            self.rstat, self.wterm = instance.local_value_terms()  # (M, N)
            self._benefit = np.full((instance.n_servers, instance.n_objects), NEG_INF)
            self._refresh_all()

    # -- eligibility ------------------------------------------------------

    def _eligible_matrix(self) -> np.ndarray:
        """(M, N) bool: cells where a new replica may legally be placed."""
        fits = self.instance.sizes[None, :] <= self.state.residual[:, None]
        return fits & ~self.state.x

    def _refresh_all(self) -> None:
        values = self.rstat * self.state.nn_dist - self.wterm
        self._benefit = np.where(self._eligible_matrix(), values, NEG_INF)

    def refresh_object(self, k: int) -> None:
        """Recompute column k (its NN distances changed)."""
        values = self.rstat[:, k] * self.state.nn_dist[:, k] - self.wterm[:, k]
        fits = self.instance.sizes[k] <= self.state.residual
        eligible = fits & ~self.state.x[:, k]
        self._benefit[:, k] = np.where(eligible, values, NEG_INF)

    def refresh_server(self, i: int) -> None:
        """Re-mask row i (its residual capacity changed)."""
        fits = self.instance.sizes <= self.state.residual[i]
        eligible = fits & ~self.state.x[i, :]
        values = self.rstat[i, :] * self.state.nn_dist[i, :] - self.wterm[i, :]
        self._benefit[i, :] = np.where(eligible, values, NEG_INF)

    def notify_allocation(self, server: int, k: int) -> None:
        """Incremental update after ``state.add_replica(server, k)``."""
        self.refresh_object(k)
        self.refresh_server(server)
        tracer = obs.current()
        if tracer.enabled:
            tracer.count("benefit_engine/incremental_updates")

    def resync(self) -> None:
        """Recompute the whole matrix from the live state.

        Used by lazy NN-update protocols that let agents' views go stale
        between periodic broadcasts.
        """
        self._refresh_all()
        tracer = obs.current()
        if tracer.enabled:
            tracer.count("benefit_engine/resyncs")

    # -- views -------------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """(M, N) local benefits; ineligible cells are ``-inf``.

        This is a live view — do not mutate.
        """
        return self._benefit

    def best_per_server(self) -> tuple[np.ndarray, np.ndarray]:
        """Each agent's dominant report: (values, objects), both (M,).

        ``values[i]`` is ``-inf`` when server i has no eligible object —
        the agent drops out of the game (paper's LS update, line 18).
        """
        objs = self._benefit.argmax(axis=1)
        vals = self._benefit[np.arange(self._benefit.shape[0]), objs]
        return vals, objs

    def row(self, server: int) -> np.ndarray:
        """(N,) masked benefit row of one agent.  Live view — do not mutate."""
        return self._benefit[server]

    def value_at(self, server: int, k: int) -> float:
        """One masked benefit cell (``-inf`` when ineligible)."""
        return float(self._benefit[server, k])

    def eligible_counts(self, servers: np.ndarray) -> np.ndarray:
        """Per-agent count of eligible objects (|L_i|) for the given rows."""
        return np.isfinite(self._benefit[servers]).sum(axis=1)

    def local_benefit(self, server: int, k: int) -> float:
        """Eq. 5 valuation of one cell, ignoring eligibility masking."""
        return float(
            self.rstat[server, k] * self.state.nn_dist[server, k]
            - self.wterm[server, k]
        )


def local_benefit_matrix(
    instance: DRPInstance, state: ReplicationState
) -> np.ndarray:
    """One-shot (M, N) local-CoR matrix with ineligible cells at ``-inf``."""
    return BenefitEngine(instance, state).matrix.copy()


def global_benefit(
    instance: DRPInstance, state: ReplicationState, server: int, k: int
) -> float:
    """Exact OTC reduction from adding a replica of k at ``server``.

    May be negative (write-dominated objects); callers decide whether to
    allocate.  Does not check capacity.
    """
    d_k = state.nn_dist[:, k]
    saved = np.maximum(0.0, d_k - instance.cost[:, server])
    o_k = float(instance.sizes[k])
    read_gain = o_k * float(instance.reads[:, k] @ saved)
    w_other = float(instance.total_write_counts()[k] - instance.writes[server, k])
    update_cost = o_k * float(instance.cost[instance.primaries[k], server]) * w_other
    return read_gain - update_cost


def global_benefit_column(
    instance: DRPInstance, state: ReplicationState, k: int
) -> np.ndarray:
    """(M,) exact ΔOTC of placing object k on each server.

    Ineligible servers (already replicating k, or without capacity) get
    ``-inf``.  Vectorized: one (M, M) relu and one matrix-vector product.
    """
    d_k = state.nn_dist[:, k]
    saved = np.maximum(0.0, d_k[:, None] - instance.cost)  # (M, M): x -> candidate
    o_k = float(instance.sizes[k])
    read_gain = o_k * (instance.reads[:, k].astype(np.float64) @ saved)  # (M,)
    w_other = (
        instance.total_write_counts()[k] - instance.writes[:, k]
    ).astype(np.float64)
    update_cost = o_k * instance.cost[instance.primaries[k], :] * w_other
    g = read_gain - update_cost
    eligible = (~state.x[:, k]) & (instance.sizes[k] <= state.residual)
    return np.where(eligible, g, NEG_INF)
