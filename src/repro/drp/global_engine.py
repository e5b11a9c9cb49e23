"""Incrementally-maintained *global* benefit matrix.

The "global oracle" AGT-RAM ablation — and Greedy, which is that run —
ranks candidate allocations by exact ΔOTC.  Computing the full (M, N)
matrix costs O(M²N); afterwards an allocation of object k on server i
only invalidates

* column k (its NN distances changed) — recomputed in O(M²), and
* row i's eligibility (its residual capacity shrank) — re-masked in O(N).

This mirrors :class:`repro.drp.benefit.BenefitEngine` so algorithms can
swap oracles; the asymptotic gap between the two engines *is* the
paper's claimed complexity advantage of the semi-distributed design.
"""

from __future__ import annotations

import numpy as np

from repro.drp.benefit import NEG_INF, global_benefit_column
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.obs import tracer as obs


class GlobalBenefitEngine:
    """Exact ΔOTC for every (server, object) candidate, kept fresh."""

    engine_name = "global"

    def __init__(self, instance: DRPInstance, state: ReplicationState):
        if state.instance is not instance:
            raise ValueError("state does not belong to instance")
        with obs.current().span("global_engine/init"):
            self.instance = instance
            self.state = state
            m, n = instance.n_servers, instance.n_objects
            self._benefit = np.empty((m, n), dtype=np.float64)
            for k in range(n):
                self._benefit[:, k] = global_benefit_column(instance, state, k)

    @property
    def matrix(self) -> np.ndarray:
        """(M, N) exact ΔOTC; ineligible cells are ``-inf``.  Live view."""
        return self._benefit

    def refresh_object(self, k: int) -> None:
        self._benefit[:, k] = global_benefit_column(self.instance, self.state, k)

    def refresh_server(self, i: int) -> None:
        """Capacity of server i changed: mask newly-infeasible cells.

        Values of still-feasible cells in row i are unchanged (they depend
        only on NN distances and write totals), so masking suffices.
        """
        infeasible = self.instance.sizes > self.state.residual[i]
        self._benefit[i, infeasible] = NEG_INF

    def notify_allocation(self, server: int, k: int) -> None:
        self.refresh_object(k)
        self.refresh_server(server)
        tracer = obs.current()
        if tracer.enabled:
            tracer.count("global_engine/incremental_updates")

    def best_per_server(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent dominant report under the global oracle."""
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
        """Per-agent count of eligible objects for the given rows."""
        return np.isfinite(self._benefit[servers]).sum(axis=1)


class RegionalBenefitEngine:
    """Benefit oracle for cooperative *regional* games (paper §7).

    Between the private local CoR (each agent sees only its own reads)
    and the global ΔOTC oracle sits the cooperative-region model: agents
    within a region pool their read/write books, so a candidate replica
    at server i is valued by the read rerouting of *all of i's region*,
    while cross-region effects stay invisible:

    ``b_ik = o_k Σ_{x in region(i)} r_xk max(0, d_k(x) − c(x,i))
             − o_k c(P_k, i)(W_k − w_ik)``

    Still a lower bound on the true ΔOTC (it drops only non-negative
    cross-region read terms), so allocations keep strictly reducing OTC.
    Maintenance mirrors :class:`GlobalBenefitEngine`: column refresh on
    allocation, row re-mask on capacity change.
    """

    engine_name = "regional"

    def __init__(
        self,
        instance: DRPInstance,
        state: ReplicationState,
        regions: np.ndarray,
    ):
        if state.instance is not instance:
            raise ValueError("state does not belong to instance")
        regions = np.asarray(regions, dtype=np.int64)
        if regions.shape != (instance.n_servers,):
            raise ValueError(
                f"regions must have shape ({instance.n_servers},), "
                f"got {regions.shape}"
            )
        self.instance = instance
        self.state = state
        self.regions = regions
        # same_region[x, i] — does reader x share candidate i's region?
        self._same = regions[:, None] == regions[None, :]
        o = instance.sizes.astype(np.float64)
        cp = instance.primary_cost_rows()
        w_total = instance.total_write_counts().astype(np.float64)
        self._wterm = (cp.T * o) * (w_total - instance.writes)
        m, n = instance.n_servers, instance.n_objects
        self._benefit = np.empty((m, n), dtype=np.float64)
        for k in range(n):
            self._benefit[:, k] = self._column(k)

    def _column(self, k: int) -> np.ndarray:
        inst = self.instance
        d_k = self.state.nn_dist[:, k]
        saved = np.maximum(0.0, d_k[:, None] - inst.cost)  # (reader x, cand i)
        saved *= self._same
        o_k = float(inst.sizes[k])
        read_gain = o_k * (inst.reads[:, k] @ saved)
        g = read_gain - self._wterm[:, k]
        eligible = (~self.state.x[:, k]) & (inst.sizes[k] <= self.state.residual)
        return np.where(eligible, g, NEG_INF)

    @property
    def matrix(self) -> np.ndarray:
        """(M, N) regional benefits; ineligible cells are ``-inf``."""
        return self._benefit

    def refresh_object(self, k: int) -> None:
        self._benefit[:, k] = self._column(k)

    def refresh_server(self, i: int) -> None:
        infeasible = self.instance.sizes > self.state.residual[i]
        self._benefit[i, infeasible] = NEG_INF

    def notify_allocation(self, server: int, k: int) -> None:
        self.refresh_object(k)
        self.refresh_server(server)

    def best_per_server(self) -> tuple[np.ndarray, np.ndarray]:
        objs = self._benefit.argmax(axis=1)
        vals = self._benefit[np.arange(self._benefit.shape[0]), objs]
        return vals, objs
