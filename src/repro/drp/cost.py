"""The exact Object Transfer Cost model — Equations 1–4 of the paper.

For a replication scheme X with replica sets R_k (each containing the
primary P_k):

* reads (Eq. 1): server i reads object k from its nearest replicator,
  ``R_ik = r_ik * o_k * c(i, NN_ik)`` — zero when i itself replicates k;
* writes (Eq. 2): each update is shipped to the primary which broadcasts
  it to every replicator,
  ``W_ik = w_ik * o_k * (c(i, P_k) + Σ_{j in R_k, j != i} c(P_k, j))``
  (the writer's own copy, if any, needs no broadcast leg back to it);
* the cumulative OTC (Eq. 3/4) sums both over all (i, k).

Everything here is vectorized over servers and objects; per call the work
is a handful of (M, N) array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState


@dataclass(frozen=True)
class OTCBreakdown:
    """Total OTC split into its read and write components."""

    read_cost: float
    write_cost: float

    @property
    def total(self) -> float:
        return self.read_cost + self.write_cost


def otc_breakdown(state: ReplicationState) -> OTCBreakdown:
    """Exact OTC of ``state``, split into read and write components.

    The Eq. 5 terms cached on the instance make this two contiguous
    (M, N) reductions.  Reads are
    ``Σ_ik rstat_ik nn_dist_ik`` (``nn_dist`` is 0 for replicators).
    For writes, the broadcast cost over all writers minus each
    replicator's own-copy refund telescopes exactly into the Eq. 5
    update-keeping term summed over the scheme:
    ``Σ_k W_k o_k B_k - Σ_ik x_ik w_ik o_k c(P_k, i)
    = Σ_ik x_ik o_k c(P_k, i) (W_k - w_ik) = Σ_ik x_ik wterm_ik``,
    leaving only the scheme-independent ship-to-primary total.
    """
    inst = state.instance
    rstat, wterm = inst.local_value_terms()
    read_cost = float(np.dot(rstat.reshape(-1), state.nn_dist.reshape(-1)))
    kept = float(np.einsum("ik,ik->", state.x, wterm))
    write_cost = inst.primary_ship_total() + kept
    return OTCBreakdown(read_cost=read_cost, write_cost=write_cost)


def total_otc(state: ReplicationState) -> float:
    """Cumulative OTC (Eq. 3/4) of the replication scheme ``state``."""
    return otc_breakdown(state).total


def otc_by_object(state: ReplicationState) -> np.ndarray:
    """(N,) per-object OTC; sums to :func:`total_otc` exactly.

    The cost model is separable across objects, so this decomposition is
    well-defined and is what savings attribution works from.
    """
    inst = state.instance
    o = inst.sizes.astype(np.float64)
    read = np.einsum("ik,ik->k", inst.reads, state.nn_dist) * o
    cp = inst.primary_cost_rows()
    b = np.einsum("ik,ki->k", state.x, cp)
    w_total = inst.writes.sum(axis=0).astype(np.float64)
    to_primary = np.einsum("ik,ki->k", inst.writes, cp) * o
    broadcast = w_total * b * o
    refund = np.einsum("ik,ik,ki->k", inst.writes, state.x, cp) * o
    return read + to_primary + broadcast - refund


def otc_by_server(state: ReplicationState) -> np.ndarray:
    """(M,) OTC attributed to each *requesting* server.

    Reads are attributed to the reader; a write's primary-shipping leg
    to the writer and its broadcast legs to the writers proportionally
    (each writer pays for the fan-out its own updates cause).  Sums to
    :func:`total_otc` exactly.
    """
    inst = state.instance
    o = inst.sizes.astype(np.float64)
    read = (inst.reads * state.nn_dist) @ o
    cp = inst.primary_cost_rows()  # (N, M)
    b = np.einsum("ik,ki->k", state.x, cp)  # (N,)
    to_primary = (inst.writes * cp.T) @ o
    # Writer i's broadcast fan-out for object k: (b_k - X_ik cp[k, i]).
    fan_out = b[None, :] - state.x * cp.T
    broadcast = (inst.writes * fan_out) @ o
    return read + to_primary + broadcast


def primary_only_otc(instance: DRPInstance) -> float:
    """OTC of the initial scheme where only primary copies exist.

    With R_k = {P_k}: reads cost ``r_ik o_k c(i, P_k)``, writes cost
    ``w_ik o_k c(i, P_k)`` (broadcast sum is empty), so the total is
    ``Σ_ik (r_ik + w_ik) o_k c(i, P_k)``.  This is the baseline the
    paper's OTC-savings percentage is measured against.
    """
    cp = instance.primary_cost_rows()  # (N, M)
    traffic = (instance.reads + instance.writes).astype(np.float64)
    return float(np.einsum("ik,ki,k->", traffic, cp, instance.sizes.astype(np.float64)))


def read_cost_terms(
    instance: DRPInstance, x: np.ndarray, objects: Iterable[int]
) -> list[float]:
    """Eq. 1 read cost of each of ``objects`` under the scheme ``x``.

    One python float per object, in the order given:
    ``o_k * Σ_i r_ik c(i, NN_ik)``, the term :func:`otc_of_matrix` adds
    up over all N objects.  An object's term reads only column k of
    ``x``, so a caller comparing two schemes that differ in a few
    columns recomputes only those columns' terms
    (:func:`repro.core.reauction.reauction_objects`).
    """
    o = instance.sizes.astype(np.float64)
    c = instance.cost
    reads = instance.reads
    terms = []
    for k in objects:
        reps = np.flatnonzero(x[:, k])
        d = c[:, reps[0]] if len(reps) == 1 else c[:, reps].min(axis=1)
        terms.append(float(o[k]) * float(reads[:, k] @ d))
    return terms


def otc_from_read_terms(
    instance: DRPInstance, x: np.ndarray, terms: Sequence[float]
) -> float:
    """OTC of the boolean scheme ``x`` whose per-object read terms
    (:func:`read_cost_terms`, all N in object order) are ``terms``.

    The terms are added up left to right in a plain loop — not
    ``sum()``, which compensates float sums from CPython 3.12 on — so
    the result has the bits of :func:`otc_of_matrix` on every version.
    """
    read_cost = 0.0
    for term in terms:
        read_cost += term

    o = instance.sizes.astype(np.float64)
    cp = instance.primary_cost_rows()  # (N, M)
    b = np.einsum("ik,ki->k", x, cp)
    w_total = instance.total_write_counts().astype(np.float64)
    to_primary = np.einsum("ik,ki,k->", instance.writes, cp, o)
    broadcast = float((w_total * b * o).sum())
    own_copy_refund = np.einsum("ik,ik,ki,k->", instance.writes, x, cp, o)
    return read_cost + float(to_primary + broadcast - own_copy_refund)


def otc_of_matrix(instance: DRPInstance, x: np.ndarray) -> float:
    """OTC of an arbitrary boolean replication matrix, computed directly.

    Avoids building a full :class:`ReplicationState` (no NN-server
    argmins), which makes it the fitness oracle for population-based
    baselines that evaluate thousands of candidate X matrices.  Primaries
    must be present in ``x``.  O(M · Σ_k |R_k|) for the read part
    (:func:`read_cost_terms`) plus a few (M, N) products for the write
    part.
    """
    x = np.asarray(x, dtype=bool)
    m, n = instance.n_servers, instance.n_objects
    if x.shape != (m, n):
        raise ValueError(f"x must have shape ({m}, {n}), got {x.shape}")
    if not x[instance.primaries, np.arange(n)].all():
        raise ValueError("primary copies may not be de-allocated")
    return otc_from_read_terms(instance, x, read_cost_terms(instance, x, range(n)))
