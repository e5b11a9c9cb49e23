"""Exact optimal replica placement as one mixed-integer program.

The DRP is NP-complete (Eswaran 1974, cited by the paper), so exact
solutions exist only for small instances — but there they anchor the
optimality gap of AGT-RAM and every baseline (``bench_optimality_gap.py``
and the test suite).

Per object the DRP is uncapacitated facility location; all objects
share one storage row per server.  A binary ``y_jk`` per non-primary
cell opens a replica at the Eq. 5 update-keeping cost
``o_k c(P_k, j) (W_k − w_jk)``.  A continuous ``z_ijk`` in [0, 1] per
reader i (``r_ik > 0``) and server j strictly closer to i than ``P_k``,
plus one for the always-open ``P_k``, serves at ``r_ik o_k c(i, j)``.
Rows: ``Σ_j z_ijk = 1`` per reader, ``z_ijk ≤ y_jk`` per closer z, and
``Σ_k o_k y_jk ≤ headroom_j`` per server.  The objective plus
:meth:`~repro.drp.instance.DRPInstance.primary_ship_total` is the OTC of
Eq. 3/4, by the telescoping :func:`~repro.drp.cost.otc_breakdown`
derives.  HiGHS solves it with ``mip_rel_gap=0``: its default gap of
1e-4 would accept a scheme that is not optimal.  ``scipy.optimize``
(~14 MiB, ~0.5 s) is imported by a solve, not by ``import repro``.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from repro.baselines.base import ReplicaPlacer
from repro.drp.cost import read_cost_terms, total_otc
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConvergenceError
from repro.result import PlacementResult
from repro.utils.timing import Timer

#: Largest model built, in variables, so that one solve stays under 1 GiB:
#: peak RSS grew 5.8–6.5 KiB per variable from 16×64 (7.7k variables,
#: 1.2 s) to 40×200 (97k, 14 s; scipy 1.17, 2 vCPUs).  40×200 fits; the
#: small bench preset (240×1200, 14.7M) is refused before anything is built.
MAX_VARIABLES = 150_000


class OptimalPlacer(ReplicaPlacer):
    """The exact optimum, from one MILP (see the module docstring).

    Raises :class:`~repro.errors.ConvergenceError` when the model would
    exceed :data:`MAX_VARIABLES` or HiGHS proves no optimum.  ``rounds``
    and ``extra["nodes"]`` are HiGHS' node count; ``extra["objective"]``
    is the MILP objective, the OTC less ``primary_ship_total()``.
    """

    name = "Optimal"

    def _place(self, instance: DRPInstance) -> PlacementResult:
        timer = Timer()
        with timer:
            x, objective, nodes = _solve(instance)
            state = ReplicationState.from_matrix(instance, x)
        return PlacementResult(
            algorithm=self.name,
            state=state,
            otc=total_otc(state),
            runtime_s=timer.elapsed,
            rounds=nodes,
            extra={"nodes": nodes, "objective": objective},
        )


def _solve(instance: DRPInstance) -> tuple[np.ndarray, float, int]:
    """Build and solve the model; returns ``(x, objective, nodes)``."""
    m, n = instance.n_servers, instance.n_objects
    c, p = instance.cost, instance.primaries
    rstat, wterm = instance.local_value_terms()
    # Readers, and how many servers each has strictly closer than P_k:
    # the first ones of its cost row in ascending order.
    ri, rk = np.nonzero(instance.reads)
    order = np.argsort(c, axis=1, kind="stable")
    ranked = np.take_along_axis(c, order, axis=1)
    closer = np.stack([np.searchsorted(ranked[i], c[i, p]) for i in range(m)])
    closer = closer[ri, rk]
    n_y, n_r = m * n - n, len(ri)
    n_z = n_r + int(closer.sum())
    if n_y + n_z > MAX_VARIABLES:
        raise ConvergenceError(
            f"the exact model of this {m}x{n} instance has {n_y + n_z:,} "
            f"variables, more than MAX_VARIABLES = {MAX_VARIABLES:,}"
        )
    x = np.zeros((m, n), dtype=bool)
    x[p, np.arange(n)] = True
    if n_y + n_z == 0:  # one server and no reads: nothing to decide
        return x, 0.0, 0
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    yj, yk = np.nonzero(~x)
    y_of = np.zeros((m, n), dtype=np.int64)
    y_of[yj, yk] = np.arange(n_y)
    # Each reader's run of z: its primary, then its closer servers.
    per = closer + 1
    zr = np.repeat(np.arange(n_r), per)
    pos = np.arange(n_z) - np.repeat(np.cumsum(per) - per, per)
    zi, zk = ri[zr], rk[zr]
    zj = np.where(pos == 0, p[zk], order[zi, pos - 1])
    link = np.flatnonzero(pos)
    n_l, z = len(link), n_y + np.arange(n_z)
    # Rows: one per reader, one per link (z − y ≤ 0), one per server.
    rows = np.concatenate([zr, np.repeat(n_r + np.arange(n_l), 2), n_r + n_l + yj])
    pair = np.column_stack([z[link], y_of[zj[link], zk[link]]]).ravel()
    cols = np.concatenate([z, pair, np.arange(n_y)])
    vals = np.concatenate([np.ones(n_z), np.tile([1.0, -1.0], n_l), instance.sizes[yk]])
    a = coo_array((vals, (rows, cols)), shape=(n_r + n_l + m, n_y + n_z))
    lb = np.concatenate([np.ones(n_r), np.full(n_l + m, -np.inf)])
    ub = np.concatenate([np.ones(n_r), np.zeros(n_l), instance.replica_headroom()])
    res = milp(
        np.concatenate([wterm[yj, yk], rstat[zi, zk] * c[zi, zj]]),
        integrality=np.concatenate([np.ones(n_y), np.zeros(n_z)]),
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(a.tocsr(), lb, ub),
        options={"mip_rel_gap": 0},
    )
    if res.status != 0:
        raise ConvergenceError(f"HiGHS proved no optimum: {res.message}")
    x[yj, yk] = res.x[:n_y] > 0.5
    return x, float(res.fun), int(res.mip_node_count or 0)  # None for an LP


def brute_force_otc(instance: DRPInstance) -> float:
    """Independent-objects exhaustive minimum, valid only when capacity
    never binds (used by tests to cross-check :class:`OptimalPlacer`).

    When every server can hold every object simultaneously, the DRP
    decomposes per object; this prices all 2^(M-1) replica sets of each
    object with :func:`~repro.drp.cost.read_cost_terms` and the Eq. 5
    update-keeping terms, and adds the minima to the ship-to-primary
    total.
    """
    if (instance.replica_headroom() < instance.sizes.sum()).any():
        raise ValueError("capacity binds; per-object decomposition is invalid")
    _, wterm = instance.local_value_terms()
    base = ReplicationState.primaries_only(instance).x
    total = instance.primary_ship_total()
    for k in range(instance.n_objects):
        others = np.flatnonzero(~base[:, k])
        costs = []
        for added in chain.from_iterable(
            combinations(others, r) for r in range(len(others) + 1)
        ):
            x = base.copy()
            x[list(added), k] = True
            kept = float(wterm[x[:, k], k].sum())
            costs.append(read_cost_terms(instance, x, [k])[0] + kept)
        total += min(costs)
    return total
