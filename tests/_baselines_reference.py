"""Parent loops of the flat family, kept as differential oracles.

* :func:`reference_greedy` — Greedy's own clearing loop.
  ``GreedyPlacer`` runs AGT-RAM's clearing loop on the global ΔOTC
  oracle.  This is the loop it replaced: every step commits the
  row-major first maximum of the whole (M, N) global benefit matrix,
  until no placement reduces OTC.  AGT-RAM's per-agent argmax followed
  by the argmax over agents picks the same cell, which
  ``test_flat_family_pinned.py`` checks.
* :class:`BranchAndBound` — the exact search ``OptimalPlacer`` ran
  before it became one mixed-integer program.  It enumerates, object by
  object, which extra servers replicate that object, best subset first,
  and cuts a node whose OTC minus every undecided object's sum of
  positive single-replica gains cannot beat the incumbent.  It is
  exponential in M·N and gives up (``ConvergenceError``) after
  ``max_nodes`` nodes, from about 6×6 on; ``test_baselines_optimal.py``
  checks that the MILP finds the same optimal OTC wherever it finishes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.drp.benefit import global_benefit_column
from repro.drp.cost import primary_only_otc, total_otc
from repro.drp.global_engine import GlobalBenefitEngine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConvergenceError


def reference_greedy(
    instance: DRPInstance, *, max_steps: int | None = None
) -> tuple[np.ndarray, float, int]:
    """Exact-marginal-gain greedy; returns ``(x, otc, steps)``."""
    state = ReplicationState.primaries_only(instance)
    engine = GlobalBenefitEngine(instance, state)
    cap = (
        max_steps
        if max_steps is not None
        else instance.n_servers * instance.n_objects
    )
    steps = 0
    while steps < cap:
        flat = int(np.argmax(engine.matrix))
        i, k = divmod(flat, instance.n_objects)
        gain = float(engine.matrix[i, k])
        if not np.isfinite(gain) or gain <= 0.0:
            break
        state.add_replica(i, k)
        engine.notify_allocation(i, k)
        steps += 1
    return state.x.copy(), total_otc(state), steps


class BranchAndBound:
    """The parent's exact search, unchanged; :meth:`solve` returns
    ``(x, otc, nodes)``."""

    def __init__(self, *, max_nodes: int = 2_000_000):
        if max_nodes <= 0:
            raise ValueError("max_nodes must be > 0")
        self.max_nodes = max_nodes

    def solve(self, instance: DRPInstance) -> tuple[np.ndarray, float, int]:
        return self._search(instance)

    # -- search --------------------------------------------------------------

    def _search(self, instance: DRPInstance):
        m, n = instance.n_servers, instance.n_objects
        base_state = ReplicationState.primaries_only(instance)
        base_x = base_state.x

        # Optimistic per-object savings: the best single-replica gain per
        # object, times the number of candidate servers, is a loose upper
        # bound; we use the tighter sum of positive single-replica gains
        # (supermodularity of reads means adding more replicas to one
        # object can't save more than the sum of their standalone gains
        # ... actually standalone gains overcount shared reads, which is
        # exactly what makes this an upper bound).
        opt_gain = np.zeros(n)
        for k in range(n):
            col = global_benefit_column(instance, base_state, k)
            finite = col[np.isfinite(col)]
            opt_gain[k] = float(finite[finite > 0].sum()) if len(finite) else 0.0
        suffix_gain = np.concatenate([np.cumsum(opt_gain[::-1])[::-1], [0.0]])

        best = {
            "x": base_x.copy(),
            "otc": primary_only_otc(instance),
        }
        nodes = 0

        def candidates_for(k: int, residual: np.ndarray) -> list[int]:
            return [
                i
                for i in range(m)
                if not base_x[i, k] and instance.sizes[k] <= residual[i]
            ]

        def recurse(k: int, x: np.ndarray, residual: np.ndarray, otc_now: float):
            nonlocal nodes
            nodes += 1
            if nodes > self.max_nodes:
                raise ConvergenceError(
                    f"optimal search exceeded {self.max_nodes} nodes; "
                    "instance too large for exact solving"
                )
            if otc_now < best["otc"]:
                best["otc"] = otc_now
                best["x"] = x.copy()
            if k == n:
                return
            # Bound: even saving every remaining object's optimistic gain
            # cannot beat the incumbent.
            if otc_now - suffix_gain[k] >= best["otc"]:
                return
            cands = candidates_for(k, residual)
            # Score every replica subset for object k, then recurse
            # best-first: a strong incumbent found early prunes siblings.
            scored: list[tuple[float, tuple[int, ...]]] = []
            for r in range(0, len(cands) + 1):
                for subset in combinations(cands, r):
                    for i in subset:
                        x[i, k] = True
                    scored.append(
                        (self._otc_with(instance, x, otc_now, k), subset)
                    )
                    for i in subset:
                        x[i, k] = False
            scored.sort(key=lambda t: t[0])
            for child_otc, subset in scored:
                for i in subset:
                    x[i, k] = True
                    residual[i] -= instance.sizes[k]
                recurse(k + 1, x, residual, child_otc)
                for i in subset:
                    x[i, k] = False
                    residual[i] += instance.sizes[k]

        # Precompute per-object primary-only OTC so deltas are local.
        self._per_obj_base = self._per_object_otc(instance, base_x)
        recurse(0, base_x.copy(), instance.replica_headroom().astype(np.int64).copy(),
                primary_only_otc(instance))
        return best["x"], best["otc"], nodes

    # -- per-object OTC helpers ------------------------------------------------

    @staticmethod
    def _object_otc(instance: DRPInstance, x: np.ndarray, k: int) -> float:
        reps = np.flatnonzero(x[:, k])
        c = instance.cost
        o = float(instance.sizes[k])
        d = c[:, reps[0]] if len(reps) == 1 else c[:, reps].min(axis=1)
        read = o * float(instance.reads[:, k] @ d)
        cp = instance.primary_cost_rows()[k]
        b = float(cp[reps].sum())
        w = instance.writes[:, k].astype(np.float64)
        write = o * float(
            (w * (c[:, instance.primaries[k]] + b)).sum()
            - (w[reps] * cp[reps]).sum()
        )
        return read + write

    def _per_object_otc(self, instance: DRPInstance, x: np.ndarray) -> np.ndarray:
        return np.array(
            [self._object_otc(instance, x, k) for k in range(instance.n_objects)]
        )

    def _otc_with(
        self, instance: DRPInstance, x: np.ndarray, otc_now: float, k: int
    ) -> float:
        """OTC after object k's replica set in ``x`` replaced its base set."""
        return otc_now - self._per_obj_base[k] + self._object_otc(instance, x, k)
