"""Greedy's own clearing loop, kept as the differential oracle.

``GreedyPlacer`` runs AGT-RAM's clearing loop on the global ΔOTC oracle.
This is the loop it replaced: every step commits the row-major first
maximum of the whole (M, N) global benefit matrix, until no placement
reduces OTC.  AGT-RAM's per-agent argmax followed by the argmax over
agents picks the same cell, which ``test_flat_family_pinned.py`` checks.
"""

from __future__ import annotations

import numpy as np

from repro.drp.cost import total_otc
from repro.drp.global_engine import GlobalBenefitEngine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState


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
