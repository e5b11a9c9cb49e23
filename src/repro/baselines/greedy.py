"""The Greedy comparator — Qiu, Padmanabhan & Voelker's greedy [26].

The paper selects this greedy "because it is shown to be the best
compared with 4 other approaches".  It is the fully-informed centralized
counterpart of AGT-RAM: in every step it evaluates the *exact* system-wide
OTC reduction of every feasible (server, object) placement and commits
the best one, stopping when no placement reduces OTC.

That is AGT-RAM's clearing loop run on the global ΔOTC oracle
(``AGTRam(valuation="global")``): the loop's per-agent argmax followed by
the argmax over agents picks the row-major first maximum of the global
benefit matrix, the cell Greedy's flat argmax picks.  So Greedy runs
that loop, with its events muted — Greedy has no bids or prices to log,
only its own ``RunStart``/``RunEnd``.

Complexity: O(M²N) to build the benefit table, then O(M² + MN) per
placement (one column refresh plus the argmax) — strictly heavier per
step than AGT-RAM's local oracle, which is the runtime gap Table 1
measures.
"""

from __future__ import annotations

from repro.baselines.base import ReplicaPlacer
from repro.core.agt_ram import AGTRam
from repro.drp.instance import DRPInstance
from repro.obs import events as ev
from repro.result import PlacementResult


class GreedyPlacer(ReplicaPlacer):
    """Exact-marginal-gain greedy replica placement.

    Parameters
    ----------
    max_steps:
        Optional cap on placements, an integer >= 0 (default: run to
        exhaustion).
    """

    name = "Greedy"

    def __init__(self, *, max_steps: int | None = None):
        self._mech = AGTRam(valuation="global", max_rounds=max_steps)

    def _place(self, instance: DRPInstance) -> PlacementResult:
        with ev.capture(ev.NULL_SINK):
            run = self._mech.run(instance)
        return PlacementResult(
            algorithm=self.name,
            state=run.state,
            otc=run.otc,
            runtime_s=run.runtime_s,
            rounds=run.rounds,
        )
