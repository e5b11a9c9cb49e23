"""Aε-Star — ε-relaxed best-first branch-and-bound [16].

Khan & Ahmad's Aε-Star searches the tree of replica-allocation sequences
with an A*-style evaluation and an ε band that lets it expand nodes whose
estimate is within (1 + ε) of the best frontier node, trading optimality
for speed.  Our reconstruction:

* a search node is a sequence of allocations (replayed onto the initial
  state when expanded — cheap, O(M) per allocation);
* children are the top-``branching`` candidate allocations, ranked by the
  cheap local benefit and re-scored with the exact global ΔOTC;
* ``f(node) = OTC(node) - optimistic_remaining(node)`` where the
  optimistic term sums the best candidates' positive global benefits
  (an over-estimate of remaining savings, i.e. an optimistic bound);
* the frontier is ε-relaxed: any node with ``f <= (1 + ε) * f_best`` may
  be expanded (we pop in f-order, so the relaxation governs pruning);
* the search stops after ``node_budget`` expansions and returns the best
  *complete* allocation seen (a node with no improving candidate), or the
  best partial one otherwise.

The quality lands near Greedy's (the paper's "Medium performance" tier)
while the tree exploration makes it markedly slower — the behaviour
Tables 1–2 report.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.baselines.base import ReplicaPlacer
from repro.drp.benefit import BenefitEngine, global_benefit
from repro.drp.cost import primary_only_otc, total_otc
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.obs import tracer as obs
from repro.result import PlacementResult
from repro.utils.timing import Timer, perf_counter
from repro.utils.validation import check_positive_int


class AEStarPlacer(ReplicaPlacer):
    """ε-relaxed best-first search over allocation sequences.

    Parameters
    ----------
    epsilon:
        Relaxation band; larger values prune more aggressively.
    branching:
        Children generated per expansion.
    node_budget:
        Maximum node expansions (bounds runtime).
    candidate_pool:
        How many cheap-ranked candidates are re-scored exactly per
        expansion (>= branching).
    """

    name = "Ae-Star"

    def __init__(
        self,
        *,
        epsilon: float = 0.1,
        branching: int = 3,
        node_budget: int = 120,
        candidate_pool: int = 8,
    ):
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        branching = check_positive_int(branching, "branching")
        node_budget = check_positive_int(node_budget, "node_budget")
        candidate_pool = check_positive_int(candidate_pool, "candidate_pool")
        if candidate_pool < branching:
            raise ValueError("candidate_pool must be >= branching")
        self.epsilon = epsilon
        self.branching = branching
        self.node_budget = node_budget
        self.candidate_pool = candidate_pool

    # -- helpers -----------------------------------------------------------

    def _replay(self, instance: DRPInstance, path: tuple) -> ReplicationState:
        state = ReplicationState.primaries_only(instance)
        for i, k in path:
            state.add_replica(i, k)
        return state

    def _candidates(
        self, instance: DRPInstance, state: ReplicationState
    ) -> list[tuple[float, int, int]]:
        """Top candidate allocations: cheap local ranking, exact rescoring.

        Returns (global_gain, server, object) triples with positive gain,
        best first.
        """
        engine = BenefitEngine(instance, state)
        flat = engine.matrix.ravel()
        pool = min(self.candidate_pool, flat.size)
        idx = np.argpartition(flat, -pool)[-pool:]
        scored = []
        n = instance.n_objects
        for f in idx:
            if not np.isfinite(flat[f]):
                continue
            i, k = divmod(int(f), n)
            g = global_benefit(instance, state, i, k)
            if g > 0.0:
                scored.append((g, i, k))
        scored.sort(reverse=True)
        return scored

    # -- search ------------------------------------------------------------

    def _place(self, instance: DRPInstance) -> PlacementResult:
        timer = Timer()
        tracer = obs.current()
        traced = tracer.enabled
        with timer:
            root_otc = primary_only_otc(instance)
            counter = itertools.count()  # heap tiebreaker
            # Heap entries: (f, tiebreak, otc, path)
            frontier: list[tuple[float, int, float, tuple]] = []
            heapq.heappush(frontier, (root_otc, next(counter), root_otc, ()))
            best_complete: tuple[float, tuple] | None = None
            best_partial: tuple[float, tuple] = (root_otc, ())
            expansions = 0
            f_best = root_otc

            while frontier and expansions < self.node_budget:
                f, _, otc, path = heapq.heappop(frontier)
                # ε pruning: discard nodes far outside the best band.
                if f > (1.0 + self.epsilon) * f_best:
                    continue
                f_best = min(f_best, f)
                expansions += 1

                t0 = perf_counter() if traced else 0.0
                state = self._replay(instance, path)
                if traced:
                    tracer.add("replay", perf_counter() - t0)
                    t0 = perf_counter()
                candidates = self._candidates(instance, state)
                if traced:
                    tracer.add("candidates", perf_counter() - t0)
                if not candidates:
                    # Complete: no improving allocation remains.
                    if best_complete is None or otc < best_complete[0]:
                        best_complete = (otc, path)
                    continue

                optimistic = sum(g for g, _, _ in candidates)
                for g, i, k in candidates[: self.branching]:
                    child_otc = otc - g
                    child_path = path + ((i, k),)
                    child_f = child_otc - (optimistic - g)
                    heapq.heappush(
                        frontier, (child_f, next(counter), child_otc, child_path)
                    )
                    if child_otc < best_partial[0]:
                        best_partial = (child_otc, child_path)

            # Prefer a complete leaf; otherwise greedily finish the best
            # partial path so the returned scheme leaves no obvious gain
            # on the table.
            chosen = best_complete if best_complete is not None else best_partial
            t0 = perf_counter() if traced else 0.0
            state = self._replay(instance, chosen[1])
            finishing = 0
            while True:
                candidates = self._candidates(instance, state)
                if not candidates:
                    break
                _, i, k = candidates[0]
                state.add_replica(i, k)
                finishing += 1
            if traced:
                tracer.add("finish", perf_counter() - t0)
                tracer.count("expansions", expansions)

        return PlacementResult(
            algorithm=self.name,
            state=state,
            otc=total_otc(state),
            runtime_s=timer.elapsed,
            rounds=expansions,
            extra={"expansions": expansions, "finishing_steps": finishing},
        )
