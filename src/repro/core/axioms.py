"""The six axioms (Figure 1) as machine-checkable properties.

The paper's "eccentric" contribution is packaging the mechanism-design
requirements as axioms whose conjunction yields the system-wide
performance property.  We make each axiom a concrete check over a
recorded mechanism run (:class:`~repro.core.mechanism.MechanismAudit`):

1. **Ingredients** — the mechanism produced an algorithmic output and
   per-agent utility functions.
2. **Agent disposition** — every winning valuation is reproducible from
   the winner's private data alone (its own read/write rows) plus public
   knowledge; we verify by replaying the run and recomputing Eq. 5.
3. **Truthful** — the payment never depends on the winner's own report
   (it equals the best competing report), which is what makes
   truth-telling dominant (Lemma 1 / Theorem 5).
4. **Utilitarian** — each round's allocation maximizes the reported
   valuation sum: the winner is an argmax of the reports.
5. **Motivation** — every allocation carried a non-negative payment
   equal to the overall second-best reported valuation.
6. **Algorithmic output** — the final scheme is feasible (capacity and
   primary-copy constraints hold, NN tables consistent) and every award
   matches the object the winner asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mechanism import MechanismAudit
from repro.core.payments import second_best_payment
from repro.drp.delta import make_local_engine
from repro.drp.feasibility import check_state
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import InfeasibleInstanceError, ReproError
from repro.result import PlacementResult

AXIOM_NAMES = (
    "axiom1_ingredients",
    "axiom2_agent_disposition",
    "axiom3_truthful",
    "axiom4_utilitarian",
    "axiom5_motivation",
    "axiom6_algorithmic_output",
)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom verification."""

    name: str
    passed: bool
    detail: str = ""


def _get_audit(result: PlacementResult) -> MechanismAudit:
    audit = result.extra.get("audit")
    if audit is None:
        raise ReproError(
            "result carries no audit transcript; run the mechanism with "
            "record_audit=True"
        )
    return audit


def _allocation_rounds(audit: MechanismAudit):
    return [r for r in audit.rounds if r.winner >= 0]


def axiom1_ingredients(instance: DRPInstance, result: PlacementResult) -> AxiomCheck:
    ok = (
        result.state is not None
        and "payments" in result.extra
        and "utilities" in result.extra
        and len(result.extra["payments"]) == instance.n_servers
    )
    return AxiomCheck(
        "axiom1_ingredients",
        ok,
        "output specification and per-agent utilities present"
        if ok
        else "missing output or utility components",
    )


def axiom2_agent_disposition(
    instance: DRPInstance, result: PlacementResult
) -> AxiomCheck:
    """Replay the run; each winner's true value must equal its private
    Eq. 5 CoR at that point of the game."""
    audit = _get_audit(result)
    state = ReplicationState.primaries_only(instance)
    engine = make_local_engine(instance, state)
    for idx, rec in enumerate(_allocation_rounds(audit)):
        expected = engine.value_at(rec.winner, rec.obj)
        if not np.isclose(expected, rec.true_value, rtol=1e-9, atol=1e-9):
            return AxiomCheck(
                "axiom2_agent_disposition",
                False,
                f"round {idx}: recorded true value {rec.true_value} != "
                f"replayed private CoR {expected}",
            )
        state.add_replica(rec.winner, rec.obj)
        engine.notify_allocation(rec.winner, rec.obj)
    return AxiomCheck(
        "axiom2_agent_disposition",
        True,
        "all winning valuations reproducible from private data",
    )


def axiom3_truthful(instance: DRPInstance, result: PlacementResult) -> AxiomCheck:
    """Payment must equal the best competing report — independent of the
    winner's own declaration, the second-price property."""
    audit = _get_audit(result)
    for idx, rec in enumerate(_allocation_rounds(audit)):
        expected = second_best_payment(rec.reported, rec.winner)
        if not np.isclose(expected, rec.payment, rtol=1e-9, atol=1e-9):
            return AxiomCheck(
                "axiom3_truthful",
                False,
                f"round {idx}: payment {rec.payment} != second-best {expected} "
                "(payment depends on winner's own report)",
            )
    return AxiomCheck(
        "axiom3_truthful", True, "payments are winner-report independent"
    )


def axiom4_utilitarian(instance: DRPInstance, result: PlacementResult) -> AxiomCheck:
    audit = _get_audit(result)
    for idx, rec in enumerate(_allocation_rounds(audit)):
        best = float(np.max(rec.reported))
        if rec.reported[rec.winner] < best - 1e-12:
            return AxiomCheck(
                "axiom4_utilitarian",
                False,
                f"round {idx}: winner's report {rec.reported[rec.winner]} "
                f"is not the maximum {best}",
            )
    return AxiomCheck(
        "axiom4_utilitarian", True, "every allocation maximizes the report sum"
    )


def axiom5_motivation(instance: DRPInstance, result: PlacementResult) -> AxiomCheck:
    audit = _get_audit(result)
    for idx, rec in enumerate(_allocation_rounds(audit)):
        if rec.payment < 0:
            return AxiomCheck(
                "axiom5_motivation", False, f"round {idx}: negative payment"
            )
    total = audit.total_payments()
    recorded = float(np.sum(result.extra.get("payments", np.zeros(1))))
    if not np.isclose(total, recorded, rtol=1e-9, atol=1e-6):
        return AxiomCheck(
            "axiom5_motivation",
            False,
            f"audit payments {total} disagree with result payments {recorded}",
        )
    return AxiomCheck("axiom5_motivation", True, "all allocations were paid")


def axiom6_algorithmic_output(
    instance: DRPInstance, result: PlacementResult
) -> AxiomCheck:
    audit = _get_audit(result)
    for idx, rec in enumerate(_allocation_rounds(audit)):
        if rec.obj != int(rec.objects[rec.winner]):
            return AxiomCheck(
                "axiom6_algorithmic_output",
                False,
                f"round {idx}: winner asked for object "
                f"{int(rec.objects[rec.winner])} but received {rec.obj}",
            )
    try:
        check_state(result.state)
    except InfeasibleInstanceError as exc:
        return AxiomCheck("axiom6_algorithmic_output", False, str(exc))
    return AxiomCheck(
        "axiom6_algorithmic_output",
        True,
        "final scheme feasible; awards follow preferences",
    )


def verify_axioms(
    instance: DRPInstance, result: PlacementResult
) -> dict[str, AxiomCheck]:
    """Run all six axiom checks; returns ``{axiom_name: AxiomCheck}``."""
    checks = (
        axiom1_ingredients,
        axiom2_agent_disposition,
        axiom3_truthful,
        axiom4_utilitarian,
        axiom5_motivation,
        axiom6_algorithmic_output,
    )
    return {fn.__name__: fn(instance, result) for fn in checks}
