"""Agent-disposition variants — Axiom 2's three information models.

The paper distinguishes what an agent holds privately:

* **DRP[π]** — private cost-of-replication CoR, public capacity ("the
  only natural choice", and what :class:`~repro.core.agt_ram.AGTRam`
  implements);
* **DRP[σ]** — private capacity b_i, public CoR;
* **DRP[π,σ]** — both private.

Its argument for DRP[π] is twofold: knowing other agents' capacities
"gives them no advantage whatsoever", while knowing others' CoR would
let agents "modify their valuations and alter the algorithmic output".
This module makes both halves measurable:

* under DRP[σ]/DRP[π,σ], agents *declare* capacities.  Over-declaring
  is self-defeating — the mechanism's allocation bounces off the real
  storage (an infeasible award is voided and the agent is barred, the
  natural deployment rule) — and under-declaring only forfeits
  allocations.  :func:`capacity_misreport_gain` measures the utility
  delta of either manipulation (never positive).
* under public-CoR knowledge, a strategic agent could shade its report
  to just above the runner-up.  With the second-price payment this is
  *still* pointless — :func:`cor_knowledge_gain` measures it — which is
  exactly why the mechanism can afford DRP[π].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core.payments import second_best_payment
from repro.drp.benefit import BenefitEngine
from repro.drp.cost import total_otc
from repro.drp.delta import make_local_engine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.result import PlacementResult
from repro.utils.timing import Timer
from repro.utils.validation import check_nonnegative_int

DispositionModel = Literal["pi", "sigma", "pi-sigma"]


@dataclass(frozen=True)
class CapacityMisreportOutcome:
    """Utility comparison for one capacity-misreporting agent."""

    agent: int
    factor: float
    truthful_utility: float
    misreport_utility: float
    voided_awards: int

    @property
    def gain(self) -> float:
        return self.misreport_utility - self.truthful_utility


def run_with_declared_capacities(
    instance: DRPInstance,
    declared: np.ndarray,
    *,
    max_rounds: int | None = None,
) -> PlacementResult:
    """AGT-RAM where eligibility uses *declared* capacities (DRP[σ]).

    The mechanism masks bids by the declared residuals, but physics is
    enforced by the true storage: when a winner's award does not fit its
    real residual capacity, the award is voided and the agent is barred
    from the rest of the game (it has demonstrably lied).  ``max_rounds``
    caps the rounds, an integer >= 0 (default: the M·N bound).

    Every round masks the whole benefit matrix by the declared
    residuals, so this runs the full-matrix reference engine.
    """
    declared = np.asarray(declared, dtype=np.int64)
    if declared.shape != (instance.n_servers,):
        raise ConfigurationError(
            f"declared capacities must have shape ({instance.n_servers},)"
        )
    if max_rounds is not None:
        max_rounds = check_nonnegative_int(max_rounds, "max_rounds")
    timer = Timer()
    m = instance.n_servers
    payments = np.zeros(m)
    utilities = np.zeros(m)
    voided = np.zeros(m, dtype=np.int64)

    with timer:
        state = ReplicationState.primaries_only(instance)
        engine = BenefitEngine(instance, state)
        # Declared residual = declared capacity - what is actually stored.
        barred = np.zeros(m, dtype=bool)
        rounds = 0
        cap = max_rounds if max_rounds is not None else m * instance.n_objects
        while rounds < cap:
            declared_residual = declared - state.used
            # Mask the engine's view by declared capacity and barring.
            matrix = engine.matrix.copy()
            fits_declared = instance.sizes[None, :] <= declared_residual[:, None]
            matrix[~fits_declared] = -np.inf
            matrix[barred, :] = -np.inf

            objs = matrix.argmax(axis=1)
            vals = matrix[np.arange(m), objs]
            winner = int(np.argmax(vals))
            best = float(vals[winner])
            if not np.isfinite(best) or best <= 0.0:
                break
            obj = int(objs[winner])
            rounds += 1
            if state.can_host(winner, obj):
                payment = second_best_payment(vals, winner)
                true_value = float(engine.matrix[winner, obj])
                state.add_replica(winner, obj)
                engine.notify_allocation(winner, obj)
                payments[winner] += payment
                utilities[winner] += true_value - payment
            else:
                # The declared capacity was a lie: void and bar.
                voided[winner] += 1
                barred[winner] = True

    return PlacementResult(
        algorithm="AGT-RAM[sigma]",
        state=state,
        otc=total_otc(state),
        runtime_s=timer.elapsed,
        rounds=rounds,
        extra={
            "payments": payments,
            "utilities": utilities,
            "voided": voided,
            "declared": declared,
        },
    )


def capacity_misreport_gain(
    instance: DRPInstance, agent: int, factor: float
) -> CapacityMisreportOutcome:
    """Utility change when ``agent`` declares ``factor x`` its capacity.

    ``factor > 1`` over-declares (awards bounce off real storage, agent
    gets barred), ``factor < 1`` under-declares (agent forfeits
    allocations).  Everyone else is truthful.
    """
    if factor <= 0:
        raise ConfigurationError("factor must be > 0")
    truthful = run_with_declared_capacities(instance, instance.capacities)
    declared = instance.capacities.copy()
    declared[agent] = max(
        int(instance.primary_load[agent]), int(round(declared[agent] * factor))
    )
    lying = run_with_declared_capacities(instance, declared)
    return CapacityMisreportOutcome(
        agent=agent,
        factor=factor,
        truthful_utility=float(truthful.extra["utilities"][agent]),
        misreport_utility=float(lying.extra["utilities"][agent]),
        voided_awards=int(lying.extra["voided"][agent]),
    )


def cor_knowledge_gain(instance: DRPInstance, agent: int) -> float:
    """Best single-round gain an agent could extract if it knew every
    other agent's CoR (the DRP[π] leak the paper worries about).

    With full knowledge the sharpest manipulation is to shade the report
    to just above the runner-up when winning (pay less?) or overbid to
    steal a round (pay more than value?).  Under second price the
    payment is already the runner-up's bid, so the measured gain is
    exactly zero — returned for the test/bench to assert.
    """
    state = ReplicationState.primaries_only(instance)
    vals, objs = make_local_engine(instance, state).best_per_server()
    truthful_winner = int(np.argmax(vals))
    if not np.isfinite(vals[truthful_winner]) or vals[truthful_winner] <= 0:
        return 0.0
    others = np.delete(vals, agent)
    best_other = float(others[np.isfinite(others)].max()) if np.isfinite(others).any() else 0.0

    def utility(report: float) -> float:
        declared = vals.copy()
        declared[agent] = report
        w = int(np.argmax(declared))
        if w != agent or declared[w] <= 0:
            return 0.0
        pay = second_best_payment(declared, w)
        return float(vals[agent]) - pay  # true value minus price

    truthful_u = utility(float(vals[agent]))
    # Knowledge-exploiting reports: epsilon above the best competitor,
    # and a huge overbid.
    candidates = [best_other * (1 + 1e-9) + 1e-9, best_other + 1.0, 1e18]
    best_u = max(utility(c) for c in candidates)
    return best_u - truthful_u
