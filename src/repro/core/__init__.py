"""The paper's primary contribution.

* :mod:`repro.core.mechanism` — Definitions 1–3 as abstractions: a
  mechanism is an output function plus a payment function over agents'
  declared data.
* :mod:`repro.core.payments` — the second-best payment rule (Axiom 5)
  and the Theorem-5 utility model.
* :mod:`repro.core.strategies` — agent reporting strategies: truthful,
  over-, under-, and random projection (the three manipulation cases the
  paper analyzes under Axiom 5).
* :mod:`repro.core.agents` — the replica agent: private data, eligible
  object list L_i, dominant report.
* :mod:`repro.core.agt_ram` — the AGT-RAM algorithm (Figure 2).
* :mod:`repro.core.axioms` — the six axioms as machine-checkable
  properties over a recorded mechanism run.
* :mod:`repro.core.equilibrium` — empirical dominant-strategy /
  truthfulness verification.
"""

from repro.core.payments import (
    second_best_payment,
    first_price_payment,
    winner_utility,
    PAYMENT_RULES,
)
from repro.core.strategies import (
    Strategy,
    TruthfulStrategy,
    OverProjection,
    UnderProjection,
    RandomProjection,
)
from repro.core.agents import ReplicaAgent
from repro.core.mechanism import Mechanism, RoundRecord, MechanismAudit
from repro.core.agt_ram import AGTRam, run_agt_ram
from repro.core.axioms import AxiomCheck, verify_axioms, AXIOM_NAMES
from repro.core.equilibrium import (
    one_shot_utilities,
    full_run_utilities,
    truthfulness_gap,
)
from repro.core.adaptive import AdaptiveReplicator, EpochOutcome
from repro.core.disposition import (
    run_with_declared_capacities,
    capacity_misreport_gain,
    cor_knowledge_gain,
    CapacityMisreportOutcome,
)
from repro.core.theorem3 import vcg_payment, verify_theorem3
from repro.core.reauction import (
    ReauctionOutcome,
    build_sub_instance,
    reauction_objects,
)

__all__ = [
    "second_best_payment",
    "first_price_payment",
    "winner_utility",
    "PAYMENT_RULES",
    "Strategy",
    "TruthfulStrategy",
    "OverProjection",
    "UnderProjection",
    "RandomProjection",
    "ReplicaAgent",
    "Mechanism",
    "RoundRecord",
    "MechanismAudit",
    "AGTRam",
    "run_agt_ram",
    "AxiomCheck",
    "verify_axioms",
    "AXIOM_NAMES",
    "one_shot_utilities",
    "full_run_utilities",
    "truthfulness_gap",
    "AdaptiveReplicator",
    "EpochOutcome",
    "run_with_declared_capacities",
    "capacity_misreport_gain",
    "cor_knowledge_gain",
    "CapacityMisreportOutcome",
    "vcg_payment",
    "verify_theorem3",
    "ReauctionOutcome",
    "build_sub_instance",
    "reauction_objects",
]
