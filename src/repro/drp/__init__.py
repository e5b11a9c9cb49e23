"""The Data Replication Problem (DRP) model — Section 2 of the paper.

* :class:`~repro.drp.instance.DRPInstance` — the immutable problem data
  (M servers, N objects, cost matrix, read/write matrices, sizes,
  capacities, primary copies).
* :class:`~repro.drp.state.ReplicationState` — a mutable replication
  scheme: the boolean X matrix, residual capacities, and the per-server
  nearest-neighbor (NN) tables the paper's servers maintain.
* :mod:`~repro.drp.cost` — the exact Object Transfer Cost (OTC) model
  (Equations 1–4), fully vectorized.
* :mod:`~repro.drp.benefit` — the local CoR valuation (Equation 5) and
  the exact global Δ-OTC benefit oracle used by centralized baselines.
* :mod:`~repro.drp.savings` — OTC-savings-% metric (the paper's
  performance metric).
* :mod:`~repro.drp.feasibility` — structural invariant checks.
"""

from repro.drp.instance import DRPInstance, build_instance
from repro.drp.state import ReplicationState
from repro.drp.cost import (
    total_otc,
    primary_only_otc,
    otc_breakdown,
    otc_of_matrix,
)
from repro.drp.benefit import BenefitEngine, global_benefit, global_benefit_column
from repro.drp.delta import DeltaBenefitEngine, make_local_engine
from repro.drp.global_engine import GlobalBenefitEngine, RegionalBenefitEngine
from repro.drp.savings import otc_savings_percent, savings_percent_curve
from repro.drp.feasibility import check_state, check_instance
from repro.drp.transforms import (
    delta_update_instance,
    scaled_request_instance,
    read_only_instance,
)

__all__ = [
    "DRPInstance",
    "build_instance",
    "ReplicationState",
    "total_otc",
    "primary_only_otc",
    "otc_breakdown",
    "otc_of_matrix",
    "BenefitEngine",
    "DeltaBenefitEngine",
    "make_local_engine",
    "GlobalBenefitEngine",
    "RegionalBenefitEngine",
    "global_benefit",
    "global_benefit_column",
    "otc_savings_percent",
    "savings_percent_curve",
    "check_state",
    "check_instance",
    "delta_update_instance",
    "scaled_request_instance",
    "read_only_instance",
]
