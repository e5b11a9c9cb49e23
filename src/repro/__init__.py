"""repro — AGT-RAM: semi-distributed axiomatic game-theoretic replica
placement.

A full reproduction of S. U. Khan & I. Ahmad, *"A Semi-Distributed
Axiomatic Game Theoretical Mechanism for Replicating Data Objects in
Large Distributed Computing Systems"* (IPPS 2007): the Data Replication
Problem model, the AGT-RAM mechanism with its six axioms, the five
comparison baselines, the network/workload substrates, and the full
evaluation harness.

Quickstart
----------
>>> from repro import (
...     ExperimentConfig, paper_instance, run_agt_ram, otc_savings_percent,
... )
>>> instance = paper_instance(ExperimentConfig(n_servers=20, n_objects=80))
>>> result = run_agt_ram(instance)
>>> result.savings_percent > 0
True
"""

from repro.errors import (
    ReproError,
    ConfigurationError,
    InfeasibleInstanceError,
    CapacityError,
    MechanismProtocolError,
    ConvergenceError,
)
from repro.result import PlacementResult
from repro.topology import (
    Topology,
    random_graph,
    waxman_graph,
    transit_stub_graph,
    powerlaw_graph,
    cost_matrix,
    make_topology,
)
from repro.workload import (
    synthesize_workload,
    SyntheticWorkload,
    WorldCupLogGenerator,
    parse_common_log,
    map_clients_to_servers,
    trace_to_matrices,
)
from repro.drp import (
    DRPInstance,
    build_instance,
    ReplicationState,
    total_otc,
    primary_only_otc,
    otc_of_matrix,
    otc_savings_percent,
    BenefitEngine,
    global_benefit,
)
from repro.core import (
    AGTRam,
    run_agt_ram,
    verify_axioms,
    TruthfulStrategy,
    OverProjection,
    UnderProjection,
    RandomProjection,
    one_shot_utilities,
    full_run_utilities,
    AdaptiveReplicator,
)
from repro.workload.drift import drifting_workloads
from repro.io import (
    save_instance,
    load_instance,
    save_scheme,
    load_scheme,
    save_result,
    load_result_summary,
)
from repro.baselines import (
    GreedyPlacer,
    GRAPlacer,
    AEStarPlacer,
    DutchAuctionPlacer,
    EnglishAuctionPlacer,
    RandomPlacer,
    make_placer,
)
from repro.runtime import SemiDistributedSimulator
from repro.runtime.shard import ShardedAGTRam, partition_by_proximity
from repro.experiments import (
    ExperimentConfig,
    SCALES,
    paper_instance,
    worldcup_instance,
    run_algorithms,
    PAPER_ALGORITHMS,
    figure3_capacity_sweep,
    figure4_rw_sweep,
    table1_running_time,
    table2_quality,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "InfeasibleInstanceError",
    "CapacityError",
    "MechanismProtocolError",
    "ConvergenceError",
    # result
    "PlacementResult",
    # topology
    "Topology",
    "random_graph",
    "waxman_graph",
    "transit_stub_graph",
    "powerlaw_graph",
    "cost_matrix",
    "make_topology",
    # workload
    "synthesize_workload",
    "SyntheticWorkload",
    "WorldCupLogGenerator",
    "parse_common_log",
    "map_clients_to_servers",
    "trace_to_matrices",
    # drp
    "DRPInstance",
    "build_instance",
    "ReplicationState",
    "total_otc",
    "primary_only_otc",
    "otc_of_matrix",
    "otc_savings_percent",
    "BenefitEngine",
    "global_benefit",
    # core
    "AGTRam",
    "run_agt_ram",
    "verify_axioms",
    "TruthfulStrategy",
    "OverProjection",
    "UnderProjection",
    "RandomProjection",
    "one_shot_utilities",
    "full_run_utilities",
    "AdaptiveReplicator",
    "drifting_workloads",
    # io
    "save_instance",
    "load_instance",
    "save_scheme",
    "load_scheme",
    "save_result",
    "load_result_summary",
    # baselines
    "GreedyPlacer",
    "GRAPlacer",
    "AEStarPlacer",
    "DutchAuctionPlacer",
    "EnglishAuctionPlacer",
    "RandomPlacer",
    "make_placer",
    # runtime
    "SemiDistributedSimulator",
    "ShardedAGTRam",
    "partition_by_proximity",
    # experiments
    "ExperimentConfig",
    "SCALES",
    "paper_instance",
    "worldcup_instance",
    "run_algorithms",
    "PAPER_ALGORITHMS",
    "figure3_capacity_sweep",
    "figure4_rw_sweep",
    "table1_running_time",
    "table2_quality",
    "__version__",
]
