"""Semi-distributed execution model.

The paper's deployment (Ada/GLADE over a distributed system) exchanges
messages between server agents and a lightweight central body.  This
package simulates that protocol at message granularity:

* :mod:`repro.runtime.messages` — the wire protocol (BID, ALLOCATE,
  PAYMENT, NN_UPDATE) with byte accounting,
* :mod:`repro.runtime.central` — the central decision body, whose only
  output per round is the binary replicate / don't-replicate decision,
* :mod:`repro.runtime.simulator` — a round-based simulation driving
  :class:`~repro.core.agents.ReplicaAgent` objects through Figure 2,
* :mod:`repro.runtime.metrics` — rounds / messages / bytes accounting,
* :mod:`repro.runtime.faults` — fault injection: crash/recover
  schedules, lossy channels, bid deadlines with quorum degradation, and
  central checkpoint/recovery,
* :mod:`repro.runtime.adversary` — Byzantine injection (scripted bid
  corruption, equivocation, collusion) and the hardened trust boundary
  (message validation, online manipulation detection, quarantine).
"""

from repro.runtime.messages import (
    Message,
    BidMessage,
    AllocateMessage,
    PaymentMessage,
    NNUpdateMessage,
    NNResyncMessage,
    StateSyncMessage,
    ElectionMessage,
    MessageLog,
)
from repro.runtime.faults import (
    ChannelConfig,
    Checkpoint,
    CheckpointStore,
    Delivery,
    FaultInjector,
    FaultPlan,
    FaultSchedule,
    FaultyChannel,
    QuorumPolicy,
)
from repro.runtime.adversary import (
    AdversaryInjector,
    AdversaryPlan,
    AdversarySpec,
    ManipulationDetector,
    MessageValidator,
    QuarantineManager,
    QuarantinePolicy,
    TrustBoundary,
)
from repro.runtime.central import CentralBody, Decision
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.simulator import SemiDistributedSimulator
from repro.runtime.replay import RealizedCost, replay_requests, replay_trace

__all__ = [
    "Message",
    "BidMessage",
    "AllocateMessage",
    "PaymentMessage",
    "NNUpdateMessage",
    "NNResyncMessage",
    "StateSyncMessage",
    "ElectionMessage",
    "MessageLog",
    "ChannelConfig",
    "Checkpoint",
    "CheckpointStore",
    "Delivery",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "FaultyChannel",
    "QuorumPolicy",
    "AdversaryInjector",
    "AdversaryPlan",
    "AdversarySpec",
    "ManipulationDetector",
    "MessageValidator",
    "QuarantineManager",
    "QuarantinePolicy",
    "TrustBoundary",
    "CentralBody",
    "Decision",
    "RuntimeMetrics",
    "SemiDistributedSimulator",
    "RealizedCost",
    "replay_requests",
    "replay_trace",
]
