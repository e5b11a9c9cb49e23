"""Structured event stream — the decision-granular half of ``repro.obs``.

Where :mod:`repro.obs.tracer` aggregates (span totals, counters), this
module *streams*: every mechanism decision — round boundaries, bids,
winner selection, payments, NN-table broadcasts, capacity rejections —
is emitted as a typed, schema-versioned record the moment it happens.
The stream is what the exporters (:mod:`repro.obs.export`) serialize and
what the offline audit (:mod:`repro.obs.audit`) re-verifies the paper's
axioms against.

The same disciplines as the tracer apply:

* **No-op by default.**  The active sink is :data:`NULL_SINK` unless one
  is installed; instrumented code gates every emission on a single
  ``sink.enabled`` attribute read.
* **contextvars registry.**  :func:`current` / :func:`install` /
  :func:`capture` mirror the tracer registry and are
  :mod:`contextvars`-based, so concurrent captures (thread-pool workers,
  future async code) never clobber each other.
* **Machine-readable.**  Every event serializes to a flat JSON-safe dict
  (:meth:`Event.to_dict`) and parses back (:func:`parse_event`), which
  is what makes the JSONL log a lossless transcript.

**Record contract.**  An event is built once, at emission, and never
changed afterwards: sinks, the live monitor, exporters and audits only
read it.  Events compare and hash by their field values.  They are
plain (not frozen) dataclasses, so building one stores each field as
an ordinary attribute rather than through one ``object.__setattr__``
call per field; nothing at run time rejects an assignment, and
``tests/test_obs_log_integrity.py`` checks instead that every emitted
event still pickles to the bytes it had at emission after a run, its
exports and its audits.

Timestamps are ``perf_counter`` seconds (monotonic, process-local):
good for ordering and durations, meaningless across processes.
"""

from __future__ import annotations

import copy
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields
from typing import Any, ClassVar, Iterable, Iterator, Optional

import numpy as _np

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "Event",
    "RunStart",
    "RunEnd",
    "RoundStart",
    "BidEvent",
    "WinnerEvent",
    "PaymentEvent",
    "NNUpdateEvent",
    "CapacityReject",
    "RoundEnd",
    "FaultEvent",
    "TimeoutEvent",
    "ElectionEvent",
    "CheckpointEvent",
    "RecoveryEvent",
    "ValidationEvent",
    "ManipulationEvent",
    "QuarantineEvent",
    "AdversaryEvent",
    "ServeStart",
    "ServeEnd",
    "RequestEvent",
    "RequestTimeout",
    "HedgeEvent",
    "ShedEvent",
    "FailoverEvent",
    "ReauctionEvent",
    "PartitionEvent",
    "HealEvent",
    "ReconcileEvent",
    "InvariantEvent",
    "parse_event",
    "logical_time",
    "EventSink",
    "NullSink",
    "RecordingSink",
    "ColumnarSink",
    "EventStream",
    "NULL_SINK",
    "current",
    "install",
    "capture",
    "RoundSeries",
    "RoundBlock",
    "ColumnarRoundBuffer",
    "iter_block_events",
    "iter_bid_run",
    "now",
    "now_block",
]

#: Version of the event record schema.  Bumps only on breaking changes
#: (field removal / retyping); readers reject newer versions.
EVENT_SCHEMA_VERSION = 1

#: Monotonic clock used for every event timestamp.
now = time.perf_counter


def _wall_now_block(n: int) -> tuple[float, float]:
    """Reserve timestamps for ``n`` events emitted together.

    Returns ``(start, step)``: event ``j`` of the block is stamped
    ``start + step * j``.  Under the wall clock a deferred flush cannot
    recover per-decision times, so the whole block shares one
    ``perf_counter`` reading (``step`` 0) — ordering is preserved and
    stamps stay non-decreasing across blocks.  :func:`logical_time`
    swaps this for a tick-per-event variant, so a block expands to the
    stamps one event object per decision would have carried.
    """
    return now(), 0.0


#: Block-granular clock used by the columnar pipeline; swapped together
#: with :data:`now` by :func:`logical_time`.
now_block = _wall_now_block


# -- event records -----------------------------------------------------------


@dataclass(unsafe_hash=True)
class Event:
    """Base event: a timestamp plus a class-level ``type`` tag."""

    type: ClassVar[str] = "event"

    #: ``perf_counter`` seconds at emission (monotonic, process-local).
    t: float

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-safe dict, ``type`` included."""
        d = asdict(self)
        d["type"] = self.type
        return d


@dataclass(unsafe_hash=True)
class RunStart(Event):
    """One mechanism/baseline execution begins (template-hook emitted)."""

    type: ClassVar[str] = "run_start"

    algorithm: str = ""


@dataclass(unsafe_hash=True)
class RunEnd(Event):
    """The matching execution ends, with its headline outcome."""

    type: ClassVar[str] = "run_end"

    algorithm: str = ""
    otc: float = 0.0
    rounds: int = 0


@dataclass(unsafe_hash=True)
class RoundStart(Event):
    """A mechanism round opens (Figure 2, top of the loop).

    ``region`` is ``-1`` for the flat single-central mechanism; the
    regional mechanism (:class:`~repro.runtime.shard.ShardedAGTRam`)
    tags each regional sub-round with its region id so per-shard
    streams can be demultiplexed
    (:func:`repro.obs.audit.audit_sharded_events`).
    """

    type: ClassVar[str] = "round_start"

    round: int = 0
    region: int = -1


@dataclass(unsafe_hash=True)
class BidEvent(Event):
    """One agent's dominant report t_i^k (Figure 2 line 08)."""

    type: ClassVar[str] = "bid"

    round: int = 0
    agent: int = -1
    obj: int = -1
    value: float = 0.0
    #: Region whose (regional) central received the bid; -1 = flat.
    region: int = -1


@dataclass(unsafe_hash=True)
class WinnerEvent(Event):
    """OMAX selection (line 10): the winning (agent, object, value).

    ``obj_size`` and ``residual_before`` (the winner's free capacity
    *before* the commit) are recorded so the offline audit can verify
    capacity feasibility from the log alone.
    """

    type: ClassVar[str] = "winner"

    round: int = 0
    agent: int = -1
    obj: int = -1
    value: float = 0.0
    obj_size: int = 0
    residual_before: int = 0
    #: Region whose sealed-bid auction the winner cleared; -1 = flat.
    region: int = -1


@dataclass(unsafe_hash=True)
class PaymentEvent(Event):
    """Payment issued to a round winner (lines 11-12, Axiom 5).

    ``rule`` names the pricing rule in force (``"second_price"``,
    ``"uniform"`` for batched clearing, ``"first_price"`` for the
    ablation) so the audit knows what to re-verify.
    """

    type: ClassVar[str] = "payment"

    round: int = 0
    agent: int = -1
    amount: float = 0.0
    rule: str = "second_price"
    #: Region whose central issued the payment; -1 = flat.
    region: int = -1


@dataclass(unsafe_hash=True)
class NNUpdateEvent(Event):
    """NN-table broadcast after a commit (lines 13, 19-21)."""

    type: ClassVar[str] = "nn_update"

    round: int = 0
    obj: int = -1
    agents: int = 0


@dataclass(unsafe_hash=True)
class CapacityReject(Event):
    """A provisional winner was skipped because the object no longer
    fits its residual capacity (stale bid in a batched/warm-start round)."""

    type: ClassVar[str] = "capacity_reject"

    round: int = 0
    agent: int = -1
    obj: int = -1
    obj_size: int = 0
    residual: int = 0
    #: "capacity" (object no longer fits) or "duplicate" (agent already
    #: hosts the object — possible under warm starts).
    reason: str = "capacity"
    #: Region whose round skipped the provisional winner; -1 = flat.
    region: int = -1


@dataclass(unsafe_hash=True)
class RoundEnd(Event):
    """A round closes.  ``committed`` counts replicas allocated this
    round (0 terminates the game); ``otc`` is the system OTC after it."""

    type: ClassVar[str] = "round_end"

    round: int = 0
    committed: int = 0
    otc: float = 0.0
    #: Region of the sub-round that closed; -1 = flat.
    region: int = -1


@dataclass(unsafe_hash=True)
class FaultEvent(Event):
    """One injected fault (:mod:`repro.runtime.faults`).

    ``kind`` names the fault: ``"drop"``, ``"delay"``, ``"duplicate"``,
    ``"straggler"``, ``"agent_crash"``, or ``"central_crash"``.
    ``target`` is the affected traffic class (``"bid"``,
    ``"nn_update"``, ``"resync"``; empty for process faults) and
    ``agent`` the affected agent (``-1`` for the central body).
    """

    type: ClassVar[str] = "fault"

    round: int = 0
    kind: str = ""
    agent: int = -1
    target: str = ""
    detail: str = ""


@dataclass(unsafe_hash=True)
class TimeoutEvent(Event):
    """The round's bid deadline passed with bids still missing.

    ``agents`` lists the bidders whose reports never arrived in time
    (the audit excludes exactly these from its argmax/second-price
    re-verification — a dropped bid is not a wrong winner).
    ``quorum_met`` records whether the central body proceeded with the
    ``received`` of ``expected`` bids or stalled the round.
    """

    type: ClassVar[str] = "timeout"

    round: int = 0
    agents: tuple[int, ...] = ()
    expected: int = 0
    received: int = 0
    quorum_met: bool = True

    def __post_init__(self) -> None:
        self.agents = tuple(self.agents)


@dataclass(unsafe_hash=True)
class ElectionEvent(Event):
    """A §7 central-body handover: the live agents elected a new acting
    central.  ``voters`` counts the live electorate."""

    type: ClassVar[str] = "election"

    round: int = 0
    candidate: int = -1
    voters: int = 0


@dataclass(unsafe_hash=True)
class CheckpointEvent(Event):
    """The central body snapshotted its state (round counter + replica
    map) after ``allocations`` total commits."""

    type: ClassVar[str] = "checkpoint"

    round: int = 0
    allocations: int = 0


@dataclass(unsafe_hash=True)
class RecoveryEvent(Event):
    """A crashed component came back.

    ``kind`` is ``"agent"`` (a crashed agent rejoined the game) or
    ``"central"`` (the acting central restored ``checkpoint_round``'s
    snapshot and re-learned ``replayed`` newer commits from the agents'
    state-sync reports).
    """

    type: ClassVar[str] = "recovery"

    round: int = 0
    kind: str = "agent"
    agent: int = -1
    checkpoint_round: int = -1
    replayed: int = 0
    acting_central: int = -1


@dataclass(unsafe_hash=True)
class ValidationEvent(Event):
    """The trust boundary rejected a malformed or infeasible bid.

    Emitted by the :class:`~repro.runtime.adversary.MessageValidator`
    in front of the central body, or by
    :class:`~repro.runtime.central.CentralBody` itself on wire-level
    protocol violations.  ``kind`` names the failed check:

    * ``"schema"`` — non-finite value, out-of-range object id, or a
      sequence number beyond the retry budget;
    * ``"feasibility"`` — a bid for an object the sender already hosts;
    * ``"overclaim"`` — a bid for an object exceeding the sender's
      residual capacity;
    * ``"equivocation"`` — two bids from one sender with conflicting
      payloads in one round (all of that sender's copies are discarded);
    * ``"unknown_sender"`` — a bid from an out-of-range agent id.

    The rejected bid is excluded from the round's decision; the audit
    excludes the named agent from that round's argmax/second-price
    checks (a rejected bid cannot win or set a price).
    """

    type: ClassVar[str] = "validation"

    round: int = 0
    agent: int = -1
    kind: str = ""
    obj: int = -1
    value: float = 0.0
    detail: str = ""


@dataclass(unsafe_hash=True)
class ManipulationEvent(Event):
    """The online detector flagged a delivered bid as manipulated.

    The :class:`~repro.runtime.adversary.ManipulationDetector`
    recomputes each delivered bid's valuation from the central body's
    own benefit oracle; a report deviating beyond tolerance is flagged
    here (``reported`` vs ``recomputed``) and counts one strike toward
    quarantine.  Unlike a :class:`ValidationEvent` the bid *was*
    well-formed and did enter the decision — detection is advisory
    until the quarantine policy acts on it.
    """

    type: ClassVar[str] = "manipulation"

    round: int = 0
    agent: int = -1
    kind: str = "misreport"
    obj: int = -1
    reported: float = 0.0
    recomputed: float = 0.0


@dataclass(unsafe_hash=True)
class QuarantineEvent(Event):
    """The quarantine policy changed an agent's standing.

    ``action`` is ``"quarantine"`` (strikes reached the threshold; the
    agent is excluded from bidding until ``until_round``),
    ``"release"`` (probation served, the agent rejoins the game), or
    ``"expel"`` (repeat offender removed for the rest of the run).
    """

    type: ClassVar[str] = "quarantine"

    round: int = 0
    agent: int = -1
    action: str = "quarantine"
    strikes: int = 0
    until_round: int = -1


@dataclass(unsafe_hash=True)
class AdversaryEvent(Event):
    """Ground truth: one injected Byzantine manipulation.

    Emitted by the :class:`~repro.runtime.adversary.AdversaryInjector`
    for every bid it actually altered (identity transforms are not
    recorded), so a campaign can score detection precision/recall by
    joining these records against :class:`ValidationEvent` /
    :class:`ManipulationEvent` on ``(round, agent)``.
    """

    type: ClassVar[str] = "adversary"

    round: int = 0
    agent: int = -1
    behavior: str = ""
    obj: int = -1
    value: float = 0.0
    detail: str = ""


@dataclass(unsafe_hash=True)
class InvariantEvent(Event):
    """A safety check failed during a run.

    Emitted by :class:`repro.runtime.invariants.InvariantMonitor` the
    moment a check fails.  The monitor runs the audits of
    :mod:`repro.obs.audit` live, so ``invariant`` is the kind of the
    violation they found — ``"winner"``, ``"payment"``, ``"capacity"``
    (double allocation included) or ``"structure"`` from the mechanism
    audits, ``"placement"`` or ``"structure"`` from the serving audit —
    and ``detail`` the violation as the offline report prints it.  The
    one check of the monitor's own is ``"availability_floor"``: the
    served fraction over the sliding request window dropped below the
    configured floor (``value`` the fraction, ``bound`` the floor).
    docs/robustness.md, "Online safety invariants", is the catalog.

    ``round`` is the mechanism round (``-1`` on the serving path) and
    ``tick`` the serving request index (``-1`` on the mechanism path).
    """

    type: ClassVar[str] = "invariant"

    invariant: str = ""
    round: int = -1
    tick: int = -1
    agent: int = -1
    obj: int = -1
    value: float = 0.0
    bound: float = 0.0
    detail: str = ""


def _pairs(value: Any) -> tuple[tuple[int, int], ...]:
    """Coerce a (server, obj)-pair sequence (or its JSON list-of-lists
    form) back into the canonical nested-tuple representation."""
    return tuple((int(a), int(b)) for a, b in value)


@dataclass(unsafe_hash=True)
class ServeStart(Event):
    """A serving campaign begins against a frozen placement snapshot.

    ``primaries`` maps object -> primary server and ``replicas`` lists
    every (server, object) replica pair in the placement at campaign
    start.  Together they seed the serving audit's placement model,
    which :class:`ReauctionEvent` deltas then evolve.
    """

    type: ClassVar[str] = "serve_start"

    workload: str = ""
    n_requests: int = 0
    n_servers: int = 0
    n_objects: int = 0
    primaries: tuple[int, ...] = ()
    replicas: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        self.primaries = tuple(int(p) for p in self.primaries)
        self.replicas = _pairs(self.replicas)


@dataclass(unsafe_hash=True)
class ServeEnd(Event):
    """The serving campaign's headline outcome (the SLO-gate inputs)."""

    type: ClassVar[str] = "serve_end"

    served: int = 0
    shed: int = 0
    failed: int = 0
    hedges: int = 0
    failovers: int = 0
    reauctions: int = 0
    availability: float = 1.0
    p50: float = 0.0
    p99: float = 0.0


@dataclass(unsafe_hash=True)
class RequestEvent(Event):
    """One client request resolved (or abandoned) by the router.

    ``tick`` is the request's index in the campaign (the serving loop's
    logical clock); ``server`` is the origin server the client maps to;
    ``replica`` is the server that actually answered (``-1`` when every
    attempt failed).  ``outcome`` is ``"ok"`` or ``"failed"`` — shed
    requests emit :class:`ShedEvent` instead of a ``RequestEvent``.
    """

    type: ClassVar[str] = "request"

    tick: int = 0
    client: int = -1
    server: int = -1
    obj: int = -1
    kind: str = "read"
    replica: int = -1
    latency: float = 0.0
    attempts: int = 1
    hedged: bool = False
    outcome: str = "ok"


@dataclass(unsafe_hash=True)
class RequestTimeout(Event):
    """One attempt at ``replica`` exceeded the per-request deadline.

    Distinct from the mechanism-layer :class:`TimeoutEvent` (a round's
    bid deadline): this is data-path, one record per timed-out attempt,
    so attempt counts in :class:`RequestEvent` can be cross-checked.
    """

    type: ClassVar[str] = "request_timeout"

    tick: int = 0
    obj: int = -1
    replica: int = -1
    attempt: int = 0
    deadline: float = 0.0


@dataclass(unsafe_hash=True)
class HedgeEvent(Event):
    """A slow read was hedged to a second replica.

    The first attempt at ``primary`` exceeded the hedge ``threshold``
    (a trailing latency quantile), so a duplicate read was issued to
    ``backup``; ``winner`` is whichever answered first.
    """

    type: ClassVar[str] = "hedge"

    tick: int = 0
    obj: int = -1
    primary: int = -1
    backup: int = -1
    winner: int = -1
    threshold: float = 0.0


@dataclass(unsafe_hash=True)
class ShedEvent(Event):
    """Admission control rejected the request before routing.

    ``tokens`` is the token-bucket level at rejection time (always
    below 1.0 — sheds happen only when the bucket cannot cover one
    request).  Shed requests are excluded from the availability SLO's
    denominator and reported separately.
    """

    type: ClassVar[str] = "shed"

    tick: int = 0
    client: int = -1
    obj: int = -1
    kind: str = "read"
    tokens: float = 0.0


@dataclass(unsafe_hash=True)
class FailoverEvent(Event):
    """The router rerouted a request off a failed replica.

    ``reason`` is ``"timeout"`` (attempt deadline exceeded) or
    ``"unhealthy"`` (EWMA health tracker marked the replica down, so it
    was skipped without an attempt).  ``to_server == -1`` means no
    alternative was left and the request failed.
    """

    type: ClassVar[str] = "failover"

    tick: int = 0
    obj: int = -1
    from_server: int = -1
    to_server: int = -1
    reason: str = "timeout"


@dataclass(unsafe_hash=True)
class ReauctionEvent(Event):
    """A drift-triggered incremental re-auction committed.

    The drift detector flagged ``objects`` (popularity shifted beyond
    tolerance), the mechanism re-ran on the induced sub-instance while
    the router kept serving the stale placement, and the resulting
    placement delta — ``added`` / ``removed`` (server, object) replica
    pairs — was swapped in atomically at tick ``tick``.  The serving
    audit replays exactly these deltas over the :class:`ServeStart`
    snapshot.
    """

    type: ClassVar[str] = "reauction"

    tick: int = 0
    trigger: str = "drift"
    objects: tuple[int, ...] = ()
    added: tuple[tuple[int, int], ...] = ()
    removed: tuple[tuple[int, int], ...] = ()
    otc_before: float = 0.0
    otc_after: float = 0.0
    rounds: int = 0

    def __post_init__(self) -> None:
        self.objects = tuple(int(k) for k in self.objects)
        self.added = _pairs(self.added)
        self.removed = _pairs(self.removed)


@dataclass(unsafe_hash=True)
class PartitionEvent(Event):
    """A network partition split the sharded central into islands.

    ``islands`` maps region id -> island index (``islands[r]`` is the
    communication island region ``r`` belongs to from protocol round
    ``round`` until the matching :class:`HealEvent`).  Regions in
    different islands cannot exchange commits: each island keeps
    clearing on its own fork of the replica map.
    """

    type: ClassVar[str] = "partition"

    round: int = 0
    islands: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.islands = tuple(int(i) for i in self.islands)


@dataclass(unsafe_hash=True)
class HealEvent(Event):
    """The partition healed: all regions communicate again.

    ``islands`` echoes the assignment that just ended; ``divergent``
    counts the commits made across all islands while split.  A heal is
    always accompanied by exactly one :class:`ReconcileEvent` declaring
    how the divergent forks were merged.
    """

    type: ClassVar[str] = "heal"

    round: int = 0
    islands: tuple[int, ...] = ()
    divergent: int = 0

    def __post_init__(self) -> None:
        self.islands = tuple(int(i) for i in self.islands)


@dataclass(unsafe_hash=True)
class ReconcileEvent(Event):
    """Deterministic merge of divergent island placements at heal time.

    ``conflicts`` lists the contested objects (allocated in two or more
    islands during the split); per contested object the single
    lowest-cost (highest-benefit, ties to the lowest server id) commit
    is ``kept`` and every other commit is ``revoked`` — its capacity is
    refunded (``refunded_capacity`` size units total), its payment is
    clawed back (``refunded_payment``), and the object re-enters the
    post-heal auction (``reauctioned``).  The cross-shard audit
    recomputes all of this from the region-tagged winner events alone.
    """

    type: ClassVar[str] = "reconcile"

    round: int = 0
    conflicts: tuple[int, ...] = ()
    kept: tuple[tuple[int, int], ...] = ()
    revoked: tuple[tuple[int, int], ...] = ()
    refunded_capacity: int = 0
    refunded_payment: float = 0.0
    reauctioned: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.conflicts = tuple(int(k) for k in self.conflicts)
        self.kept = _pairs(self.kept)
        self.revoked = _pairs(self.revoked)
        self.reauctioned = tuple(int(k) for k in self.reauctioned)


#: ``type`` tag -> event class, for parsing serialized records.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.type: cls
    for cls in (
        RunStart,
        RunEnd,
        RoundStart,
        BidEvent,
        WinnerEvent,
        PaymentEvent,
        NNUpdateEvent,
        CapacityReject,
        RoundEnd,
        FaultEvent,
        TimeoutEvent,
        ElectionEvent,
        CheckpointEvent,
        RecoveryEvent,
        ValidationEvent,
        ManipulationEvent,
        QuarantineEvent,
        AdversaryEvent,
        ServeStart,
        ServeEnd,
        RequestEvent,
        RequestTimeout,
        HedgeEvent,
        ShedEvent,
        FailoverEvent,
        ReauctionEvent,
        PartitionEvent,
        HealEvent,
        ReconcileEvent,
        InvariantEvent,
    )
}


def parse_event(record: dict[str, Any]) -> Event:
    """Reconstruct a typed event from its :meth:`Event.to_dict` form.

    Unknown extra keys are ignored (forward compatibility); a missing or
    unknown ``type`` raises ``ValueError``.
    """
    tag = record.get("type")
    cls = EVENT_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"unknown event type {tag!r}")
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in record.items() if k in names})


@contextmanager
def logical_time() -> Iterator[None]:
    """Swap the event clock for a deterministic counter.

    Inside the block every :func:`now` call returns 0.0, 1.0, 2.0, … —
    which makes event logs byte-for-byte reproducible across runs (the
    chaos campaign's determinism guarantee).  Ordering and structure are
    preserved; durations become meaningless.  The swap is process-global
    (module-level), so don't nest it with concurrent wall-clock captures.

    :func:`now_block` is swapped from the same counter: a block of ``n``
    events consumes ``n`` consecutive ticks (``step`` 1.0), so a flushed
    :class:`RoundBlock` expands to exactly the timestamps the per-object
    path would have produced — integer-valued floats are exact, which is
    what makes buffered and legacy logs byte-identical under this clock.
    """
    global now, now_block
    previous = (now, now_block)
    ticks = [0]

    def _tick() -> float:
        t = ticks[0]
        ticks[0] = t + 1
        return float(t)

    def _tick_block(n: int) -> tuple[float, float]:
        t = ticks[0]
        ticks[0] = t + n
        return float(t), 1.0

    now = _tick
    now_block = _tick_block
    try:
        yield
    finally:
        now, now_block = previous


# -- columnar round buffers --------------------------------------------------

#: Bytes of a dict object's own header, which Python 3.11+ does not
#: allocate for an instance's attributes until ``__dict__`` is read: they
#: live in a bare values array.  3.10 keeps every instance's dict.
_DICT_HEADER_BYTES = 48 if sys.version_info >= (3, 11) else 0

#: Events per class whose sizes :attr:`ColumnarSink.nbytes` averages.
_SIZE_SAMPLE = 64


def _owned_bytes(value: Any) -> int:
    """Bytes of the objects only ``value`` holds: a float, an int outside
    the interpreter's small-int cache, a tuple and what it owns.  Bools,
    strings (interned literals) and the empty tuple are shared."""
    kind = type(value)
    if kind is float:
        return sys.getsizeof(value)
    if kind is int:
        return 0 if -5 <= value <= 256 else sys.getsizeof(value)
    if kind is tuple and value:
        return sys.getsizeof(value) + sum(map(_owned_bytes, value))
    return 0


def _kept_bytes(event: Any) -> int:
    """Bytes one captured event keeps alive: the sink's list slot, the
    object, its attribute storage and the values only it holds.  Read
    off a copy, since building ``__dict__`` on 3.11+ grows the object."""
    size = 8 + sys.getsizeof(event)
    attrs = getattr(copy.copy(event), "__dict__", None)
    if attrs is not None:
        size += sys.getsizeof(attrs) - _DICT_HEADER_BYTES
        size += sum(map(_owned_bytes, attrs.values()))
    return size


@dataclass
class RoundBlock:
    """One flushed span of consecutive mechanism rounds, struct-of-arrays.

    A block is the columnar pipeline's unit of emission: ``rounds`` rows
    starting at round ``base_round``, each row holding the round's full
    pre-commit bid vector plus the commit scalars.  ``winners[i] == -1``
    marks the terminal (``committed=0``) round.  Timestamps are assigned
    at flush time as ``t0 + t_step * j`` over the block's expanded event
    sequence (see :func:`iter_block_events`), so expansion is
    deterministic no matter when — or how often — it happens.

    Every column is a numpy array; the bid matrices are
    ``(rounds, n_agents)``.
    """

    base_round: int
    rounds: int
    n_agents: int
    payment_rule: str
    t0: float
    t_step: float
    bid_vals: Any
    bid_objs: Any
    winners: Any
    objs: Any
    residuals: Any
    payments: Any
    otcs: Any
    obj_sizes: Any
    n_bids: Any

    def bid_row(self, i: int) -> Any:
        """Round ``i``'s reported values, one per agent (−inf = no bid)."""
        return self.bid_vals[i]

    def obj_row(self, i: int) -> Any:
        """Round ``i``'s reported objects, aligned with :meth:`bid_row`."""
        return self.bid_objs[i]

    @property
    def n_committed(self) -> int:
        """Rows that committed a replica (``winners >= 0``)."""
        return sum(1 for i in range(self.rounds) if self.winners[i] >= 0)

    @property
    def n_events(self) -> int:
        """Events this block expands to: per round, RoundStart + one
        BidEvent per finite report + RoundEnd, plus Winner/Payment/
        NNUpdate for committed rounds."""
        bids = int(sum(self.n_bids))
        return bids + 2 * self.rounds + 3 * self.n_committed

    @property
    def nbytes(self) -> int:
        """Raw byte size of the columnar payload."""
        return sum(
            col.nbytes
            for col in (
                self.bid_vals,
                self.bid_objs,
                self.winners,
                self.objs,
                self.residuals,
                self.payments,
                self.otcs,
                self.obj_sizes,
                self.n_bids,
            )
        )


def iter_block_events(block: RoundBlock) -> Iterator[Event]:
    """Expand a :class:`RoundBlock` into the per-object event sequence.

    Yields exactly the events — same order, same python-native field
    values, same timestamps under :func:`logical_time` — that the legacy
    per-decision path emits for the same rounds: ``RoundStart``, one
    ``BidEvent`` per finite report in ascending agent order, then
    ``WinnerEvent``/``PaymentEvent``/``NNUpdateEvent`` when the round
    committed, and ``RoundEnd``.  Each round's finite reports come out
    as python lists in one step per column (one ``flatnonzero`` and a
    ``tolist()``), never one array scalar per bid.
    """
    t = block.t0
    step = block.t_step
    rule = block.payment_rule
    m = block.n_agents
    for i in range(block.rounds):
        rnd = block.base_round + i
        yield RoundStart(t, rnd)
        t += step
        vals = block.bid_row(i)
        objs = block.obj_row(i)
        finite = _np.flatnonzero(_np.isfinite(vals))
        agents = finite.tolist()
        bid_objs = objs[finite].tolist()
        bid_vals = vals[finite].tolist()
        for agent, obj, value in zip(agents, bid_objs, bid_vals):
            yield BidEvent(t, rnd, agent, obj, value)
            t += step
        winner = int(block.winners[i])
        if winner >= 0:
            obj = int(block.objs[i])
            yield WinnerEvent(
                t,
                rnd,
                winner,
                obj,
                float(vals[winner]),
                int(block.obj_sizes[i]),
                int(block.residuals[i]),
            )
            t += step
            yield PaymentEvent(t, rnd, winner, float(block.payments[i]), rule)
            t += step
            yield NNUpdateEvent(t, rnd, obj, m)
            t += step
            committed = 1
        else:
            committed = 0
        yield RoundEnd(t, rnd, committed, float(block.otcs[i]))
        t += step


def iter_bid_run(run: Any) -> Iterator[BidEvent]:
    """Expand a packed run of bid records (the REVB bid-record layout,
    :func:`repro.obs.export.bid_run`) into one :class:`BidEvent` per
    record, fields as python values."""
    names = run.dtype.names[2:]  # past the record header
    return map(BidEvent, *(run[name].tolist() for name in names))


class ColumnarRoundBuffer:
    """Preallocated struct-of-arrays ring for hot-loop round emission.

    AGT-RAM's clearing loop appends one row per round with scalar
    writes (:meth:`stage` the pre-commit bid vectors, then
    :meth:`commit` / :meth:`close` the round scalars) and flushes the
    ring into the active sink once it fills — or once at run end.  All
    derivable per-event data (timestamps, bid counts, object sizes) is
    computed vectorized at :meth:`flush`, so the per-round cost is a
    handful of array stores.

    Callers may also write row :attr:`n` of a column directly — the
    clearing loop fills :attr:`n_bids` itself (see
    :attr:`staged_n_bids`).
    """

    def __init__(
        self,
        n_agents: int,
        sizes: Any,
        *,
        capacity: int = 512,
        base_round: int = 0,
        payment_rule: str = "second_price",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        self.n_agents = n_agents
        self.capacity = capacity
        self.base_round = base_round
        self.payment_rule = payment_rule
        self.sizes = sizes
        #: Rows currently staged+committed; the next row index.
        self.n = 0
        #: Set by staging loops that fill :attr:`n_bids` themselves —
        #: counting finite reports while the bid row is still cache-hot
        #: beats re-reading the whole ring at :meth:`flush`, which is
        #: what happens when this is False.
        self.staged_n_bids = False
        # Scratch that never leaves the buffer is allocated once; only
        # the columns handed off inside RoundBlocks are re-armed per
        # flush (the sink keeps the old ones).
        self._finite = _np.empty((capacity, n_agents), dtype=bool)
        self._alloc()

    def _alloc(self) -> None:
        cap, m = self.capacity, self.n_agents
        self.bid_vals = _np.empty((cap, m), dtype=_np.float64)
        # int32 halves the page-fault/bandwidth bill per flush; object
        # indices always fit (N < 2^31), and expansion re-casts to
        # python ints anyway.
        self.bid_objs = _np.empty((cap, m), dtype=_np.int32)
        self.winners = _np.empty(cap, dtype=_np.int64)
        self.objs = _np.empty(cap, dtype=_np.int64)
        self.residuals = _np.empty(cap, dtype=_np.int64)
        self.payments = _np.empty(cap, dtype=_np.float64)
        self.otcs = _np.empty(cap, dtype=_np.float64)
        self.n_bids = _np.empty(cap, dtype=_np.int64)

    @property
    def full(self) -> bool:
        return self.n >= self.capacity

    def stage(self, vals: Any, objs: Any) -> None:
        """Copy the round's pre-commit reports into the next row."""
        i = self.n
        self.bid_vals[i] = vals
        self.bid_objs[i] = objs

    def commit(
        self,
        winner: int,
        obj: int,
        residual_before: int,
        payment: float,
        otc: float,
    ) -> None:
        """Record the staged round's commit scalars and advance."""
        i = self.n
        self.winners[i] = winner
        self.objs[i] = obj
        self.residuals[i] = residual_before
        self.payments[i] = payment
        self.otcs[i] = otc
        self.n = i + 1

    def close(self, otc: float) -> None:
        """Record the staged round as terminal (no commit) and advance."""
        i = self.n
        self.winners[i] = -1
        self.objs[i] = -1
        self.residuals[i] = 0
        self.payments[i] = 0.0
        self.otcs[i] = otc
        self.n = i + 1

    def flush(self) -> Optional[RoundBlock]:
        """Hand the filled rows off as a :class:`RoundBlock` and reset.

        Returns ``None`` when empty.  Timestamps for the block's whole
        event expansion are reserved here via :func:`now_block`; the
        ring is re-armed with fresh arrays (the block keeps the old
        ones), so no row is ever copied.
        """
        rows = self.n
        if rows == 0:
            return None
        m = self.n_agents
        bid_vals = self.bid_vals[:rows]
        winners = self.winners[:rows]
        objs = self.objs[:rows]
        if self.staged_n_bids:
            n_bids = self.n_bids[:rows]
        else:
            n_bids = _np.count_nonzero(
                _np.isfinite(bid_vals, out=self._finite[:rows]), axis=1
            )
        committed = winners >= 0
        sizes = _np.asarray(self.sizes)
        obj_sizes = _np.where(committed, sizes[_np.where(committed, objs, 0)], 0)
        n_events = int(n_bids.sum()) + 2 * rows + 3 * int(committed.sum())
        t0, t_step = now_block(n_events)
        block = RoundBlock(
            self.base_round,
            rows,
            m,
            self.payment_rule,
            t0,
            t_step,
            bid_vals,
            self.bid_objs[:rows],
            winners,
            objs,
            self.residuals[:rows],
            self.payments[:rows],
            self.otcs[:rows],
            obj_sizes,
            n_bids,
        )
        self.base_round += rows
        self.n = 0
        self._alloc()
        return block


# -- sinks -------------------------------------------------------------------


class EventSink:
    """Receives the event stream.  Subclass and override :meth:`emit`.

    ``enabled`` is the hot-path gate: instrumented code reads it once
    per phase and skips event construction entirely when False.
    """

    enabled: bool = True

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def emit_block(self, block: RoundBlock) -> None:
        """Receive one flushed :class:`RoundBlock`.

        The default expands the block through :func:`iter_block_events`
        into the ordinary :meth:`emit` stream, so every existing sink
        sees one event object per decision.  Block-aware sinks
        (:class:`ColumnarSink`) override this to keep the columnar form
        and skip object materialization entirely.
        """
        for event in iter_block_events(block):
            self.emit(event)

    def emit_bids(self, run: Any) -> None:
        """Receive one round's bids as a packed run of bid records
        (:func:`repro.obs.export.bid_run`).

        The default expands the run through :func:`iter_bid_run` into
        the ordinary :meth:`emit` stream.  :class:`ColumnarSink` keeps
        the run whole.
        """
        for event in iter_bid_run(run):
            self.emit(event)


class NullSink(EventSink):
    """The disabled sink — drops everything, costs one attribute read."""

    enabled = False

    def emit(self, event: Event) -> None:
        return None

    def emit_block(self, block: RoundBlock) -> None:
        return None

    def emit_bids(self, run: Any) -> None:
        return None


class RecordingSink(EventSink):
    """Keeps the full stream in memory (the default :func:`capture` sink)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


def _expand_items(items: Iterable[Any]) -> Iterator[Event]:
    for item in items:
        if isinstance(item, Event):
            yield item
        elif isinstance(item, RoundBlock):
            yield from iter_block_events(item)
        else:
            yield from iter_bid_run(item)


class EventStream:
    """One pass over a :class:`ColumnarSink`'s stream, blocks expanded
    lazily.

    Iterating yields the events in emission order; ``iter()`` hands out
    the expanding generator itself, so a consumer pulls events at
    generator speed.  A bulk consumer that gets the stream before anyone
    has iterated it may claim the raw items instead
    (:meth:`take_items`) — :func:`repro.obs.export.write_events_binary`
    encodes blocks straight from their columns and copies bid runs that
    way.  Either way the stream is consumed once, like a generator.
    """

    __slots__ = ("_items", "_it")

    def __init__(self, items: list[Any]) -> None:
        self._items = items
        self._it: Optional[Iterator[Event]] = None

    def __iter__(self) -> Iterator[Event]:
        if self._it is None:
            self._it = _expand_items(self._items)
        return self._it

    def __next__(self) -> Event:
        return next(iter(self))

    def take_items(self) -> Optional[list[Any]]:
        """The raw items — loose events, :class:`RoundBlock`\\ s and
        packed bid runs, in order — if iteration has not started, else
        None.  Taking them consumes the stream."""
        if self._it is not None:
            return None
        self._it = iter(())
        return self._items


class ColumnarSink(EventSink):
    """Block-aware recording sink: stores flushed :class:`RoundBlock`\\ s
    and packed bid runs raw and interleaves them, in order, with loose
    events.

    The hot path never materializes per-decision objects into it; blocks
    and runs expand lazily (and deterministically — timestamps live in
    them) on :meth:`iter_events`.  ``len()`` (a run counts its bids) and
    the blocks' and runs' bytes are maintained incrementally; loose
    events are sized per class when :attr:`nbytes` is read, so
    :meth:`emit` is a bare append.
    """

    def __init__(self) -> None:
        self._items: list[Any] = []
        self._n = 0
        self._nbytes = 0
        # True while every item is a loose event: :attr:`events` is then
        # the item list itself.
        self._loose = True
        # Items before ``_sized`` are in ``_nbytes``; each loose event
        # class's bytes per event are fixed when it is first sized.
        self._sized = 0
        self._class_bytes: dict[type, int] = {}

    def emit(self, event: Event) -> None:
        self._items.append(event)
        self._n += 1

    def emit_block(self, block: RoundBlock) -> None:
        self._items.append(block)
        self._n += block.n_events
        self._nbytes += block.nbytes
        self._loose = False

    def emit_bids(self, run: Any) -> None:
        self._items.append(run)
        self._n += len(run)
        self._nbytes += run.nbytes
        self._loose = False

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        """Captured payload bytes: exact sizes for blocks and runs plus,
        for loose events, one size per event class — the mean bytes kept
        by up to ``_SIZE_SAMPLE`` of its events, spread over those
        captured when the class is first sized."""
        by_class: dict[type, list[Any]] = {}
        for item in self._items[self._sized :]:
            if isinstance(item, Event):
                by_class.setdefault(type(item), []).append(item)
        self._sized = len(self._items)
        for kind, loose in by_class.items():
            size = self._class_bytes.get(kind)
            if size is None:
                sample = loose[:: max(1, len(loose) // _SIZE_SAMPLE)]
                size = round(sum(map(_kept_bytes, sample)) / len(sample))
                self._class_bytes[kind] = size
            self._nbytes += size * len(loose)
        return self._nbytes

    def iter_events(self) -> EventStream:
        """The full stream in emission order, blocks and runs expanded
        lazily."""
        return EventStream(self._items)

    @property
    def items(self) -> list[Any]:
        """The raw items in emission order — loose events, blocks and
        bid runs (the sink's own list: read, do not change it)."""
        return self._items

    @property
    def events(self) -> list[Event]:
        """Materialized event list (drop-in for :class:`RecordingSink`)."""
        if self._loose:
            return list(self._items)
        return list(self.iter_events())

    def blocks(self) -> Iterable[RoundBlock]:
        """The raw blocks captured, in order."""
        return [b for b in self._items if isinstance(b, RoundBlock)]


#: The canonical disabled sink — the default "current" sink.
NULL_SINK = NullSink()

_current_sink: ContextVar[EventSink] = ContextVar(
    "repro_obs_event_sink", default=NULL_SINK
)


def current() -> EventSink:
    """The active sink; :data:`NULL_SINK` (disabled) by default."""
    return _current_sink.get()


def install(sink: Optional[EventSink]) -> EventSink:
    """Install ``sink`` as the active sink; returns the previous one.

    ``None`` restores the disabled default.  The registry is
    :mod:`contextvars`-based, so the installation is scoped to the
    current execution context (thread / task).
    """
    previous = _current_sink.get()
    _current_sink.set(sink if sink is not None else NULL_SINK)
    return previous


@contextmanager
def capture(sink: Optional[EventSink] = None) -> Iterator[EventSink]:
    """Scoped event capture: install a fresh (or given) sink, restore on
    exit.

    >>> from repro.obs import events as ev
    >>> with ev.capture() as sink:               # doctest: +SKIP
    ...     run_agt_ram(instance)
    >>> sink.events                              # doctest: +SKIP
    """
    active = sink if sink is not None else RecordingSink()
    previous = install(active)
    try:
        yield active
    finally:
        install(previous)


# -- per-round time series ---------------------------------------------------


@dataclass
class RoundSeries:
    """Per-round trajectories of one mechanism run.

    One entry per *committed* round, in order: exactly the quantities
    the paper plots over time and a live operator would graph.  Built by
    the instrumented mechanisms whenever an event sink is active and
    attached to the result under ``extra["round_series"]``.
    """

    #: System OTC after each round's commit.
    otc: list[float] = field(default_factory=list)
    #: The winning (dominant) report of each round.
    best_bid: list[float] = field(default_factory=list)
    #: Payment issued each round (uniform clearing price for batches).
    payment: list[float] = field(default_factory=list)
    #: Number of agents that bid each round.
    n_bids: list[int] = field(default_factory=list)
    #: Protocol messages sent during each round (simulator only).
    messages: list[int] = field(default_factory=list)
    #: Protocol bytes sent during each round (simulator only).
    bytes: list[int] = field(default_factory=list)

    def append(
        self,
        *,
        otc: float,
        best_bid: float,
        payment: float,
        n_bids: int,
        messages: Optional[int] = None,
        bytes: Optional[int] = None,
    ) -> None:
        self.otc.append(float(otc))
        self.best_bid.append(float(best_bid))
        self.payment.append(float(payment))
        self.n_bids.append(int(n_bids))
        if messages is not None:
            self.messages.append(int(messages))
        if bytes is not None:
            self.bytes.append(int(bytes))

    def __len__(self) -> int:
        return len(self.otc)

    def to_dict(self) -> dict[str, list]:
        """JSON-safe dict; message/byte series are omitted when unused."""
        out: dict[str, list] = {
            "otc": list(self.otc),
            "best_bid": list(self.best_bid),
            "payment": list(self.payment),
            "n_bids": list(self.n_bids),
        }
        if self.messages:
            out["messages"] = list(self.messages)
        if self.bytes:
            out["bytes"] = list(self.bytes)
        return out
