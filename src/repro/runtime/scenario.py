"""Composed failure-plane scenarios: declare, run, gate, shrink.

A :class:`Scenario` is one declarative, JSON-round-trippable object
composing every failure plane the runtime knows about — a fault plane
(crashes / stragglers; central outages and a lossy channel in the flat
central), an adversary plane (Byzantine bids plus the quarantine
defence), a partition plane (regional split-brain with regional central
crashes) — with an optional serving workload regime (``worldcup`` /
``drift`` / ``flashcrowd``).  :func:`run_scenario` executes it end to
end: the central body auctions a placement for the workload's measured
demand, then the serving loop (:func:`~repro.serving.loop.serve`)
streams the workload against it.  ``regions == 1`` runs the flat
central (:class:`~repro.runtime.simulator.SemiDistributedSimulator`),
``regions >= 2`` the regional sub-centrals of §7
(:class:`~repro.runtime.shard.ShardedAGTRam`); ``n_requests == 0``
skips the serving phase and auctions the instance's own demand.

**RNG discipline.**  Every plane draws its realization from an
independent :func:`~repro.utils.rng.substream` of the scenario seed
(``scenario/faults``, ``scenario/adversary``, ``scenario/partition``,
``scenario/workload``, …), so planes compose without perturbing each
other: adding a plane never changes another plane's realization, and a
plane that materializes to nothing (zero rates, empty draw) is passed
to the runtime as ``None`` — making the run byte-identical to the same
scenario with the plane absent.

**Online verification.**  The whole run is captured through an
:class:`~repro.runtime.invariants.InvariantMonitor` under the logical
event clock.  The monitor runs the offline audits live: the sharded
audit for the regional mechanism or the flat one for the flat central,
then, from the serving campaign's ``ServeStart``, the serving audit and
the flat audit of the serving tail's nested re-auctions.  So safety
violations are caught *while* they happen (and abort the run under
``strict``), and the report's ``audits`` block is the very verdict
``python -m repro audit`` gives on the exported log.  After the run
come the recovery accountant
(:func:`~repro.obs.recovery.recovery_accounting`) and the
detection-recall join.  Everything runs on the logical clock, so a
scenario's report is byte-for-byte reproducible from its JSON.

**Shrinking.**  When a scenario fails its gates,
:func:`shrink_scenario` greedily minimizes it — dropping whole planes,
halving the workload and the horizon — while re-running the predicate,
returning the smallest still-failing scenario for the repro artifact.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.drp.feasibility import check_state
from repro.errors import ConfigurationError, InfeasibleInstanceError
from repro.experiments.config import ExperimentConfig
from repro.obs import events as ev
from repro.obs.recovery import RecoveryReport, recovery_accounting
from repro.runtime.adversary import (
    BEHAVIORS,
    AdversaryPlan,
    QuarantinePolicy,
)
from repro.runtime.faults import ChannelConfig, FaultPlan, FaultSchedule
from repro.runtime.invariants import InvariantConfig, InvariantMonitor
from repro.runtime.shard import (
    PartitionSchedule,
    PartitionWindow,
    ShardedAGTRam,
)
from repro.runtime.simulator import SemiDistributedSimulator
from repro.serving import SERVE_WORKLOADS, ServeConfig, make_traffic, serve, with_demand
from repro.utils.rng import substream

__all__ = [
    "FaultPlane",
    "AdversaryPlane",
    "PartitionPlane",
    "Scenario",
    "ScenarioOutcome",
    "CATALOG",
    "run_scenario",
    "shrink_scenario",
]


def _plane_seed(seed: int, name: str) -> int:
    """The independent integer seed plane ``name`` materializes from.

    One draw from a spawn-keyed substream of the scenario seed: planes
    never share randomness, and a plane's realization is a pure
    function of ``(seed, name)`` — unchanged by which other planes the
    scenario carries.
    """
    return int(substream(seed, f"scenario/{name}").integers(2**31 - 1))


# -- the planes --------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlane:
    """Crash/straggler knobs, for the mechanism and the serving phase.

    The mechanism schedule (agent crashes, stragglers, whole-central
    crashes) is sampled over the scenario ``horizon`` protocol rounds;
    the serving schedule (``serving_*`` knobs) over the serving-round
    horizon.  Both draw from their own substreams.  ``drop`` /
    ``delay`` / ``duplicate`` are per-transmission probabilities of the
    flat central's lossy channel.  All rates zero materializes to
    nothing — byte-identical to no fault plane at all.
    """

    crash_rate: float = 0.0
    mean_outage: float = 3.0
    straggler_rate: float = 0.0
    central_crash_rate: float = 0.0
    checkpoint_period: int = 8
    serving_crash_rate: float = 0.0
    serving_straggler_rate: float = 0.0
    serving_mean_outage: float = 3.0
    drop: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "straggler_rate", "central_crash_rate",
                     "serving_crash_rate", "serving_straggler_rate",
                     "drop", "delay", "duplicate"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ConfigurationError(
                    f"fault plane {name} must be in [0, 1); got {p}"
                )

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultPlane":
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)
                      if f.name in d})


@dataclass(frozen=True)
class AdversaryPlane:
    """Byzantine-bid knobs plus the quarantine defence policy."""

    fraction: float = 0.25
    behaviors: tuple[str, ...] = BEHAVIORS
    factor: float = 2.0
    activity: float = 1.0
    #: Optional attack window ``[start, end)`` in protocol rounds;
    #: outside it the scripted agents bid honestly and the runtime may
    #: treat the adversary as dormant.
    window: Optional[tuple[int, int]] = None
    strikes: int = 3
    probation: int = 20
    max_quarantines: int = 3

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction <= 1.0):
            raise ConfigurationError(
                f"adversary fraction must be in [0, 1], got {self.fraction}"
            )
        object.__setattr__(self, "behaviors", tuple(self.behaviors))
        unknown = sorted(set(self.behaviors) - set(BEHAVIORS))
        if unknown:
            raise ConfigurationError(
                f"unknown adversary behavior(s) {unknown}; pick from "
                f"{BEHAVIORS}"
            )
        if self.window is not None:
            object.__setattr__(
                self, "window", (int(self.window[0]), int(self.window[1]))
            )

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["behaviors"] = list(self.behaviors)
        d["window"] = None if self.window is None else list(self.window)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AdversaryPlane":
        kwargs = {f.name: d[f.name] for f in dataclasses.fields(cls)
                  if f.name in d}
        if kwargs.get("window") is not None:
            kwargs["window"] = tuple(kwargs["window"])
        if "behaviors" in kwargs:
            kwargs["behaviors"] = tuple(kwargs["behaviors"])
        return cls(**kwargs)


@dataclass(frozen=True)
class PartitionPlane:
    """Regional split-brain knobs, random or scripted.

    With explicit ``windows`` / ``central_crashes`` the schedule is
    exactly what is written (curated scenarios stay deterministic under
    any seed); otherwise a random schedule is sampled from the knobs
    over the scenario horizon.  ``windows`` entries are
    ``{"start", "end", "islands"}`` dicts; ``central_crashes`` are
    ``(round, region)`` pairs.
    """

    fraction: float = 0.3
    mean_width: float = 6.0
    islands: int = 2
    crash_rate: float = 0.0
    windows: tuple[Mapping[str, Any], ...] = ()
    central_crashes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "windows", tuple(dict(w) for w in self.windows)
        )
        object.__setattr__(
            self,
            "central_crashes",
            tuple((int(r), int(g)) for r, g in self.central_crashes),
        )

    @property
    def explicit(self) -> bool:
        return bool(self.windows) or bool(self.central_crashes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "fraction": self.fraction,
            "mean_width": self.mean_width,
            "islands": self.islands,
            "crash_rate": self.crash_rate,
            "windows": [dict(w) for w in self.windows],
            "central_crashes": [list(c) for c in self.central_crashes],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PartitionPlane":
        return cls(
            fraction=float(d.get("fraction", 0.3)),
            mean_width=float(d.get("mean_width", 6.0)),
            islands=int(d.get("islands", 2)),
            crash_rate=float(d.get("crash_rate", 0.0)),
            windows=tuple(d.get("windows", ())),
            central_crashes=tuple(
                (int(r), int(g)) for r, g in d.get("central_crashes", ())
            ),
        )


# -- the scenario ------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One composed resilience experiment, reproducible from its JSON.

    Instance shape (``servers`` … ``topology``), the central
    (``regions``: 1 is the flat central, k >= 2 the sharded one), the
    plane-materialization ``horizon`` (protocol rounds the random
    fault/partition schedules cover), the serving regime (``workload``,
    ``n_requests``, 0 for no serving phase, and the drift detector) and
    the three optional failure planes.  The gate thresholds ride along
    so a catalog entry carries its own pass/fail contract; ``None``
    disables that gate.
    """

    name: str = "scenario"
    seed: int = 0
    servers: int = 10
    objects: int = 30
    requests: int = 4000
    rw_ratio: float = 0.75
    capacity: float = 0.5
    topology: str = "random"
    regions: int = 4
    horizon: int = 32
    workload: str = "worldcup"
    n_requests: int = 4000
    faults: Optional[FaultPlane] = None
    adversary: Optional[AdversaryPlane] = None
    partition: Optional[PartitionPlane] = None
    #: Online availability floor over a sliding window (0 disables).
    availability_floor: float = 0.0
    availability_window: int = 200
    #: Gates (None disables): end-of-run availability, degraded-round
    #: budget, detection recall over injected manipulations.
    min_availability: Optional[float] = None
    max_degraded_fraction: Optional[float] = None
    min_recall: Optional[float] = None
    #: Serving drift detector: requests per window, and the
    #: total-variation distance that triggers a re-auction.
    drift_window: int = ServeConfig.drift_window
    drift_threshold: float = ServeConfig.drift_threshold
    #: Gate on the served p99 latency.
    max_p99: Optional[float] = None
    #: Gates against the plane-free flat run on the same instance (run
    #: only when one is set): OTC ratio ceiling, and floor on how many
    #: times fewer messages this run sends.
    max_degradation: Optional[float] = None
    min_message_reduction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workload not in SERVE_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; pick from "
                f"{SERVE_WORKLOADS}"
            )
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if self.regions < 1:
            raise ConfigurationError("regions must be >= 1")
        if self.n_requests < 0:
            raise ConfigurationError("n_requests must be >= 0")
        if self.n_requests == 0 and (
            self.min_availability is not None or self.max_p99 is not None
        ):
            raise ConfigurationError(
                "serving gates need a serving phase (n_requests >= 1)"
            )
        if self.regions == 1 and self.partition is not None:
            raise ConfigurationError(
                "a partition plane needs the sharded central (regions >= 2)"
            )
        if self.regions > 1 and self.faults is not None:
            # The sharded central has no whole central to crash and no
            # lossy channel.
            flat_only = [
                k for k in ("central_crash_rate", "drop", "delay", "duplicate")
                if getattr(self.faults, k)
            ]
            if flat_only:
                raise ConfigurationError(
                    f"fault plane {', '.join(flat_only)} only applies to "
                    f"the flat central (regions == 1); got regions="
                    f"{self.regions}"
                )

    def to_dict(self) -> dict[str, Any]:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for key in ("faults", "adversary", "partition"):
            if d[key] is not None:
                d[key] = d[key].to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Scenario":
        kwargs = dict(d)
        for key, plane in (
            ("faults", FaultPlane),
            ("adversary", AdversaryPlane),
            ("partition", PartitionPlane),
        ):
            raw = kwargs.get(key)
            kwargs[key] = None if raw is None else plane.from_dict(raw)
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in kwargs.items() if k in names})

    @classmethod
    def random(cls, seed: int, *, name: Optional[str] = None) -> "Scenario":
        """One lottery draw: a random plane composition at smoke scale.

        Everything is derived from ``substream(seed,
        "scenario/lottery")``, so draw ``i`` of the campaign lottery is
        a pure function of its ticket seed.
        """
        rng = substream(seed, "scenario/lottery")
        faults = adversary = partition = None
        if rng.random() < 0.7:
            # The fourth draw is a retired central-crash rate (tickets
            # run the sharded central, which has no whole central to
            # crash); it is still drawn so every ticket keeps its planes.
            crash, outage, straggler, _, s_crash, s_straggler = (
                float(rng.uniform(lo, hi))
                for lo, hi in ((0.01, 0.06), (2.0, 5.0), (0.0, 0.08),
                               (0.0, 0.03), (0.0, 0.04), (0.0, 0.05))
            )
            faults = FaultPlane(
                crash_rate=crash,
                mean_outage=outage,
                straggler_rate=straggler,
                serving_crash_rate=s_crash,
                serving_straggler_rate=s_straggler,
            )
        if rng.random() < 0.6:
            adversary = AdversaryPlane(
                fraction=float(rng.uniform(0.1, 0.3)),
                factor=float(rng.uniform(1.5, 3.0)),
                activity=float(rng.uniform(0.5, 1.0)),
            )
        if rng.random() < 0.6:
            partition = PartitionPlane(
                fraction=float(rng.uniform(0.1, 0.4)),
                mean_width=float(rng.uniform(3.0, 8.0)),
                islands=2,
                crash_rate=float(rng.uniform(0.0, 0.02)),
            )
        return cls(
            name=name or f"lottery-{seed}",
            seed=int(rng.integers(2**31 - 1)),
            workload=str(rng.choice(SERVE_WORKLOADS)),
            n_requests=2000,
            faults=faults,
            adversary=adversary,
            partition=partition,
            min_availability=0.5,
            max_degraded_fraction=0.9,
        )


# -- materialization ---------------------------------------------------------


@dataclass
class MaterializedScenario:
    """A scenario's realized plans, ready for the runtime.

    A plane that realized to nothing is ``None`` here — the runtime
    never learns it was declared, which is exactly what keeps the null
    plane byte-identical to its absence.
    """

    instance: Any
    traffic: Any
    fault_plan: Optional[FaultPlan]
    serving_faults: Optional[FaultSchedule]
    adversary: Optional[AdversaryPlan]
    quarantine: Optional[QuarantinePolicy]
    partition: Optional[PartitionSchedule]
    shard_seed: int
    serve_seed: int
    serve_config: ServeConfig


def materialize(scenario: Scenario) -> MaterializedScenario:
    """Realize every plane from its own substream of the scenario seed."""
    cfg = ExperimentConfig(
        n_servers=scenario.servers,
        n_objects=scenario.objects,
        total_requests=scenario.requests,
        rw_ratio=scenario.rw_ratio,
        capacity_fraction=scenario.capacity,
        topology=scenario.topology,
        topology_params=(
            {"p": 0.4} if scenario.topology == "random" else {}
        ),
        seed=_plane_seed(scenario.seed, "instance"),
        name=scenario.name,
    )
    from repro.experiments.instances import paper_instance

    base = paper_instance(cfg)
    traffic = None
    instance = base
    if scenario.n_requests:
        traffic = make_traffic(
            scenario.workload,
            base,
            scenario.n_requests,
            seed=_plane_seed(scenario.seed, "workload"),
        )
        instance = with_demand(base, traffic)

    serve_config = ServeConfig(
        drift_window=scenario.drift_window,
        drift_threshold=scenario.drift_threshold,
    )
    serve_horizon = max(
        1, math.ceil(scenario.n_requests / serve_config.requests_per_round)
    )

    fault_plan = None
    serving_faults = None
    if scenario.faults is not None:
        fp = scenario.faults
        schedule = FaultSchedule.random(
            n_agents=scenario.servers,
            horizon=scenario.horizon,
            seed=_plane_seed(scenario.seed, "faults"),
            crash_rate=fp.crash_rate,
            mean_outage=fp.mean_outage,
            straggler_rate=fp.straggler_rate,
            central_crash_rate=fp.central_crash_rate,
        )
        channel = ChannelConfig(
            drop=fp.drop, delay=fp.delay, duplicate=fp.duplicate
        )
        if not (schedule.is_null and channel.lossless):
            fault_plan = FaultPlan(
                schedule=schedule,
                channel=channel,
                checkpoint_period=fp.checkpoint_period,
                seed=_plane_seed(scenario.seed, "faults/channel"),
            )
        serving_schedule = FaultSchedule.random(
            n_agents=scenario.servers,
            horizon=serve_horizon,
            seed=_plane_seed(scenario.seed, "serving-faults"),
            crash_rate=fp.serving_crash_rate,
            mean_outage=fp.serving_mean_outage,
            straggler_rate=fp.serving_straggler_rate,
        )
        if scenario.n_requests and not serving_schedule.is_null:
            serving_faults = serving_schedule

    adversary = None
    quarantine = None
    if scenario.adversary is not None and scenario.adversary.fraction > 0:
        ap = scenario.adversary
        plan = AdversaryPlan.random(
            n_agents=scenario.servers,
            fraction=ap.fraction,
            behaviors=ap.behaviors,
            factor=ap.factor,
            activity=ap.activity,
            seed=_plane_seed(scenario.seed, "adversary"),
            window=ap.window,
        )
        if not plan.is_null:
            adversary = plan
            quarantine = QuarantinePolicy(
                strikes=ap.strikes,
                probation=ap.probation,
                max_quarantines=ap.max_quarantines,
            )

    partition = None
    if scenario.partition is not None:
        pp = scenario.partition
        if pp.explicit:
            schedule = PartitionSchedule(
                n_regions=scenario.regions,
                windows=tuple(
                    PartitionWindow.from_dict(w) for w in pp.windows
                ),
                central_crashes=pp.central_crashes,
            )
        else:
            schedule = PartitionSchedule.random(
                n_regions=scenario.regions,
                horizon=scenario.horizon,
                seed=_plane_seed(scenario.seed, "partition"),
                partition_fraction=pp.fraction,
                mean_width=pp.mean_width,
                n_islands=pp.islands,
                crash_rate=pp.crash_rate,
            )
        if not schedule.is_null:
            partition = schedule

    return MaterializedScenario(
        instance=instance,
        traffic=traffic,
        fault_plan=fault_plan,
        serving_faults=serving_faults,
        adversary=adversary,
        quarantine=quarantine,
        partition=partition,
        shard_seed=_plane_seed(scenario.seed, "shard"),
        serve_seed=_plane_seed(scenario.seed, "serving"),
        serve_config=serve_config,
    )


# -- execution ---------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """What one scenario run produced: the JSON report plus live objects."""

    scenario: Scenario
    report: dict[str, Any]
    failures: list[str]
    monitor: InvariantMonitor
    recovery: RecoveryReport
    #: Event-list index of the mechanism/serving boundary.
    split: int

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def events(self) -> list[ev.Event]:
        return self.monitor.events


def run_scenario(scenario: Scenario, *, strict: bool = False) -> ScenarioOutcome:
    """Execute ``scenario`` end to end and gate the outcome.

    Mechanism phase (the flat central for ``regions == 1``, the sharded
    regional auction otherwise, under the fault / adversary / partition
    planes), then the optional serving phase (the workload stream under
    the serving fault schedule), all captured through the online
    :class:`~repro.runtime.invariants.InvariantMonitor` on the logical
    clock.  Under ``strict`` the first invariant violation raises
    :class:`~repro.errors.InvariantViolationError` mid-run.

    Besides the scenario's own gates, every run must end in a feasible
    scheme and quarantine no honest agent, on either central.
    ``max_degradation`` and
    ``min_message_reduction`` compare against the plane-free flat run
    on the same instance, which runs (unrecorded) only for them.
    """
    mat = materialize(scenario)
    reference = None
    if (
        scenario.max_degradation is not None
        or scenario.min_message_reduction is not None
    ):
        with ev.capture(ev.NULL_SINK):
            reference = SemiDistributedSimulator().run(mat.instance)
    flat = scenario.regions == 1
    monitor = InvariantMonitor(
        ev.ColumnarSink(),
        config=InvariantConfig(
            availability_floor=scenario.availability_floor,
            availability_window=scenario.availability_window,
            strict=strict,
        ),
        sharded=not flat,
    )
    with ev.logical_time(), ev.capture(monitor):
        if flat:
            placement = SemiDistributedSimulator(
                faults=mat.fault_plan,
                adversary=mat.adversary,
                quarantine=mat.quarantine,
            ).run(mat.instance)
        else:
            placement = ShardedAGTRam(
                n_regions=scenario.regions,
                plan=mat.partition,
                faults=mat.fault_plan,
                adversary=mat.adversary,
                quarantine=mat.quarantine,
                seed=mat.shard_seed,
            ).run(mat.instance)
        split = len(monitor)
        mech_items = len(monitor.items)
        serving = None
        if mat.traffic is not None:
            serving = serve(
                mat.instance,
                placement.state,
                mat.traffic.stream,
                config=mat.serve_config,
                faults=mat.serving_faults,
                seed=mat.serve_seed,
                workload=scenario.workload,
                n_requests=scenario.n_requests,
            )

    mech_audit, serving_audit, reauction_audit = monitor.finish()
    # Recovery and detection read only loose events (faults, recoveries,
    # partitions, the Byzantine layer, run ends), never a round's bids or
    # a columnar block's decisions, so they fold over the sink's items
    # with nothing expanded.
    items = monitor.items
    recovery = recovery_accounting(items)

    # Detection quality: injector ground truth vs. online defences,
    # joined on (round, agent); and who the defences locked out.
    truth: set[tuple[int, int]] = set()
    flagged: set[tuple[int, int]] = set()
    locked_out: set[int] = set()
    for e in items[:mech_items]:
        if isinstance(e, ev.AdversaryEvent):
            truth.add((e.round, e.agent))
        elif isinstance(e, (ev.ValidationEvent, ev.ManipulationEvent)):
            if e.agent >= 0:
                flagged.add((e.round, e.agent))
        elif isinstance(e, ev.QuarantineEvent) and e.action in (
            "quarantine", "expel"
        ):
            locked_out.add(e.agent)
    caught = truth & flagged
    recall = len(caught) / len(truth) if truth else 1.0
    precision = len(caught) / len(flagged) if flagged else 1.0
    byzantine = set(mat.adversary.agents) if mat.adversary else set()
    false_quarantines = sorted(locked_out - byzantine)

    failures: list[str] = []
    try:
        check_state(placement.state)
        feasible = True
    except InfeasibleInstanceError as exc:
        feasible = False
        failures.append(f"infeasible final scheme: {exc}")
    # Both centrals re-price each bid on the view it was made from (the
    # sharded one on the island's round-start valuations, however many
    # regions committed before it), so an honest report always matches
    # and any quarantined honest agent is a defect.
    if false_quarantines:
        failures.append(f"honest agents quarantined: {false_quarantines}")
    if not monitor.ok:
        failures.append(
            f"{len(monitor.violations)} invariant violation(s): "
            + ", ".join(sorted({v.invariant for v in monitor.violations}))
        )
    if not mech_audit.ok:
        failures.append(
            f"{'flat' if flat else 'sharded'} audit FAIL "
            f"({len(mech_audit.violations)} violations)"
        )
    if not serving_audit.ok:
        failures.append(
            f"serving audit FAIL ({len(serving_audit.violations)} violations)"
        )
    if not reauction_audit.ok:
        failures.append(
            f"re-auction audit FAIL "
            f"({len(reauction_audit.violations)} violations)"
        )
    if (
        scenario.min_availability is not None
        and serving.availability < scenario.min_availability
    ):
        failures.append(
            f"availability {serving.availability:.4f} below bound "
            f"{scenario.min_availability:.4f}"
        )
    if (
        scenario.max_p99 is not None
        and serving.p99 > scenario.max_p99
    ):
        failures.append(
            f"p99 latency {serving.p99:.1f} exceeds bound "
            f"{scenario.max_p99:.1f}"
        )
    if (
        scenario.max_degraded_fraction is not None
        and recovery.degraded_fraction > scenario.max_degraded_fraction
    ):
        failures.append(
            f"degraded fraction {recovery.degraded_fraction:.4f} exceeds "
            f"budget {scenario.max_degraded_fraction:.4f}"
        )
    if (
        scenario.min_recall is not None
        and mat.adversary is not None
        and recall < scenario.min_recall
    ):
        failures.append(
            f"detection recall {recall:.3f} below bound "
            f"{scenario.min_recall:.3f}"
        )

    extra = placement.extra
    if flat:
        messages = extra["metrics"].log.total_messages()
        injected = extra.get("fault_summary", {}).get("injected", {})
        central_crashes = injected.get("central_crashes", 0)
        central_recoveries = injected.get("recoveries", 0)
    else:
        messages = extra["messages"]
        central_crashes = extra["crashes_injected"]
        central_recoveries = extra["recoveries"]
    vs_flat = None
    if reference is not None:
        ref_messages = reference.extra["metrics"].log.total_messages()
        vs_flat = {
            "otc": reference.otc,
            "messages": ref_messages,
            "otc_degradation": (
                placement.otc / reference.otc if reference.otc else 1.0
            ),
            "message_reduction": (
                ref_messages / messages if messages else float("inf")
            ),
        }
        if (
            scenario.max_degradation is not None
            and vs_flat["otc_degradation"] > scenario.max_degradation
        ):
            failures.append(
                f"OTC degradation x{vs_flat['otc_degradation']:.4f} "
                f"exceeds bound x{scenario.max_degradation:.4f}"
            )
        if (
            scenario.min_message_reduction is not None
            and vs_flat["message_reduction"] < scenario.min_message_reduction
        ):
            failures.append(
                f"message reduction x{vs_flat['message_reduction']:.2f} "
                f"below required x{scenario.min_message_reduction:.2f}"
            )

    report = {
        "kind": "repro-scenario",
        "scenario": scenario.to_dict(),
        "planes": {
            "faults": mat.fault_plan is not None,
            "serving_faults": mat.serving_faults is not None,
            "adversary": mat.adversary is not None,
            "partition": mat.partition is not None,
        },
        "placement": {
            "otc": placement.otc,
            "rounds": placement.rounds,
            "messages": messages,
            "windows": extra.get("windows"),
            "heals": extra.get("heals"),
            "conflicts": extra.get("conflicts"),
            "revocations": extra.get("revocations"),
            "elections": extra.get("elections"),
            "central_crashes": central_crashes,
            "central_recoveries": central_recoveries,
            "feasible": feasible,
        },
        "vs_flat": vs_flat,
        "serving": None if serving is None else serving.to_dict(),
        "invariants": monitor.summary_dict(),
        "recovery": recovery.to_dict(),
        "detection": {
            "injected": len(truth),
            "flagged": len(flagged),
            "recall": recall,
            "precision": precision,
            "false_quarantines": false_quarantines,
        },
        "audits": {
            "mechanism_ok": mech_audit.ok,
            "mechanism_violations": [str(v) for v in mech_audit.violations],
            "serving_ok": serving_audit.ok,
            "serving_violations": [str(v) for v in serving_audit.violations],
            "reauction_ok": reauction_audit.ok,
            "reauction_violations": [
                str(v) for v in reauction_audit.violations
            ],
        },
        "events": len(monitor),
        "failures": list(failures),
        "ok": not failures,
    }
    return ScenarioOutcome(
        scenario=scenario,
        report=report,
        failures=failures,
        monitor=monitor,
        recovery=recovery,
        split=split,
    )


# -- shrinking ---------------------------------------------------------------


def _shrink_candidates(sc: Scenario) -> list[Scenario]:
    """Strictly-smaller variants of ``sc``, most aggressive first."""
    out: list[Scenario] = []
    if sc.faults is not None:
        out.append(dataclasses.replace(sc, faults=None))
    if sc.adversary is not None:
        out.append(dataclasses.replace(sc, adversary=None))
    if sc.partition is not None:
        out.append(dataclasses.replace(sc, partition=None))
    if sc.n_requests >= 400:
        out.append(dataclasses.replace(sc, n_requests=sc.n_requests // 2))
    if sc.horizon >= 8:
        out.append(dataclasses.replace(sc, horizon=sc.horizon // 2))
    if sc.availability_window >= 50:
        out.append(
            dataclasses.replace(
                sc, availability_window=sc.availability_window // 2
            )
        )
    if sc.requests >= 1000:
        out.append(dataclasses.replace(sc, requests=sc.requests // 2))
    if (
        sc.adversary is not None
        and sc.adversary.window is not None
        and sc.adversary.window[1] - sc.adversary.window[0] >= 2
    ):
        start, end = sc.adversary.window
        out.append(
            dataclasses.replace(
                sc,
                adversary=dataclasses.replace(
                    sc.adversary, window=(start, start + (end - start) // 2)
                ),
            )
        )
    return out


def shrink_scenario(
    scenario: Scenario,
    fails: Callable[[Scenario], bool],
    *,
    max_steps: int = 64,
) -> tuple[Scenario, int]:
    """Greedily minimize a failing scenario, preserving the failure.

    ``fails(candidate)`` must return True while the defect reproduces
    (a candidate that raises counts as failing — a crash is a repro
    too).  Each accepted candidate restarts the pass; the loop ends
    when no candidate still fails or after ``max_steps`` probes.
    Returns the minimal failing scenario and the number of probes run.
    """
    current = scenario
    probes = 0
    shrunk = True
    while shrunk and probes < max_steps:
        shrunk = False
        for candidate in _shrink_candidates(current):
            if probes >= max_steps:
                break
            probes += 1
            try:
                still_failing = fails(candidate)
            except Exception:
                still_failing = True
            if still_failing:
                current = dataclasses.replace(
                    candidate, name=f"{scenario.name}-shrunk"
                )
                shrunk = True
                break
    return current, probes


def scenario_fails(scenario: Scenario) -> bool:
    """The default shrink predicate: does the scenario fail its gates?"""
    try:
        return not run_scenario(scenario).ok
    except Exception:
        return True


# -- catalog -----------------------------------------------------------------


def _adversary_preset(fraction: float) -> Scenario:
    """The Byzantine campaign at one swept fraction, flat central."""
    return Scenario(
        name=f"adversary-{round(fraction * 100)}",
        seed=5,
        servers=12,
        objects=40,
        requests=4000,
        rw_ratio=0.9,
        capacity=0.3,
        regions=1,
        n_requests=0,
        adversary=AdversaryPlane(fraction=fraction),
        min_recall=0.95,
        max_degradation=1.10,
    )


def _serve_preset(name: str, workload: str, **gates: Any) -> Scenario:
    """The serving campaign on a flat-central placement."""
    return Scenario(
        name=name,
        seed=0,
        servers=10,
        objects=30,
        requests=4000,
        rw_ratio=0.9,
        capacity=0.5,
        regions=1,
        workload=workload,
        n_requests=4000,
        drift_window=800,
        drift_threshold=0.15,
        min_availability=0.99,
        **gates,
    )


def _shard_preset(fraction: float) -> Scenario:
    """The partition-tolerance campaign at one swept fraction.

    ``horizon`` is the healthy sharded run's length on this instance, so
    the random windows land inside the run.
    """
    return Scenario(
        name=f"shard-{round(fraction * 100)}",
        seed=2007,
        servers=16,
        objects=64,
        requests=8000,
        capacity=0.25,
        regions=8,
        horizon=5,
        n_requests=0,
        partition=PartitionPlane(
            fraction=fraction, mean_width=6.0, islands=2, crash_rate=0.01
        ),
        max_degradation=1.0,
        min_message_reduction=2.0,
    )


#: Curated scenarios.  The composed ones come first, smallest first:
#: ``smoke`` is the smallest, ``showcase`` the headline composition —
#: flash-crowd traffic, >=10% Byzantine agents, a scripted regional
#: partition with a regional central crash — expected to survive every
#: gate.  Then one preset per single-plane campaign and swept value:
#: ``chaos`` (lossy channel, agent and central crashes on the flat
#: central), ``adversary-*`` (Byzantine fractions), ``serve`` /
#: ``serve-drift`` (serving SLOs, drift re-auctions) and ``shard-*``
#: (partition fractions on eight sub-centrals).
CATALOG: dict[str, Scenario] = {
    "smoke": Scenario(
        name="smoke",
        seed=7,
        servers=8,
        objects=24,
        requests=2000,
        regions=2,
        horizon=16,
        workload="worldcup",
        n_requests=1500,
        faults=FaultPlane(crash_rate=0.03, serving_crash_rate=0.02),
        min_availability=0.9,
        max_degraded_fraction=0.9,
    ),
    "faultstorm": Scenario(
        name="faultstorm",
        seed=11,
        workload="drift",
        faults=FaultPlane(
            crash_rate=0.05,
            straggler_rate=0.08,
            serving_crash_rate=0.03,
            serving_straggler_rate=0.05,
        ),
        min_availability=0.8,
        max_degraded_fraction=0.95,
    ),
    "byzantine": Scenario(
        name="byzantine",
        seed=13,
        adversary=AdversaryPlane(fraction=0.25),
        min_availability=0.9,
        min_recall=0.3,
    ),
    "splitbrain": Scenario(
        name="splitbrain",
        seed=17,
        workload="drift",
        partition=PartitionPlane(fraction=0.3, crash_rate=0.01),
        min_availability=0.85,
        max_degraded_fraction=0.95,
    ),
    "showcase": Scenario(
        name="showcase",
        seed=23,
        servers=12,
        objects=36,
        requests=5000,
        regions=4,
        horizon=32,
        workload="flashcrowd",
        n_requests=4000,
        faults=FaultPlane(crash_rate=0.02, serving_crash_rate=0.01),
        adversary=AdversaryPlane(fraction=0.125),
        partition=PartitionPlane(
            windows=({"start": 4, "end": 9, "islands": [0, 0, 1, 1]},),
            central_crashes=((12, 1),),
        ),
        availability_floor=0.5,
        availability_window=400,
        min_availability=0.95,
        max_degraded_fraction=0.9,
        min_recall=0.2,
    ),
    "chaos": Scenario(
        name="chaos",
        seed=101,
        servers=16,
        objects=60,
        requests=8000,
        rw_ratio=0.9,
        capacity=0.3,
        regions=1,
        # The fault-free run's length: a longer schedule would place
        # its central crashes after the run has ended.
        horizon=60,
        n_requests=0,
        faults=FaultPlane(
            crash_rate=0.02,
            straggler_rate=0.02,
            central_crash_rate=0.03,
            drop=0.1,
            delay=0.05,
            duplicate=0.05,
        ),
        max_degradation=1.05,
    ),
    "adversary-25": _adversary_preset(0.25),
    "adversary-40": _adversary_preset(0.4),
    "serve": _serve_preset(
        "serve",
        "worldcup",
        faults=FaultPlane(
            serving_crash_rate=0.05,
            serving_straggler_rate=0.02,
            serving_mean_outage=2.0,
        ),
        max_p99=150.0,
    ),
    "serve-drift": _serve_preset("serve-drift", "drift"),
    "shard-0": _shard_preset(0.0),
    "shard-25": _shard_preset(0.25),
    "shard-50": _shard_preset(0.5),
}
