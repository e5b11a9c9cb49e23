"""Emission equivalence and overhead measurement: the obs gate.

The columnar pipeline's contract (docs/observability.md) is twofold:

* **Byte-equivalence** — with a sink active, AGT-RAM's columnar stream
  must, after block expansion, be exactly the event stream its own
  ``MechanismAudit`` transcript implies: same kinds, same field values,
  same logical timestamps.  The reference (:func:`replay_transcript`)
  re-commits each recorded round on a fresh state under the state's OTC
  tracker and builds one event object per decision, sharing no code
  with the ring, its flush-time OTC ledger or block expansion.  This is
  deterministic and is the hard half of the gate.
* **Bounded overhead** — running the vectorized engine with eventing
  *on* (columnar) must cost only a few percent over eventing *off*.
  This half is a wall-clock measurement and therefore noisy on shared
  CI hardware.

The timing protocol here is the one that survived contact with a noisy
single-vCPU VM: both paths are timed *interleaved in one process* with
``time.process_time`` (cross-process comparisons drift by double-digit
percents), and the reported overhead is the **minimum of the paired
per-iteration ratios**.  Scheduler noise is additive — it can only
inflate a run — so the minimum pair is the least-biased estimator of
the true ratio; medians of the pairs ride along for context.  The CLI
gate (``python -m repro audit --emission-gate``) re-measures on failure
like the engine-speedup gate does, and only a genuinely slow build
fails every attempt.

Scale matters when interpreting the number: per-run fixed costs (ring
allocation, ledger init, final flush) are ~hundreds of microseconds, so
at ``tiny``/``small`` they dominate the ratio; the <5% headline target
is a property of the ``large`` preset, where the per-round marginal
cost is what's measured.  ``default_overhead_budget`` encodes that
scale-dependence for the CI gate.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs import events as ev

__all__ = [
    "EmissionComparison",
    "compare_emission_paths",
    "default_overhead_budget",
    "format_emission_comparison",
    "replay_transcript",
]

#: Per-scale overhead budgets (percent) for the CI gate.  ``large`` is
#: the headline: per-round marginal cost over a ~90us/round baseline.
#: The small presets bound regression drift, not the headline figure —
#: fixed per-run costs inflate their plain ratio (see module docstring
#: and docs/performance.md for the measured decomposition).
OVERHEAD_BUDGET_PERCENT: dict[str, float] = {
    "tiny": 60.0,
    "small": 25.0,
    "medium": 15.0,
    "large": 8.0,
}


def default_overhead_budget(scale: str) -> float:
    """The CI overhead budget (percent) for a bench preset."""
    return OVERHEAD_BUDGET_PERCENT.get(scale, 8.0)


@dataclass
class EmissionComparison:
    """Outcome of one emission-gate run on a preset."""

    scale: str
    #: Rounds of the default (vectorized, cold) run.
    rounds: int = 0
    #: Events compared, summed over every identity configuration.
    n_events: int = 0
    #: Configurations the identity pass covered, by label.
    configs: list[str] = field(default_factory=list)
    #: Every configuration's columnar stream == its transcript replay,
    #: field for field under logical time, and the same final placement.
    identical: bool = False
    #: Every second-price configuration's stream passes the offline
    #: mechanism audit.
    audit_ok: bool = False
    #: First few human-readable stream differences (empty when identical).
    mismatches: list[str] = field(default_factory=list)
    #: Median eventing-off process time per run (seconds).
    disabled_wall_s: float = 0.0
    #: Median eventing-on (columnar) process time per run (seconds).
    enabled_wall_s: float = 0.0
    #: min over paired iterations of (on/off - 1) * 100.
    overhead_percent: float = 0.0
    #: Median of the paired ratios, for context on measurement spread.
    overhead_percent_median: float = 0.0

    @property
    def ok(self) -> bool:
        return self.identical and self.audit_ok

    @property
    def marginal_us_per_round(self) -> float:
        """Per-round marginal cost implied by the minimum pair."""
        if not self.rounds:
            return 0.0
        return (
            self.disabled_wall_s * self.overhead_percent / 100.0
        ) / self.rounds * 1e6


def _event_dicts(events: Any) -> list[dict]:
    return [e.to_dict() for e in events]


def _diff_streams(reference: list[dict], columnar: list[dict]) -> list[str]:
    out: list[str] = []
    if len(reference) != len(columnar):
        out.append(
            f"event count {len(reference)} (replay) vs {len(columnar)} (columnar)"
        )
    for i, (a, b) in enumerate(zip(reference, columnar)):
        if a != b:
            out.append(f"event {i}: replay {a} != columnar {b}")
            if len(out) >= 5:
                out.append("... (further mismatches suppressed)")
                break
    return out


def replay_transcript(
    instance: Any,
    transcript: Any,
    *,
    payment_rule: str = "second_price",
    initial_state: Any = None,
) -> tuple[list[ev.Event], Any]:
    """The event stream a single-winner, local-valuation AGT-RAM
    transcript implies.

    Re-commits each :class:`~repro.core.mechanism.RoundRecord` of
    ``transcript`` on a copy of the start state (``initial_state``, or
    the primaries) under the state's OTC tracker, building one event
    object per decision — with the timestamps ``0.0, 1.0, …`` a run
    captured under :func:`~repro.obs.events.logical_time` carries.
    Returns the events and the replayed final state.
    """
    from repro.drp.cost import total_otc
    from repro.drp.state import ReplicationState

    state = (
        initial_state.copy()
        if initial_state is not None
        else ReplicationState.primaries_only(instance)
    )
    state.begin_otc_tracking()
    events: list[ev.Event] = []

    def emit(cls: Any, *fields: Any) -> None:
        events.append(cls(float(len(events)), *fields))

    emit(ev.RunStart, "AGT-RAM")
    committed = 0
    for rnd, rec in enumerate(transcript.rounds):
        emit(ev.RoundStart, rnd)
        for agent in np.flatnonzero(np.isfinite(rec.reported)).tolist():
            emit(
                ev.BidEvent,
                rnd,
                agent,
                int(rec.objects[agent]),
                float(rec.reported[agent]),
            )
        if rec.winner >= 0:
            winner, obj = int(rec.winner), int(rec.obj)
            emit(
                ev.WinnerEvent,
                rnd,
                winner,
                obj,
                float(rec.reported[winner]),
                int(instance.sizes[obj]),
                int(state.residual[winner]),
            )
            emit(ev.PaymentEvent, rnd, winner, float(rec.payment), payment_rule)
            state.add_replica(winner, obj)
            emit(ev.NNUpdateEvent, rnd, obj, instance.n_servers)
            committed += 1
        emit(ev.RoundEnd, rnd, int(rec.winner >= 0), state.tracked_otc())
    emit(ev.RunEnd, "AGT-RAM", total_otc(state), committed)
    return events, state


def _identity_configs() -> list[tuple[str, dict[str, Any], bool]]:
    """The identity pass's AGT-RAM configurations as ``(label, AGTRam
    keyword arguments, warm)``: every engine, payment rule, strategic
    reports and a warm start go through the same ring.  ``warm`` runs
    resume from the default run's placement after half its rounds."""
    from repro.core.strategies import OverProjection, UnderProjection

    return [
        ("vectorized", dict(engine="vectorized"), False),
        ("naive", dict(engine="naive"), False),
        ("first-price", dict(engine="vectorized", payment_rule="first_price"), False),
        (
            "strategies",
            dict(
                engine="vectorized",
                strategies={0: OverProjection(3.0), 5: UnderProjection(0.5)},
            ),
            False,
        ),
        ("warm-start", dict(engine="vectorized"), True),
    ]


def compare_emission_paths(
    scale: str = "tiny", *, repeats: int = 5, seed: int = 0
) -> EmissionComparison:
    """Prove byte-equivalence and measure eventing overhead on a preset.

    Identity pass: AGT-RAM runs once per configuration of
    :func:`_identity_configs` under
    :func:`~repro.obs.events.logical_time` with ``record_audit``; the
    expanded columnar stream must equal :func:`replay_transcript` of the
    run's transcript field for field, the replay must end in the run's
    placement, and every second-price stream must pass the offline
    audit (first price is not truthful, which the audit flags by
    design).  The warm start resumes from the default run's placement
    after half its rounds.  Timing pass: ``repeats`` interleaved
    (eventing-off, eventing-on) pairs of the vectorized engine timed
    with ``process_time``; overhead is the minimum paired ratio (see
    module docstring).  ``seed`` is reserved for preset
    parameterization.
    """
    from repro.core.agt_ram import AGTRam
    from repro.experiments.instances import paper_instance
    from repro.obs.audit import audit_events
    from repro.obs.events import ColumnarSink
    from repro.obs.report import bench_config

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    instance = paper_instance(bench_config(scale))
    cmp = EmissionComparison(scale=scale)

    # -- identity pass (deterministic) ----------------------------------
    cmp.rounds = AGTRam(engine="vectorized").run(instance).rounds
    warm = AGTRam(engine="vectorized", max_rounds=cmp.rounds // 2).run(instance).state
    audit_ok = True
    for label, config, from_warm in _identity_configs():
        mech = AGTRam(**config)
        start = warm if from_warm else None
        with ev.logical_time():
            with ev.capture(ColumnarSink()) as sink:
                result = mech.run(
                    instance,
                    record_audit=True,
                    initial_state=None if start is None else start.copy(),
                )
        columnar = _event_dicts(sink.iter_events())
        reference, replayed = replay_transcript(
            instance,
            result.extra["audit"],
            payment_rule=mech.payment_rule,
            initial_state=start,
        )
        found = _diff_streams(_event_dicts(reference), columnar)
        if not np.array_equal(replayed.x, result.state.x):
            found.append("replayed placement differs from the run's")
        cmp.mismatches.extend(f"{label}: {m}" for m in found)
        if mech.payment_rule == "second_price":
            audit_ok = audit_ok and audit_events(sink.iter_events()).ok
        cmp.n_events += len(columnar)
        cmp.configs.append(label)
    cmp.identical = not cmp.mismatches
    cmp.audit_ok = audit_ok

    # -- timing pass (paired, in-process) -------------------------------
    def run_disabled() -> None:
        AGTRam(engine="vectorized").run(instance)

    def run_enabled() -> None:
        with ev.capture(ColumnarSink()):
            AGTRam(engine="vectorized").run(instance)

    run_disabled()
    run_enabled()  # warm caches and allocators on both paths
    offs: list[float] = []
    ons: list[float] = []
    for _ in range(repeats):
        t0 = time.process_time()
        run_disabled()
        offs.append(time.process_time() - t0)
        t0 = time.process_time()
        run_enabled()
        ons.append(time.process_time() - t0)
    ratios = [on / off for on, off in zip(ons, offs) if off > 0]
    cmp.disabled_wall_s = statistics.median(offs)
    cmp.enabled_wall_s = statistics.median(ons)
    if ratios:
        cmp.overhead_percent = (min(ratios) - 1.0) * 100.0
        cmp.overhead_percent_median = (statistics.median(ratios) - 1.0) * 100.0
    return cmp


def format_emission_comparison(cmp: EmissionComparison) -> str:
    lines = [
        f"emission gate @ {cmp.scale}: {cmp.rounds} rounds, "
        f"{cmp.n_events} events compared",
        f"  byte-equivalence  {'PASS' if cmp.identical else 'FAIL'} "
        f"({', '.join(cmp.configs)})",
        f"  audit             {'PASS' if cmp.audit_ok else 'FAIL'}",
        f"  eventing off      {cmp.disabled_wall_s * 1e3:8.2f} ms (median)",
        f"  eventing on       {cmp.enabled_wall_s * 1e3:8.2f} ms (median)",
        f"  overhead          {cmp.overhead_percent:8.2f} % (min pair; "
        f"median {cmp.overhead_percent_median:.2f} %, "
        f"~{cmp.marginal_us_per_round:.1f} us/round)",
    ]
    lines.extend(f"  mismatch: {m}" for m in cmp.mismatches)
    return "\n".join(lines)
