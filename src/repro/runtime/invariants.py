"""Online safety checks: the offline auditors, fed the live stream.

:class:`InvariantMonitor` is an :class:`~repro.obs.events.EventSink`
wrapper: it forwards every event (and every columnar block and packed
bid run, unexpanded) to the inner sink, then hands the event (or the
run, whole) to the auditors of :mod:`repro.obs.audit` — the very
checkers ``python -m repro audit`` runs on the recorded log, so the
live and the offline verdicts come from one piece of code and cannot
disagree.  Until the serving campaign's
:class:`~repro.obs.events.ServeStart` the stream goes to the mechanism
auditor of the central that runs (flat or sharded); from
it on, to the serving auditor and to a flat auditor for the drift
re-auctions the serving tail nests.  Each violation an auditor finds
becomes a typed :class:`~repro.obs.events.InvariantEvent` in the inner
sink the moment it is found — so the verdict is part of the very log
being audited — and, under ``strict=True``, raises
:class:`~repro.errors.InvariantViolationError` on the spot.

One check is the monitor's own, because its floor is the scenario's
SLO, which the log does not record: ``availability_floor``, the served
fraction of admitted requests over a sliding window.  The catalog of
kinds is in docs/robustness.md, "Online safety invariants".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError, InvariantViolationError
from repro.obs import events as ev
from repro.obs.audit import (
    AuditReport,
    AuditViolation,
    ServingAuditReport,
    ServingViolation,
    ShardedAuditReport,
    _Auditor,
    _ServingAuditor,
    _ShardedAuditor,
)

__all__ = ["InvariantConfig", "InvariantMonitor"]


@dataclass(frozen=True)
class InvariantConfig:
    """Knobs of the online monitor.

    ``availability_floor`` is checked over the trailing
    ``availability_window`` admitted requests; the window must fill
    before the floor is enforced (a cold start is not an outage).
    ``0.0`` disables the availability check entirely.
    """

    availability_floor: float = 0.0
    availability_window: int = 200
    strict: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.availability_floor <= 1.0):
            raise ConfigurationError(
                f"availability_floor must be in [0, 1], got "
                f"{self.availability_floor}"
            )
        if self.availability_window < 1:
            raise ConfigurationError("availability_window must be >= 1")


class InvariantMonitor(ev.EventSink):
    """Event-sink wrapper feeding the audits the live stream.

    Wraps an inner sink (usually a
    :class:`~repro.obs.events.ColumnarSink`): every emission is
    forwarded unchanged, then checked.  Violations are emitted as
    :class:`~repro.obs.events.InvariantEvent` records *after* the event
    that revealed them (a round's violations after its ``RoundEnd``),
    so the log stays a faithful transcript with the verdicts inline.  The wrapper
    is transparent to exporters — it proxies ``iter_events`` /
    ``events`` / ``items`` / ``__len__`` / ``nbytes`` to the inner sink.

    ``sharded`` names the central whose mechanism log comes first: the
    sharded audit checks it per shard and cross-shard, the flat audit
    otherwise.  :meth:`finish` closes the stream and returns the live
    reports.
    """

    enabled = True

    def __init__(
        self,
        inner: Optional[ev.EventSink] = None,
        *,
        config: Optional[InvariantConfig] = None,
        sharded: bool = False,
    ) -> None:
        self.inner = inner if inner is not None else ev.ColumnarSink()
        self.config = config or InvariantConfig()
        self.violations: list[ev.InvariantEvent] = []
        found = self._found
        self.mechanism = (_ShardedAuditor if sharded else _Auditor)(found)
        self.serving = _ServingAuditor(found)
        self.reauctions = _Auditor(found)
        #: The feeds of the auditors the stream goes to now.
        self._feeds: tuple[Any, ...] = (self.mechanism.feed,)
        self._serving = False
        self._finished = False
        # Sliding availability window: 1 = served, 0 = failed.
        self._window: list[int] = []
        self._window_served = 0
        self._below_floor = False

    # -- sink protocol -------------------------------------------------------

    def emit(self, event: ev.Event) -> None:
        self.inner.emit(event)
        self._audit(event)

    def emit_block(self, block: ev.RoundBlock) -> None:
        # Keep the columnar form for the inner sink; check the expanded
        # stream (violations, if any, land after the whole block —
        # acceptable skew for a bulk emission path).
        self.inner.emit_block(block)
        for event in ev.iter_block_events(block):
            self._audit(event)

    def emit_bids(self, run: Any) -> None:
        # The auditors take a packed run whole (violations, if any, land
        # after the whole run).
        self.inner.emit_bids(run)
        for feed in self._feeds:
            feed(run)

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def nbytes(self) -> int:
        return getattr(self.inner, "nbytes", 0)

    @property
    def items(self) -> list[Any]:
        """The inner sink's raw items (a :class:`ColumnarSink`'s)."""
        return self.inner.items

    def iter_events(self):
        if hasattr(self.inner, "iter_events"):
            return self.inner.iter_events()
        return iter(self.inner.events)

    @property
    def events(self) -> list[ev.Event]:
        return list(self.iter_events())

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_dict(self) -> dict[str, Any]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.invariant] = counts.get(v.invariant, 0) + 1
        return {
            "ok": self.ok,
            "violations": len(self.violations),
            "by_invariant": dict(sorted(counts.items())),
            "config": {
                "availability_floor": self.config.availability_floor,
                "availability_window": self.config.availability_window,
                "strict": self.config.strict,
            },
        }

    def finish(
        self,
    ) -> tuple[AuditReport | ShardedAuditReport, ServingAuditReport, AuditReport]:
        """Close the stream; the live reports.

        They are the mechanism audit of the events before the
        ``ServeStart`` (an :class:`~repro.obs.audit.AuditReport`, or a
        :class:`~repro.obs.audit.ShardedAuditReport` for the sharded
        central), and the serving audit and the flat re-auction audit
        of the events from it on — what
        :func:`~repro.obs.audit.audit_events` (or
        :func:`~repro.obs.audit.audit_sharded_events`),
        :func:`~repro.obs.audit.audit_serving_events` and
        :func:`~repro.obs.audit.audit_events` report on those slices of
        the log.  Whatever only the end of the stream reveals (a round
        left open) is flagged here.  Idempotent.
        """
        if not self._finished:
            self._finished = True
            if not self._serving:
                self.mechanism.finish()
            self.reauctions.finish()
        return self.mechanism.report, self.serving.report, self.reauctions.report

    # -- checking ------------------------------------------------------------

    def _audit(self, event: ev.Event) -> None:
        """Hand ``event`` to the auditors of the stream's phase (the
        first ``ServeStart`` closes the mechanism audit and opens the
        serving tail's), then to the availability window."""
        if isinstance(event, ev.ServeStart) and not self._serving:
            self._serving = True
            self.mechanism.finish()
            self._feeds = (self.serving.feed, self.reauctions.feed)
        for feed in self._feeds:
            feed(event)
        if isinstance(event, ev.RequestEvent):
            self._on_request(event)

    def _found(self, violation: AuditViolation | ServingViolation) -> None:
        """An auditor's violation, as it finds it."""
        if isinstance(violation, ServingViolation):
            self._flag(violation.kind, str(violation), tick=violation.tick)
        else:
            self._flag(violation.kind, str(violation), round=violation.round)

    def _flag(
        self,
        invariant: str,
        detail: str,
        *,
        round: int = -1,
        tick: int = -1,
        value: float = 0.0,
        bound: float = 0.0,
    ) -> None:
        violation = ev.InvariantEvent(
            t=ev.now(), invariant=invariant, round=round, tick=tick,
            value=value, bound=bound, detail=detail,
        )
        self.violations.append(violation)
        self.inner.emit(violation)
        if self.config.strict:
            raise InvariantViolationError(f"{invariant}: {detail}")

    def _on_request(self, e: ev.RequestEvent) -> None:
        cfg = self.config
        if cfg.availability_floor <= 0.0:
            return
        ok = 1 if e.outcome == "ok" else 0
        self._window.append(ok)
        self._window_served += ok
        if len(self._window) > cfg.availability_window:
            self._window_served -= self._window.pop(0)
        if len(self._window) < cfg.availability_window:
            return
        frac = self._window_served / len(self._window)
        if frac < cfg.availability_floor:
            if not self._below_floor:
                self._below_floor = True
                self._flag(
                    "availability_floor",
                    f"windowed availability {frac:.4f} fell below the "
                    f"floor {cfg.availability_floor:.4f}",
                    tick=e.tick, value=float(frac),
                    bound=float(cfg.availability_floor),
                )
        else:
            self._below_floor = False
