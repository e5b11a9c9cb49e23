"""Runtime accounting for the semi-distributed simulation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.messages import MessageLog


@dataclass
class RuntimeMetrics:
    """Protocol-level costs of one mechanism execution.

    Attributes
    ----------
    rounds:
        Mechanism rounds played (each allocates at most one replica).
    log:
        Per-message-type counts and byte totals.
    parallel_round_work:
        Per-round maximum single-agent bid-computation cost (object
        evaluations) — the critical-path work when agents truly run in
        parallel, the paper's PARFOR.
    serial_round_work:
        Per-round *total* bid-computation cost — what a centralized
        implementation would pay.
    """

    rounds: int = 0
    log: MessageLog = field(default_factory=MessageLog)
    parallel_round_work: list[int] = field(default_factory=list)
    serial_round_work: list[int] = field(default_factory=list)

    def record_round_work(self, per_agent_evaluations: list[int]) -> None:
        if per_agent_evaluations:
            self.parallel_round_work.append(max(per_agent_evaluations))
            self.serial_round_work.append(sum(per_agent_evaluations))
        else:
            self.parallel_round_work.append(0)
            self.serial_round_work.append(0)

    @property
    def critical_path_work(self) -> int:
        """Total work along the parallel critical path."""
        return sum(self.parallel_round_work)

    @property
    def total_work(self) -> int:
        return sum(self.serial_round_work)

    @property
    def parallel_speedup(self) -> float:
        """Ideal speedup of the PARFOR over a serial evaluation.

        A model, not a measurement: total work over critical-path work,
        counted in object evaluations, not timed.  ``repro bench``
        reports it as ``modelled_parallel_speedup``.
        """
        cp = self.critical_path_work
        return self.total_work / cp if cp else 1.0

    def summary(self) -> dict:
        """JSON-safe summary: the aggregate costs plus the per-round work
        series (the trajectories, not just their sums)."""
        return {
            "rounds": self.rounds,
            "messages": self.log.total_messages(),
            "bytes": self.log.bytes_total,
            "total_work": self.total_work,
            "critical_path_work": self.critical_path_work,
            "parallel_speedup": self.parallel_speedup,
            "parallel_round_work": list(self.parallel_round_work),
            "serial_round_work": list(self.serial_round_work),
        }
