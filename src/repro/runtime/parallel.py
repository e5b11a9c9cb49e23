"""Concurrent evaluation of the PARFOR loops of Figure 2.

The mechanism's per-round agent work ("compute the valuation
corresponding to the desired object" for every object in L_i) is
embarrassingly parallel across agents.  :class:`ParallelBidEvaluator`
runs it on a thread pool: the bid computation is numpy-bound, so the GIL
is released inside the array kernels and threads provide genuine overlap
without the serialization cost of process pools.

The simulator hands it *strategic* agents only — those with an entry in
its ``strategies``, whose reports transform their own rows.  A truthful
agent's report is the first-index argmax the benefit engine already
holds, so the simulator reads all of those from one
``best_per_server()`` call per round and never evaluates them here.
This is the fidelity knob, not the speed knob — the simulator exists to
model the distributed protocol faithfully (per-agent work, message
counts, critical-path depth).
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.core.agents import Bid, ReplicaAgent
from repro.drp.benefit import BenefitEngine
from repro.obs import tracer as obs


class ParallelBidEvaluator:
    """Evaluates all agents' bids for one round, optionally in parallel.

    Parameters
    ----------
    max_workers:
        Thread count; ``None`` disables the pool (serial evaluation),
        mirroring a single-machine deployment.
    """

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool = (
            ThreadPoolExecutor(max_workers=max_workers) if max_workers else None
        )
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or the context manager exit) has run."""
        return self._closed

    def evaluate(
        self, agents: Sequence[ReplicaAgent], engine: BenefitEngine
    ) -> list[Bid | None]:
        """One PARFOR sweep: each agent's dominant bid (None = abstains)."""
        if self._closed:
            raise RuntimeError("ParallelBidEvaluator is closed")
        tracer = obs.current()
        if tracer.enabled:
            tracer.count("parallel/sweeps")
            tracer.count("parallel/bids_evaluated", len(agents))
        if self._pool is None:
            return [agent.make_bid(engine) for agent in agents]
        # Propagate the caller's context (active tracer/event sink) into
        # the worker threads: the obs registries are contextvars-based,
        # so without this the workers would see the disabled defaults.
        # Each task needs its own Context copy — a Context cannot be
        # entered concurrently.
        tasks = [
            (contextvars.copy_context(), agent) for agent in agents
        ]
        return list(
            self._pool.map(lambda ca: ca[0].run(ca[1].make_bid, engine), tasks)
        )

    def close(self) -> None:
        """Shut the pool down; idempotent.  Evaluation afterwards raises."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def __enter__(self) -> "ParallelBidEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
