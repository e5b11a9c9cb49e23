"""Common interface for replica-placement algorithms.

Every algorithm — AGT-RAM included, through a thin adapter registered
here — consumes a :class:`~repro.drp.instance.DRPInstance` and returns a
:class:`~repro.result.PlacementResult`, which is what lets the experiment
harness sweep "all six methods of the paper" generically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.obs import events as ev
from repro.obs import tracer as obs
from repro.drp.instance import DRPInstance
from repro.errors import ConfigurationError
from repro.result import PlacementResult


class ReplicaPlacer(ABC):
    """A replica-placement algorithm.

    :meth:`place` is the public entry point; it wraps the concrete
    :meth:`_place` in an observability span (``baseline/<name>``) so
    every algorithm is traced uniformly when a tracer is active (see
    :mod:`repro.obs`) at zero cost otherwise.
    """

    name: str = "placer"

    def place(self, instance: DRPInstance) -> PlacementResult:
        """Compute a feasible replication scheme for ``instance``."""
        sink = ev.current()
        if sink.enabled:
            sink.emit(ev.RunStart(t=ev.now(), algorithm=self.name))
        with obs.current().span(f"baseline/{self.name}"):
            result = self._place(instance)
        if sink.enabled:
            sink.emit(
                ev.RunEnd(
                    t=ev.now(),
                    algorithm=result.algorithm,
                    otc=result.otc,
                    rounds=result.rounds,
                )
            )
        return result

    @abstractmethod
    def _place(self, instance: DRPInstance) -> PlacementResult:
        """Algorithm-specific placement; implemented by subclasses."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _make_agt_ram(**kwargs) -> ReplicaPlacer:
    """Adapter presenting AGT-RAM through the ReplicaPlacer interface."""
    from repro.core.agt_ram import AGTRam

    class _AGTRamPlacer(ReplicaPlacer):
        name = "AGT-RAM"

        def __init__(self):
            self._mech = AGTRam(**kwargs)

        def _place(self, instance: DRPInstance) -> PlacementResult:
            return self._mech.run(instance)

    return _AGTRamPlacer()


def _registry() -> dict[str, Callable[..., ReplicaPlacer]]:
    from repro.baselines.aestar import AEStarPlacer
    from repro.baselines.dutch import DutchAuctionPlacer
    from repro.baselines.english import EnglishAuctionPlacer
    from repro.baselines.gra import GRAPlacer
    from repro.baselines.greedy import GreedyPlacer
    from repro.baselines.optimal import OptimalPlacer
    from repro.baselines.random_placement import RandomPlacer

    return {
        "AGT-RAM": _make_agt_ram,
        "Greedy": GreedyPlacer,
        "GRA": GRAPlacer,
        "Ae-Star": AEStarPlacer,
        "DA": DutchAuctionPlacer,
        "EA": EnglishAuctionPlacer,
        "Random": RandomPlacer,
        "Optimal": OptimalPlacer,
    }


#: Lazily-populated algorithm registry; see :func:`make_placer`.
ALGORITHM_REGISTRY: dict[str, Callable[..., ReplicaPlacer]] = {}


def make_placer(name: str, **kwargs) -> ReplicaPlacer:
    """Instantiate an algorithm by its paper label.

    Valid names: ``"AGT-RAM"``, ``"Greedy"``, ``"GRA"``, ``"Ae-Star"``,
    ``"DA"``, ``"EA"``, ``"Random"``, ``"Optimal"``.  Keyword arguments
    are forwarded to the algorithm's constructor.
    """
    if not ALGORITHM_REGISTRY:
        ALGORITHM_REGISTRY.update(_registry())
    try:
        factory = ALGORITHM_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; expected one of "
            f"{sorted(_registry())}"
        ) from None
    return factory(**kwargs)
