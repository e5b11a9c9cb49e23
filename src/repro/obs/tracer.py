"""Hierarchical timer spans and counters — the tracing core of ``repro.obs``.

Design goals, in order:

1. **Near-zero overhead when disabled.**  Tracing is off by default; the
   entire library stays instrumented at all times, so the disabled path
   must be cheap enough to sit inside AGT-RAM's per-round loop.  Two
   disciplines follow:

   * coarse regions use ``with tracer.span(name)``, which returns a
     shared no-op singleton when the tracer is disabled (one method call,
     no allocation);
   * the innermost hot phases use the *explicit* pattern::

         enabled = tracer.enabled
         t0 = perf_counter() if enabled else 0.0
         ...work...
         if enabled:
             tracer.add("phase", perf_counter() - t0)

     whose disabled cost is a single attribute read per phase.

2. **Hierarchy without bookkeeping.**  Span names nest: entering
   ``span("run")`` then ``span("sweep")`` records the inner time under
   ``"run/sweep"``.  ``add()`` and ``count()`` prefix the current span
   path the same way, so phase timings recorded with the explicit
   pattern land under the enclosing span.

3. **Machine-readable output.**  :meth:`Tracer.snapshot` returns plain
   dicts (JSON-safe) that the bench harness embeds verbatim in
   ``BENCH_*.json`` files.

The module-level registry (:func:`current`, :func:`install`,
:func:`capture`) lets deeply-buried code find the active tracer without
threading it through every signature.  It is :mod:`contextvars`-based,
so concurrent captures — threads, future async code — each see their
own tracer instead of clobbering a process-wide global.  Worker threads
spawned *outside* any capture see the disabled default; code that fans
out work should propagate its context (``contextvars.copy_context``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "SpanStat",
    "Tracer",
    "NULL_TRACER",
    "current",
    "install",
    "capture",
]

_perf_counter = time.perf_counter

#: Separator used to build hierarchical span paths.
SEP = "/"


@dataclass
class SpanStat:
    """Aggregate statistics of one span path (all entries combined)."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = field(default=float("inf"))
    max_s: float = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.count if self.count else 0.0,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: pushes its path on enter, records elapsed on exit."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._push(self._name)
        self._start = _perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = _perf_counter() - self._start
        self._tracer._pop(elapsed)
        return None


class Tracer:
    """Collects hierarchical span timings and named counters.

    Parameters
    ----------
    enabled:
        When ``False`` every public method is a cheap no-op; the
        module-level :data:`NULL_TRACER` is the canonical disabled
        instance.
    """

    __slots__ = ("enabled", "spans", "counters", "_stack")

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self.spans: dict[str, SpanStat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[str] = []

    # -- span plumbing -----------------------------------------------------

    def _path(self, name: str) -> str:
        if self._stack:
            return self._stack[-1] + SEP + name
        return name

    def _push(self, name: str) -> None:
        self._stack.append(self._path(name))

    def _pop(self, elapsed: float) -> None:
        path = self._stack.pop()
        stat = self.spans.get(path)
        if stat is None:
            stat = self.spans[path] = SpanStat()
        stat.record(elapsed)

    # -- public API --------------------------------------------------------

    def span(self, name: str) -> object:
        """Context manager timing one region under the current path.

        Disabled tracers return a shared no-op singleton, so the call is
        safe (and cheap) in any code path.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Record one explicit timing under the current span path.

        Used by hot loops that time with ``perf_counter`` directly; see
        the module docstring for the gating pattern.
        """
        if not self.enabled:
            return
        path = self._path(name)
        stat = self.spans.get(path)
        if stat is None:
            stat = self.spans[path] = SpanStat()
        stat.record(seconds)

    def count(self, name: str, n: float = 1) -> None:
        """Increment a named counter (prefixed by the current span path)."""
        if not self.enabled:
            return
        path = self._path(name)
        self.counters[path] = self.counters.get(path, 0) + n

    def reset(self) -> None:
        """Drop all collected data (the span stack must be empty)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans.clear()
        self.counters.clear()

    def snapshot(self) -> dict:
        """JSON-safe dump: ``{"spans": {path: stats}, "counters": {...}}``."""
        return {
            "spans": {path: stat.to_dict() for path, stat in self.spans.items()},
            "counters": dict(self.counters),
        }

    def total(self, path: str) -> float:
        """Total seconds recorded under an exact span path (0.0 if absent)."""
        stat = self.spans.get(path)
        return stat.total_s if stat is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Tracer({state}, {len(self.spans)} spans, "
            f"{len(self.counters)} counters)"
        )


#: The canonical disabled tracer — the default "current" tracer.
NULL_TRACER = Tracer(enabled=False)

_current: ContextVar[Tracer] = ContextVar("repro_obs_tracer", default=NULL_TRACER)


def current() -> Tracer:
    """The active tracer; :data:`NULL_TRACER` (disabled) by default."""
    return _current.get()


def install(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the active tracer; returns the previous one.

    ``None`` restores the disabled default.  Prefer :func:`capture` for
    scoped use — ``install`` exists for long-lived embeddings (e.g. a
    service exporting metrics for its whole lifetime).  The registry is
    a :class:`contextvars.ContextVar`, so installation is scoped to the
    current execution context: concurrent threads/tasks with their own
    captures do not interfere.
    """
    previous = _current.get()
    _current.set(tracer if tracer is not None else NULL_TRACER)
    return previous


@contextmanager
def capture(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scoped tracing: install a fresh (or given) tracer, restore on exit.

    >>> from repro.obs import capture
    >>> with capture() as tr:            # doctest: +SKIP
    ...     mechanism.run(instance)
    >>> tr.snapshot()["spans"]           # doctest: +SKIP
    """
    active = tracer if tracer is not None else Tracer()
    previous = install(active)
    try:
        yield active
    finally:
        install(previous)
