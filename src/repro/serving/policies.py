"""Data-path policies of the serving loop.

Four small, fully deterministic building blocks:

* :class:`BackoffPolicy` — capped exponential retry delays with
  seeded jitter (the delay is a pure function of (attempt, rng draw)).
* :class:`TokenBucket` — request-tick admission control; the bucket
  refills ``rate`` tokens per tick, so ``rate >= 1`` never sheds and
  the shed pattern for any ``rate`` is reproducible.
* :class:`QuantileTracker` — a trailing-window latency quantile; the
  serving loop hedges reads whose first attempt is slower than it.
* :class:`EwmaHealth` — per-replica exponentially-weighted success
  score; replicas scoring below the threshold are routed around
  before any attempt is wasted on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["BackoffPolicy", "TokenBucket", "QuantileTracker", "EwmaHealth"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    The delay before retry ``attempt`` (1-based) is
    ``min(cap, base * factor**(attempt-1))``, jittered uniformly into
    ``[delay * (1 - jitter), delay]`` using the caller's generator —
    so two runs with the same seed back off identically.
    """

    base: float = 1.0
    factor: float = 2.0
    cap: float = 8.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base < 0 or self.cap < 0:
            raise ConfigurationError("base and cap must be >= 0")
        if self.factor < 1.0:
            raise ConfigurationError("factor must be >= 1")
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError("jitter must be in [0, 1]")

    def raw_delay(self, attempt: int) -> float:
        """The un-jittered delay for 1-based retry ``attempt``."""
        if attempt < 1:
            raise ConfigurationError("attempt is 1-based")
        return float(min(self.cap, self.base * self.factor ** (attempt - 1)))

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """The jittered delay; always in ``[0, cap]``."""
        raw = self.raw_delay(attempt)
        if self.jitter == 0.0:
            return raw
        lo = raw * (1.0 - self.jitter)
        return float(lo + rng.random() * (raw - lo))


class TokenBucket:
    """Admission control over the request-tick clock.

    The bucket holds up to ``burst`` tokens, gains ``rate`` per tick
    (i.e. per :meth:`admit` call), and each admitted request costs one.
    Deterministic: the admit/shed pattern is a pure function of
    (rate, burst, call sequence).
    """

    def __init__(self, rate: float = 1.0, burst: float = 10.0):
        if rate < 0 or burst < 1.0:
            raise ConfigurationError("need rate >= 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)

    def admit(self) -> bool:
        """Advance one tick; True iff the request may proceed."""
        self.tokens = min(self.burst, self.tokens + self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class QuantileTracker:
    """Trailing-window latency quantile, recomputed lazily.

    Keeps the last ``window`` observations in a ring buffer; the
    quantile is recomputed at most every ``refresh`` observations (the
    cached value is served in between), keeping per-request cost O(1)
    amortized.  Until ``min_samples`` observations arrive the quantile
    reports ``inf`` — the hedger stays off while it has no signal.

    The recomputation sorts the window as a Python list and applies
    ``np.quantile``'s default ``linear`` rule to it, operation for
    operation, so the value has ``np.quantile``'s bits.
    """

    def __init__(
        self,
        q: float = 0.95,
        *,
        window: int = 512,
        min_samples: int = 32,
        refresh: int = 64,
    ):
        if not (0.0 < q < 1.0):
            raise ConfigurationError("q must be in (0, 1)")
        if window < 1 or min_samples < 1 or refresh < 1:
            raise ConfigurationError("window/min_samples/refresh must be >= 1")
        self.q = q
        self.window = window
        self.min_samples = min_samples
        self.refresh = refresh
        self._buf = [0.0] * window
        self._n = 0
        self._cached = float("inf")
        self._since_refresh = 0

    def observe(self, latency: float) -> None:
        self._buf[self._n % self.window] = float(latency)
        self._n += 1
        self._since_refresh += 1

    def quantile(self) -> float:
        """The tracked quantile; ``inf`` until warmed up."""
        if self._n < self.min_samples:
            return float("inf")
        if self._since_refresh >= self.refresh or self._cached == float("inf"):
            self._cached = _linear_quantile(
                self._buf[: min(self._n, self.window)], self.q
            )
            self._since_refresh = 0
        return self._cached


def _linear_quantile(values: list[float], q: float) -> float:
    """``float(np.quantile(values, q))`` for a Python ``q`` in (0, 1).

    numpy's ``linear`` method: the virtual index ``(n - 1) * q`` between
    the order statistics ``a`` (its floor) and ``b`` (the next one; both
    the maximum at the top end, where the weight becomes ``index + 1``),
    then ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)`` once the
    weight ``t`` reaches 0.5.  Any NaN in the window makes it NaN.
    """
    if math.isnan(sum(values)) and any(v != v for v in values):
        return float("nan")
    ordered = sorted(values)
    n = len(ordered)
    index = (n - 1) * q
    if index >= n - 1:
        below = above = -1
    else:
        below = math.floor(index)
        above = below + 1
    t = index - below
    a, b = ordered[below], ordered[above]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


class EwmaHealth:
    """Per-server EWMA success score; starts healthy at 1.0.

    Each outcome moves the score toward 1 (success) or 0 (failure) by
    factor ``alpha``; a server whose score drops below ``threshold``
    is reported unhealthy until successes pull it back up.  ``score``
    is a list of Python floats (the same IEEE arithmetic as a float64
    array), so a caller splitting many servers reads it directly.
    """

    def __init__(
        self, n_servers: int, *, alpha: float = 0.3, threshold: float = 0.5
    ):
        if n_servers < 1:
            raise ConfigurationError("need n_servers >= 1")
        if not (0.0 < alpha <= 1.0):
            raise ConfigurationError("alpha must be in (0, 1]")
        if not (0.0 <= threshold <= 1.0):
            raise ConfigurationError("threshold must be in [0, 1]")
        self.alpha = alpha
        self.threshold = threshold
        self.score = [1.0] * n_servers

    def record(self, server: int, ok: bool) -> None:
        s = self.score[server]
        self.score[server] = (1.0 - self.alpha) * s + self.alpha * (
            1.0 if ok else 0.0
        )

    def healthy(self, server: int) -> bool:
        return self.score[server] >= self.threshold
