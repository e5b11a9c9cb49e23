"""Payment rules and the utility model — Axiom 5 and Theorem 5.

The paper's motivational payment: "for each object allocated to it, the
agent is given payment equal to the overall second best cost of
replication" — a per-round Vickrey (second-price) rule.  Theorem 5's
proof computes the winner's utility as ``t_i - d_(2)`` (true value minus
the second-best declaration), which is the classical second-price utility
and what makes truth-telling a dominant strategy: over-projection can win
a round whose price exceeds the agent's true value (negative utility),
under-projection can lose a round the agent values positively, and random
projection risks both.

:func:`first_price_payment` is kept as the ablation foil — under it the
winner's utility is identically zero for truthful play, so manipulation
pays and truthfulness collapses (benchmarked in
``benchmarks/bench_ablation_payments.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def second_best_payment(reported: Sequence[float], winner: int) -> float:
    """The Vickrey price: the best reported value excluding the winner's.

    Parameters
    ----------
    reported:
        All agents' reported values for the round; non-participants
        should report ``-inf``.
    winner:
        Index of the winning agent.

    Returns
    -------
    float
        ``max_{j != winner} reported[j]``, clamped at 0.0 when no other
        agent made a (finite, positive) report — a sole bidder pays the
        reserve price of zero.

    Notes
    -----
    The rule is total over adversarial inputs: non-finite reports
    (``nan``, ``±inf``) are treated as non-participation rather than
    poisoning the max, so the price is always finite and non-negative,
    and — when the winner is the argmax of the finite reports — never
    exceeds the winner's own bid (Hypothesis-tested properties).
    """
    arr = np.asarray(reported, dtype=np.float64)
    if not (0 <= winner < len(arr)):
        raise IndexError(f"winner index {winner} out of range for {len(arr)} agents")
    # The best report on either side of the winner, read off views.
    # Below +inf (so not NaN either) on both sides, -inf entries only
    # stand for absent reports, and a nonzero best has one bit pattern.
    left = float(arr[:winner].max(initial=-math.inf))
    right = float(arr[winner + 1 :].max(initial=-math.inf))
    if left < math.inf and right < math.inf:
        best = left if left > right else right
        if best != 0.0:
            return best if best > 0.0 else 0.0
    # A NaN or +inf report to drop, or a zero best whose sign is the one
    # ``max`` picks among the finite reports in order.
    others = np.delete(arr, winner)
    others = others[np.isfinite(others)]
    if len(others) == 0:
        return 0.0
    best = float(others.max())
    if best < 0.0:
        return 0.0
    return best


def first_price_payment(reported: Sequence[float], winner: int) -> float:
    """Pay-your-bid rule (ablation): the winner's price is its own report."""
    arr = np.asarray(reported, dtype=np.float64)
    if not (0 <= winner < len(arr)):
        raise IndexError(f"winner index {winner} out of range for {len(arr)} agents")
    value = float(arr[winner])
    if not np.isfinite(value):
        raise ValueError("winner made no finite report")
    return max(0.0, value)


#: Registry used by :class:`repro.core.agt_ram.AGTRam` and the ablations.
PAYMENT_RULES: dict[str, Callable[[Sequence[float], int], float]] = {
    "second_price": second_best_payment,
    "first_price": first_price_payment,
}


def winner_utility(true_value: float, payment: float) -> float:
    """Theorem-5 utility of a round winner: ``t_i - price``.

    Losers' utility is 0 by definition (they neither host nor pay).
    """
    return float(true_value) - float(payment)
