"""The dict-based round verification, kept as the reference for the
audit's array path.

``repro.obs.audit`` checks each round on its bid columns.  These are the
per-bid checks it replaced, unchanged except that they read the round's
bids from its column chunks into the ``agent -> value`` and
``agent -> object`` dicts they were written against.
:func:`reference_verification` swaps them into the auditor, so a test
can audit one log both ways and require equal reports.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Iterator
from unittest import mock

from repro.obs import audit
from repro.obs.audit import _close


def _column(chunk: Any) -> list:
    return chunk if isinstance(chunk, list) else chunk.tolist()


def _bids(rnd: Any) -> tuple[dict[int, float], dict[int, int]]:
    """The round's bids as ``(values, objs)`` dicts, in bid order."""
    values: dict[int, float] = {}
    objs: dict[int, int] = {}
    for agents, chunk_objs, chunk_values in rnd.chunks:
        for a, o, v in zip(_column(agents), _column(chunk_objs), _column(chunk_values)):
            values[a] = v
            objs[a] = o
    return values, objs


def verify_round(self: Any, rnd: Any, end: Any) -> None:
    if end.committed != len(rnd.winners):
        self._flag(
            rnd.index,
            "structure",
            f"round committed {end.committed} replica(s) but logged "
            f"{len(rnd.winners)} winner event(s)",
        )
    bids, objs = _bids(rnd)
    excluded = rnd.missing | rnd.rejected
    values = {a: v for a, v in bids.items() if v == v and a not in excluded}
    if len(values) + len(excluded & bids.keys()) < len(bids):
        for a, v in bids.items():
            if v != v and a not in excluded:
                self._flag(
                    rnd.index,
                    "structure",
                    f"agent {a}'s accepted bid is NaN — left out of the "
                    f"argmax and the price",
                )
    best = max(values.values()) if values else float("-inf")
    winner_agents = {w.agent for w in rnd.winners}

    for w in rnd.winners:
        if w.agent in rnd.missing:
            self._flag(
                rnd.index,
                "winner",
                f"winner {w.agent}'s bid was declared lost by the "
                f"round's timeout — a lost bid cannot win",
            )
            continue
        if w.agent in rnd.rejected:
            self._flag(
                rnd.index,
                "winner",
                f"winner {w.agent}'s bid was rejected by the trust "
                f"boundary — a rejected bid cannot win",
            )
            continue
        verify_winner(self, rnd, w, bids, objs, values, best)
        self._verify_capacity(rnd, w)
    for p in rnd.payments:
        verify_payment(self, rnd, p, values, winner_agents)
    for r in rnd.rejects:
        if r.reason == "capacity" and r.obj_size <= r.residual:
            self._flag(
                rnd.index,
                "capacity",
                f"agent {r.agent} was capacity-rejected for object "
                f"{r.obj} although size {r.obj_size} fits residual "
                f"{r.residual}",
            )


def verify_winner(
    self: Any,
    rnd: Any,
    w: Any,
    bids: dict[int, float],
    objs: dict[int, int],
    values: dict[int, float],
    best: float,
) -> None:
    if w.agent not in bids:
        self._flag(rnd.index, "winner", f"winner {w.agent} never bid this round")
        return
    bid_value, bid_obj = bids[w.agent], objs[w.agent]
    if not (_close(bid_value, w.value) and bid_obj == w.obj):
        self._flag(
            rnd.index,
            "winner",
            f"winner record (obj {w.obj}, value {w.value}) does not "
            f"match agent {w.agent}'s bid (obj {bid_obj}, value "
            f"{bid_value})",
        )
    if len(rnd.winners) == 1 and not _close(w.value, best) and w.value < best:
        self._flag(
            rnd.index,
            "winner",
            f"winner {w.agent} bid {w.value} but the round's best bid "
            f"was {best} — not the argmax",
        )
    elif len(rnd.winners) > 1:
        winner_agents = {x.agent for x in rnd.winners}
        best_rejected = max(
            (v for a, v in values.items() if a not in winner_agents),
            default=float("-inf"),
        )
        if w.value < best_rejected and not _close(w.value, best_rejected):
            self._flag(
                rnd.index,
                "winner",
                f"batch winner {w.agent} bid {w.value}, below the best "
                f"rejected bid {best_rejected}",
            )


def verify_payment(
    self: Any,
    rnd: Any,
    p: Any,
    values: dict[int, float],
    winner_agents: set[int],
) -> None:
    if p.agent not in winner_agents:
        self._flag(
            rnd.index, "payment", f"payment of {p.amount} to non-winner {p.agent}"
        )
        return
    if p.rule == "second_price":
        others = [v for a, v in values.items() if a != p.agent]
        expected = max((v for v in others), default=0.0)
        expected = expected if math.isfinite(expected) and expected > 0 else 0.0
        if expected > 0:
            setters = tuple(
                sorted(
                    a
                    for a, v in values.items()
                    if a != p.agent and _close(v, expected)
                )
            )
            self._priced.append((rnd.index, p.agent, p.amount, setters))
    elif p.rule == "uniform":
        rejected = [
            v
            for a, v in values.items()
            if a not in winner_agents and math.isfinite(v) and v > 0
        ]
        expected = max(rejected, default=0.0)
    else:
        self._flag(
            rnd.index,
            "payment",
            f"rule {p.rule!r} is not a truthful second-price rule",
        )
        return
    if not _close(p.amount, expected):
        self._flag(
            rnd.index,
            "payment",
            f"agent {p.agent} was paid {p.amount} but the true "
            f"{p.rule} amount is {expected}",
        )
    else:
        self.report.payments_verified += 1


@contextmanager
def reference_verification() -> Iterator[None]:
    """Audit with the dict-based round checks inside the block."""
    with mock.patch.object(audit._Auditor, "_verify_round", verify_round):
        yield
