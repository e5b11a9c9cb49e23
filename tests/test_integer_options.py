"""Round caps and periods are integers.

A float cap used to run ``ceil`` rounds (``2.5`` ran 3), ``True`` ran one
round, a negative cap silently ran none, and a float NN-update period
ran the lazy protocol on a resync schedule no integer period has.  Each
option now takes an integer (numpy's included) and raises
``ConfigurationError`` for anything else.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.english import EnglishAuctionPlacer
from repro.baselines.greedy import GreedyPlacer
from repro.core.disposition import run_with_declared_capacities
from repro.errors import ConfigurationError
from repro.runtime.simulator import SemiDistributedSimulator

BAD = [-1, 2.5, 3.0, True]


def _greedy(inst, v):
    return GreedyPlacer(max_steps=v).place(inst).rounds


def _declared(inst, v):
    return run_with_declared_capacities(inst, inst.capacities, max_rounds=v).rounds


def _english(inst, v):
    return EnglishAuctionPlacer(max_sales=v, seed=7).place(inst).extra["sales"]


def _period(inst, v):
    res = SemiDistributedSimulator(nn_update_period=v).run(inst)
    return res.extra["metrics"].log.bytes_total


def _central(inst, v):
    res = SemiDistributedSimulator(central_failure_round=v).run(inst)
    return res.extra["central_handover_round"]


OPTIONS = {
    "greedy-max-steps": _greedy,
    "declared-max-rounds": _declared,
    "english-max-sales": _english,
    "nn-update-period": _period,
    "central-failure-round": _central,
}


@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("value", BAD, ids=repr)
def test_non_integer_rejected(tiny_instance, option, value):
    with pytest.raises(ConfigurationError):
        OPTIONS[option](tiny_instance, value)


@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_numpy_integer_accepted(tiny_instance, option):
    run = OPTIONS[option]
    assert run(tiny_instance, np.int64(3)) == run(tiny_instance, 3)


def test_caps_count_rounds(tiny_instance):
    with pytest.raises(ConfigurationError, match="> 0"):
        _period(tiny_instance, 0)
    assert _greedy(tiny_instance, 3) == 3
    assert _declared(tiny_instance, 3) == 3
    assert _english(tiny_instance, 3) == 3
    assert _central(tiny_instance, 3) == 3
