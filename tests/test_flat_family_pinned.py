"""Pinned output of every caller of the local-CoR and global engines.

Each constant is the sha256 of one caller's whole observable record on
one instance: the final replica matrix's bytes, OTC, rounds, payments
and utilities, the ``to_dict()`` event stream under ``logical_time()``,
and — for the simulator — message counts and bytes.  The constants were
recorded while every one of these callers still ran the full-matrix
engine (and Greedy its own global-argmax loop), so a caller that moves
to another engine, or onto AGT-RAM's clearing loop, must reproduce them
bit for bit.

The differential test at the end is the flat family's: Greedy equals
the parent loop kept in ``_baselines_reference.py``, and the simulator,
the declared-capacity run and the reference engine each equal the flat
run on ``x``, OTC, rounds, payments and utilities.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.base import make_placer
from repro.baselines.greedy import GreedyPlacer
from repro.core.agt_ram import run_agt_ram
from repro.core.axioms import verify_axioms
from repro.core.disposition import (
    capacity_misreport_gain,
    cor_knowledge_gain,
    run_with_declared_capacities,
)
from repro.core.equilibrium import one_shot_utilities
from repro.core.strategies import OverProjection, UnderProjection
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.runtime.simulator import SemiDistributedSimulator

from _baselines_reference import reference_greedy
from _strategies import drp_instances


#: 40 servers x 200 objects at R/W 0.95: hundreds of rounds won by most
#: agents, small enough for every caller to run in about a second.
MID = ExperimentConfig(
    n_servers=40,
    n_objects=200,
    total_requests=30_000,
    rw_ratio=0.95,
    seed=29,
    name="mid",
)


@pytest.fixture(scope="module")
def mid_instance():
    return paper_instance(MID)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(part.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def _result_digest(res, events) -> str:
    extra = res.extra
    return _sha(
        np.ascontiguousarray(res.state.x),
        [float(res.otc), int(res.rounds)],
        np.asarray(extra.get("payments", []), dtype=np.float64),
        np.asarray(extra.get("utilities", []), dtype=np.float64),
        np.asarray(extra.get("voided", []), dtype=np.int64),
        [e.to_dict() for e in events],
    )


def _recorded(fn):
    with ev.logical_time(), ev.capture() as sink:
        res = fn()
    return res, sink.events


def _placer(name, **kw):
    return lambda inst: _result_digest(
        *_recorded(lambda: make_placer(name, **kw).place(inst))
    )


def _top_winners(inst) -> list[int]:
    """Agents by truthful utility, best first."""
    utilities = run_agt_ram(inst).extra["utilities"]
    return np.argsort(-utilities, kind="stable").tolist()


def _declared(lie: bool):
    def run(inst):
        declared = inst.capacities.copy()
        if lie:
            # The best winner over-declares (its awards bounce off real
            # storage), the runner-up declares no room at all.
            over, under = _top_winners(inst)[:2]
            declared[over] *= 3
            declared[under] = inst.primary_load[under]
        return _result_digest(
            *_recorded(lambda: run_with_declared_capacities(inst, declared))
        )

    return run


def _misreport_gain(inst):
    outcomes = [
        capacity_misreport_gain(inst, agent, factor)
        for agent in _top_winners(inst)[:2]
        for factor in (0.5, 2.0)
    ]
    return _sha(
        [
            [o.agent, o.factor, o.truthful_utility, o.misreport_utility, o.voided_awards]
            for o in outcomes
        ]
    )


def _cor_gain(inst):
    return _sha([cor_knowledge_gain(inst, a) for a in range(inst.n_servers)])


def _one_shot(inst):
    rows = []
    for rule in ("second_price", "first_price"):
        for a in range(inst.n_servers):
            for strategy in (OverProjection(2.0), UnderProjection(0.5)):
                u = one_shot_utilities(inst, a, strategy, payment_rule=rule)
                rows.append([u.agent, u.truthful, u.deviating])
    return _sha(rows)


def _axioms(inst):
    res = run_agt_ram(inst, record_audit=True)
    checks = verify_axioms(inst, res)
    return _sha([[n, c.passed, c.detail] for n, c in sorted(checks.items())])


def _simulator(period: int):
    def run(inst):
        with ev.logical_time(), ev.capture() as sink:
            res = SemiDistributedSimulator(nn_update_period=period).run(inst)
        log = res.extra["metrics"].log
        return _sha(
            _result_digest(res, sink.events),
            [log.bytes_total, list(log.counts.items())],
        )

    return run


CALLERS = {
    "DA": _placer("DA", seed=7),
    "EA": _placer("EA", seed=7),
    "Ae-Star": _placer("Ae-Star"),
    "Greedy": _placer("Greedy"),
    "declared-truthful": _declared(lie=False),
    "declared-lying": _declared(lie=True),
    "capacity-misreport-gain": _misreport_gain,
    "cor-knowledge-gain": _cor_gain,
    "one-shot-utilities": _one_shot,
    "verify-axioms": _axioms,
    "simulator-eager": _simulator(1),
    "simulator-lazy-2": _simulator(2),
    "simulator-lazy-3": _simulator(3),
}

PINNED = {
    "tiny": {
        "Ae-Star": (
            "82aa33d916128daa02909f41aa094737d5ccf8b7f7c9b1254425d69f109714af"
        ),
        "DA": (
            "2c695639feb04f49f648dcb4e47b3d4738beda8738cbfb28eb93a6a5341621ac"
        ),
        "EA": (
            "bb63b029b9584ba90b1d90ac405c95b98390de93bcb2c5510d090edc8ed0aa80"
        ),
        "Greedy": (
            "a375a96c922d0589fa91df4b2f4e4268a845e45dba5c82d902f09b3b22a54b51"
        ),
        "capacity-misreport-gain": (
            "2829ffab21c6a5dc2adf95e56a56da2cef7e75d69ba3927977a74b311affbcc8"
        ),
        "cor-knowledge-gain": (
            "b62dbbcbe176af66acc80cd88013780ad2a17b865f0a2991fbaaad0612d445a9"
        ),
        "declared-lying": (
            "0c5b06f6e17ce87d0756f27fdf9e0d641eb8f1cab16d36322a542474c3b52a19"
        ),
        "declared-truthful": (
            "a0270f09e434219dfcd6e962ebaca8fbdc6db1d9b685b9e0301ac67860de6cf0"
        ),
        "one-shot-utilities": (
            "7c26b7f709f1131c1550a84268a232d9050e39e1894462758a7f5337022a2089"
        ),
        "simulator-eager": (
            "aea7930c049444df664bb53d619b126802660f78b8f7d8c55057839d51e00982"
        ),
        "simulator-lazy-2": (
            "3e123fccf6fae3d5dd7d359b11417887c349c1af52c3d4f3ff9130df6ea4da34"
        ),
        "simulator-lazy-3": (
            "68e109ebe9d7ee4e651328c7292bf36cf3824e85ec88fd8c45d9a4355571cd80"
        ),
        "verify-axioms": (
            "fbcca0162089900cd1b904a154238f97faf6a4ddefd7d7599699e41d371feefe"
        ),
    },
    "mid": {
        "Ae-Star": (
            "4be6b0902f58f4120c7308118c7268d305f02ff4ca11b3505e3b93e7e6777988"
        ),
        "DA": (
            "1cb5e728523401986acdc0c9b85dbda2252d04a258f7bbf7586ce799592f93c3"
        ),
        "EA": (
            "e17df1024d01d59b455fd8826ce0116c3890e75cfad813a7a674ef2ee18d1243"
        ),
        "Greedy": (
            "460824c96579de47e5f4e1c8eb7f0df9fd07d1a3387ce7b1e4bb93d878e11458"
        ),
        "capacity-misreport-gain": (
            "422bb2bd5c97c038d30bd25d961e018634caf545d13f9888c9017bc6fdc8479b"
        ),
        "cor-knowledge-gain": (
            "f9b0bdf37abff8ab5b4d29263ebe438f9a1c58745bedffceb24886e87c367692"
        ),
        "declared-lying": (
            "f718d022021849416b3d5728c59daeb8ac95c60190c63c7736934bf7d89038c8"
        ),
        "declared-truthful": (
            "15ba8f85919e91e2f30b42463916f6f0f97dea9a7c15f44939632ec80d19f655"
        ),
        "one-shot-utilities": (
            "7c1bb5061381410fd5e394f2b5fc4bd87b22719fccbe6abf399b8b6eeae5c8da"
        ),
        "simulator-eager": (
            "fb1224329e09e66d7ed306832a6963ee2f973d249bb2107ead3bd455d0d20827"
        ),
        "simulator-lazy-2": (
            "bcf5450de2fe4388b43cb3633d83fc2d8df0b1c310753f67155f7e05be6c36a1"
        ),
        "simulator-lazy-3": (
            "245cfd099f3e4920dab0340dabea0248c03944999e6eb50c6b7b25d89f197924"
        ),
        "verify-axioms": (
            "fbcca0162089900cd1b904a154238f97faf6a4ddefd7d7599699e41d371feefe"
        ),
    },
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_caller_is_pinned_tiny(tiny_instance, caller):
    assert CALLERS[caller](tiny_instance) == PINNED["tiny"][caller]


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_caller_is_pinned_mid(mid_instance, caller):
    assert CALLERS[caller](mid_instance) == PINNED["mid"][caller]


def _outcome(res):
    return (
        res.state.x,
        res.otc,
        res.rounds,
        res.extra["payments"],
        res.extra["utilities"],
    )


def _assert_same(a, b):
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1] and a[2] == b[2]
    np.testing.assert_array_equal(a[3], b[3])
    np.testing.assert_array_equal(a[4], b[4])


class TestFlatFamilyDifferential:
    @given(
        instance=drp_instances(),
        cap=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_flat_entry_point_clears_alike(self, instance, cap):
        greedy = GreedyPlacer(max_steps=cap).place(instance)
        x, otc, steps = reference_greedy(instance, max_steps=cap)
        np.testing.assert_array_equal(greedy.state.x, x)
        assert greedy.otc == otc and greedy.rounds == steps

        flat = _outcome(run_agt_ram(instance))
        _assert_same(_outcome(SemiDistributedSimulator().run(instance)), flat)
        _assert_same(
            _outcome(run_with_declared_capacities(instance, instance.capacities)),
            flat,
        )
        _assert_same(_outcome(run_agt_ram(instance, engine="naive")), flat)
