"""Property fuzzing of the protocol simulator's option space.

Random instances x random option combinations (lazy NN cadence, agent
failures, central failure, strategies): whatever the
configuration, the simulator must terminate with a feasible scheme,
non-negative savings for truthful play, and a coherent message log.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import OverProjection, UnderProjection
from repro.drp.feasibility import check_state
from repro.runtime.simulator import SemiDistributedSimulator

from _strategies import drp_instances

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def simulator_options(draw):
    opts = {}
    opts["nn_update_period"] = draw(st.sampled_from([1, 2, 5, 9]))
    if draw(st.booleans()):
        opts["central_failure_round"] = draw(st.integers(0, 5))
    return opts


class TestSimulatorFuzz:
    @given(drp_instances(), simulator_options(), seeds)
    @settings(max_examples=20, deadline=None)
    def test_always_sound(self, inst, opts, seed):
        rng = np.random.default_rng(seed)
        failed = set(
            int(x)
            for x in rng.choice(
                inst.n_servers,
                size=min(inst.n_servers - 1, int(rng.integers(0, 3))),
                replace=False,
            )
        )
        sim = SemiDistributedSimulator(failed_agents=failed, **opts)
        res = sim.run(inst)
        check_state(res.state)
        assert res.savings_percent >= -1e-6
        metrics = res.extra["metrics"]
        # Message-log coherence: one payment per allocation round.
        assert metrics.log.counts.get("PaymentMessage", 0) == metrics.rounds
        assert metrics.log.bytes_total >= 0

    @given(drp_instances(), seeds)
    @settings(max_examples=15, deadline=None)
    def test_strategies_never_break_feasibility(self, inst, seed):
        rng = np.random.default_rng(seed)
        strategies = {}
        for agent in range(0, inst.n_servers, 2):
            strategies[agent] = (
                OverProjection(2.0) if rng.random() < 0.5 else UnderProjection(0.5)
            )
        res = SemiDistributedSimulator(strategies=strategies).run(inst)
        check_state(res.state)

    @given(drp_instances())
    @settings(max_examples=15, deadline=None)
    def test_lazy_nn_matches_eager_replica_budget(self, inst):
        # Lazy views may choose different cells, but both protocols are
        # bounded by the same capacity and only allocate eligible cells.
        eager = SemiDistributedSimulator(nn_update_period=1).run(inst)
        lazy = SemiDistributedSimulator(nn_update_period=7).run(inst)
        cap = inst.replica_headroom().sum()
        for res in (eager, lazy):
            used = (res.state.used - inst.primary_load).sum()
            assert used <= cap
