"""Tests for the semi-distributed simulator."""

import numpy as np
import pytest

from repro.core.agt_ram import run_agt_ram
from repro.core.strategies import OverProjection
from repro.drp.feasibility import check_state
from repro.errors import ConfigurationError
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.simulator import SemiDistributedSimulator


class TestSimulatorEquivalence:
    def test_matches_vectorized_engine(self, tiny_instance):
        sim = SemiDistributedSimulator().run(tiny_instance)
        eng = run_agt_ram(tiny_instance)
        assert np.array_equal(sim.state.x, eng.state.x)
        assert sim.otc == pytest.approx(eng.otc)
        assert sim.rounds == eng.rounds

    def test_matches_with_deviating_agent(self, tiny_instance):
        strategies = {1: OverProjection(2.0)}
        sim = SemiDistributedSimulator(strategies=strategies).run(tiny_instance)
        eng = run_agt_ram(tiny_instance, strategies=strategies)
        assert np.array_equal(sim.state.x, eng.state.x)

    def test_payments_match(self, tiny_instance):
        sim = SemiDistributedSimulator().run(tiny_instance)
        eng = run_agt_ram(tiny_instance)
        assert np.allclose(sim.extra["payments"], eng.extra["payments"])
        assert np.allclose(sim.extra["utilities"], eng.extra["utilities"])

    def test_state_feasible(self, tiny_instance):
        check_state(SemiDistributedSimulator().run(tiny_instance).state)


class TestMessageAccounting:
    def test_message_counts_shape(self, tiny_instance):
        res = SemiDistributedSimulator().run(tiny_instance)
        metrics = res.extra["metrics"]
        counts = metrics.log.counts
        rounds = metrics.rounds
        # One payment per allocation round.
        assert counts["PaymentMessage"] == rounds
        # Broadcast + NN updates fan out to all active agents each round.
        assert counts["AllocateMessage"] == counts["NNUpdateMessage"]
        assert counts["AllocateMessage"] >= rounds
        assert counts["BidMessage"] >= rounds

    def test_bytes_positive(self, tiny_instance):
        res = SemiDistributedSimulator().run(tiny_instance)
        assert res.extra["metrics"].log.bytes_total > 0

    def test_parallel_speedup_reported(self, tiny_instance):
        res = SemiDistributedSimulator().run(tiny_instance)
        m = res.extra["metrics"]
        assert m.parallel_speedup >= 1.0
        assert m.critical_path_work <= m.total_work


class TestRuntimeMetrics:
    def test_record_round_work(self):
        m = RuntimeMetrics()
        m.record_round_work([3, 5, 2])
        m.record_round_work([1])
        assert m.total_work == 11
        assert m.critical_path_work == 6
        assert m.parallel_speedup == pytest.approx(11 / 6)

    def test_empty_round(self):
        m = RuntimeMetrics()
        m.record_round_work([])
        assert m.total_work == 0
        assert m.parallel_speedup == 1.0

    def test_summary_keys(self):
        m = RuntimeMetrics()
        s = m.summary()
        assert {"rounds", "messages", "bytes", "parallel_speedup"} <= set(s)


class TestFailedAgents:
    def test_failed_agents_never_bid(self, tiny_instance):
        import numpy as np

        dead = {0, 1, 2}
        res = SemiDistributedSimulator(failed_agents=dead).run(tiny_instance)
        extra = res.state.x.copy()
        cols = np.arange(tiny_instance.n_objects)
        extra[tiny_instance.primaries, cols] = False
        for agent in dead:
            assert not extra[agent].any()
            assert res.extra["payments"][agent] == 0.0

    def test_survivors_still_allocate(self, read_heavy_instance):
        dead = {0}
        res = SemiDistributedSimulator(failed_agents=dead).run(read_heavy_instance)
        assert res.replicas_allocated > 0
        assert res.savings_percent > 0.0

    def test_all_failed_yields_primaries_only(self, tiny_instance):
        dead = set(range(tiny_instance.n_servers))
        res = SemiDistributedSimulator(failed_agents=dead).run(tiny_instance)
        assert res.replicas_allocated == 0

    def test_degradation_bounded_by_healthy(self, read_heavy_instance):
        healthy = SemiDistributedSimulator().run(read_heavy_instance)
        degraded = SemiDistributedSimulator(failed_agents={0, 1}).run(
            read_heavy_instance
        )
        assert degraded.savings_percent <= healthy.savings_percent + 1e-9


class TestAgentIdValidation:
    """``strategies`` keys (both entry points) and ``failed_agents`` ids
    must be integer server ids in ``[0, M)``: a negative id used to wrap
    around in ``run_agt_ram`` and be ignored by the simulator."""

    BAD_IDS = pytest.mark.parametrize(
        "bad", [-10, "M", 2.5, True], ids=["negative", "M", "float", "bool"]
    )

    @staticmethod
    def _resolve(bad, instance):
        return instance.n_servers if bad == "M" else bad

    @BAD_IDS
    def test_strategy_key_rejected_by_simulator(self, tiny_instance, bad):
        key = self._resolve(bad, tiny_instance)
        sim = SemiDistributedSimulator(strategies={key: OverProjection(3.0)})
        with pytest.raises(ConfigurationError, match="strategies key"):
            sim.run(tiny_instance)

    @BAD_IDS
    def test_strategy_key_rejected_by_run_agt_ram(self, tiny_instance, bad):
        key = self._resolve(bad, tiny_instance)
        with pytest.raises(ConfigurationError, match="strategies key"):
            run_agt_ram(tiny_instance, strategies={key: OverProjection(3.0)})

    @BAD_IDS
    def test_failed_agent_rejected_by_simulator(self, tiny_instance, bad):
        dead = {self._resolve(bad, tiny_instance)}
        with pytest.raises(ConfigurationError, match="failed_agents id"):
            SemiDistributedSimulator(failed_agents=dead).run(tiny_instance)

    def test_numpy_integer_ids_accepted(self, tiny_instance):
        strategies = {np.int64(6): OverProjection(3.0)}
        sim = SemiDistributedSimulator(
            strategies=strategies, failed_agents={np.int64(2)}
        ).run(tiny_instance)
        ref = SemiDistributedSimulator(
            strategies={6: OverProjection(3.0)}, failed_agents={2}
        ).run(tiny_instance)
        np.testing.assert_array_equal(sim.extra["payments"], ref.extra["payments"])
        eng = run_agt_ram(tiny_instance, strategies=strategies)
        ref_eng = run_agt_ram(tiny_instance, strategies={6: OverProjection(3.0)})
        np.testing.assert_array_equal(eng.extra["payments"], ref_eng.extra["payments"])
