"""Tests for the AGT-RAM mechanism (Figure 2)."""

import numpy as np
import pytest

from repro.core.agt_ram import AGTRam, run_agt_ram
from repro.core.strategies import OverProjection, UnderProjection
from repro.drp.cost import primary_only_otc, total_otc
from repro.drp.feasibility import check_state
from repro.errors import ConfigurationError


class TestBasicRun:
    def test_reduces_otc(self, read_heavy_instance):
        res = run_agt_ram(read_heavy_instance)
        assert res.otc < primary_only_otc(read_heavy_instance)
        assert res.savings_percent > 10.0

    def test_final_state_feasible(self, read_heavy_instance):
        check_state(run_agt_ram(read_heavy_instance).state)

    def test_rounds_equal_replicas(self, read_heavy_instance):
        res = run_agt_ram(read_heavy_instance)
        assert res.rounds == res.replicas_allocated

    def test_deterministic(self, tiny_instance):
        a = run_agt_ram(tiny_instance)
        b = run_agt_ram(tiny_instance)
        assert np.array_equal(a.state.x, b.state.x)
        assert a.otc == b.otc

    def test_line_instance_exact(self, line_instance):
        # Round 1: best bid is server 2 / object 0 (value 10).
        res = run_agt_ram(line_instance, record_audit=True)
        first = res.extra["audit"].rounds[0]
        assert (first.winner, first.obj) == (2, 0)
        assert first.true_value == pytest.approx(10.0)

    def test_every_allocation_positive_local_benefit(self, tiny_instance):
        res = run_agt_ram(tiny_instance, record_audit=True)
        for rec in res.extra["audit"].rounds:
            if rec.winner >= 0:
                assert rec.true_value > 0.0

    def test_monotone_otc_decrease(self, tiny_instance):
        # Local benefit is a lower bound on global benefit, so every
        # accepted allocation strictly reduces OTC.
        from repro.drp.state import ReplicationState

        res = run_agt_ram(tiny_instance, record_audit=True)
        st = ReplicationState.primaries_only(tiny_instance)
        last = total_otc(st)
        for rec in res.extra["audit"].rounds:
            if rec.winner < 0:
                continue
            st.add_replica(rec.winner, rec.obj)
            cur = total_otc(st)
            assert cur < last
            last = cur

    def test_max_rounds_cap(self, read_heavy_instance):
        res = run_agt_ram(read_heavy_instance, max_rounds=5)
        assert res.rounds == 5
        assert res.replicas_allocated == 5

    def test_write_heavy_few_allocations(self, write_heavy_instance):
        res = run_agt_ram(write_heavy_instance)
        # Local CoR is rarely positive under heavy writes.
        assert res.replicas_allocated < write_heavy_instance.n_objects

    def test_payments_nonnegative(self, read_heavy_instance):
        res = run_agt_ram(read_heavy_instance)
        assert (res.extra["payments"] >= 0).all()

    def test_truthful_utilities_nonnegative(self, read_heavy_instance):
        # Under second price and truthful play, every winner's per-round
        # utility is >= 0, so aggregates are too.
        res = run_agt_ram(read_heavy_instance)
        assert (res.extra["utilities"] >= -1e-9).all()


class TestConfiguration:
    def test_bad_payment_rule(self):
        with pytest.raises(ConfigurationError):
            AGTRam(payment_rule="third_price")

    def test_bad_valuation(self):
        with pytest.raises(ConfigurationError):
            AGTRam(valuation="psychic")

    def test_bad_max_rounds(self):
        with pytest.raises(ConfigurationError):
            AGTRam(max_rounds=-1)


def _capped_runs(instance):
    """Every entry point that takes a ``max_rounds`` cap, as ``cap -> run``."""
    from repro.runtime.shard import ShardedAGTRam

    return {
        "AGTRam": lambda cap: AGTRam(max_rounds=cap).run(instance),
        "run_agt_ram": lambda cap: run_agt_ram(instance, max_rounds=cap),
        "ShardedAGTRam": lambda cap: ShardedAGTRam(max_rounds=cap, seed=0).run(
            instance
        ),
    }


ENTRY_POINTS = ("AGTRam", "run_agt_ram", "ShardedAGTRam")
NOT_COUNTS = [-1, 2.5, 3.0, True]


class TestIntegerKnobs:
    """``max_rounds`` and ``batch_size`` are counts: floats, bools and
    negatives are configuration errors, numpy integers are counts."""

    @pytest.mark.parametrize("bad", NOT_COUNTS, ids=repr)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_max_rounds_rejects_non_counts(self, tiny_instance, entry, bad):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            _capped_runs(tiny_instance)[entry](bad)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_max_rounds_accepts_numpy_integers(self, tiny_instance, entry):
        run = _capped_runs(tiny_instance)[entry]
        res = run(np.int64(3))
        assert 0 < res.rounds <= 3
        assert res.state.x.tobytes() == run(3).state.x.tobytes()

    @pytest.mark.parametrize("bad", NOT_COUNTS + [0, 4.0], ids=repr)
    def test_batch_size_rejects_non_counts(self, bad):
        with pytest.raises(ConfigurationError, match="batch_size"):
            AGTRam(batch_size=bad)

    def test_batch_size_accepts_numpy_integers(self, tiny_instance):
        res = AGTRam(batch_size=np.int64(4)).run(tiny_instance)
        ref = AGTRam(batch_size=4).run(tiny_instance)
        assert res.state.x.tobytes() == ref.state.x.tobytes()
        assert res.rounds == ref.rounds


class TestGlobalValuationAblation:
    def test_global_oracle_at_least_as_good(self, read_heavy_instance):
        local = run_agt_ram(read_heavy_instance, valuation="local")
        glob = run_agt_ram(read_heavy_instance, valuation="global")
        assert glob.savings_percent >= local.savings_percent - 1e-9

    def test_global_matches_greedy_quality(self, tiny_instance):
        # Global-oracle AGT-RAM picks the argmax ΔOTC each round — the
        # same choice rule as Greedy — so the final OTC must match.
        from repro.baselines.greedy import GreedyPlacer

        glob = run_agt_ram(tiny_instance, valuation="global")
        greedy = GreedyPlacer().place(tiny_instance)
        assert glob.otc == pytest.approx(greedy.otc)

    def test_algorithm_label(self, tiny_instance):
        assert run_agt_ram(tiny_instance, valuation="global").algorithm == (
            "AGT-RAM(global)"
        )


class TestStrategicAgents:
    def test_over_projection_changes_nothing_or_loses(self, tiny_instance):
        base = run_agt_ram(tiny_instance)
        for agent in range(0, tiny_instance.n_servers, 5):
            dev = run_agt_ram(
                tiny_instance, strategies={agent: OverProjection(3.0)}
            )
            assert (
                dev.extra["utilities"][agent]
                <= base.extra["utilities"][agent] + 1e-9
            )

    def test_under_projection_never_gains(self, tiny_instance):
        base = run_agt_ram(tiny_instance)
        for agent in range(0, tiny_instance.n_servers, 5):
            dev = run_agt_ram(
                tiny_instance, strategies={agent: UnderProjection(0.3)}
            )
            assert (
                dev.extra["utilities"][agent]
                <= base.extra["utilities"][agent] + 1e-9
            )

    def test_deviation_hurts_system(self, read_heavy_instance):
        # Widespread under-projection suppresses allocations and system
        # savings (the mechanism's own argument for truthfulness).
        strategies = {
            i: UnderProjection(0.1) for i in range(read_heavy_instance.n_servers)
        }
        base = run_agt_ram(read_heavy_instance)
        dev = run_agt_ram(read_heavy_instance, strategies=strategies)
        assert dev.replicas_allocated <= base.replicas_allocated
