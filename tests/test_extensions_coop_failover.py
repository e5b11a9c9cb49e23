"""Tests for the cooperative regional game and central-body failover."""

import numpy as np
import pytest

from repro.core.agt_ram import run_agt_ram
from repro.drp.feasibility import check_state
from repro.drp.global_engine import RegionalBenefitEngine
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.runtime.adversary import AdversaryPlan
from repro.runtime.shard import ShardedAGTRam
from repro.runtime.simulator import SemiDistributedSimulator


class TestRegionalBenefitEngine:
    def test_single_region_equals_global(self, tiny_instance):
        from repro.drp.global_engine import GlobalBenefitEngine

        st1 = ReplicationState.primaries_only(tiny_instance)
        st2 = ReplicationState.primaries_only(tiny_instance)
        regions = np.zeros(tiny_instance.n_servers, dtype=int)
        regional = RegionalBenefitEngine(tiny_instance, st1, regions)
        global_ = GlobalBenefitEngine(tiny_instance, st2)
        assert np.array_equal(regional.matrix, global_.matrix)

    def test_singleton_regions_equal_local(self, tiny_instance):
        from repro.drp.benefit import BenefitEngine

        st1 = ReplicationState.primaries_only(tiny_instance)
        st2 = ReplicationState.primaries_only(tiny_instance)
        regions = np.arange(tiny_instance.n_servers)
        regional = RegionalBenefitEngine(tiny_instance, st1, regions)
        local = BenefitEngine(tiny_instance, st2)
        assert np.allclose(
            np.where(np.isfinite(regional.matrix), regional.matrix, -1),
            np.where(np.isfinite(local.matrix), local.matrix, -1),
        )

    def test_between_local_and_global(self, tiny_instance, rng):
        from repro.drp.benefit import BenefitEngine
        from repro.drp.global_engine import GlobalBenefitEngine

        st = ReplicationState.primaries_only(tiny_instance)
        regions = rng.integers(0, 3, size=tiny_instance.n_servers)
        regional = RegionalBenefitEngine(tiny_instance, st.copy(), regions)
        local = BenefitEngine(tiny_instance, st.copy())
        global_ = GlobalBenefitEngine(tiny_instance, st.copy())
        finite = np.isfinite(local.matrix)
        assert (regional.matrix[finite] >= local.matrix[finite] - 1e-9).all()
        assert (regional.matrix[finite] <= global_.matrix[finite] + 1e-9).all()

    def test_incremental_matches_fresh(self, tiny_instance, rng):
        st = ReplicationState.primaries_only(tiny_instance)
        regions = rng.integers(0, 3, size=tiny_instance.n_servers)
        engine = RegionalBenefitEngine(tiny_instance, st, regions)
        added = 0
        while added < 8:
            i = int(rng.integers(tiny_instance.n_servers))
            k = int(rng.integers(tiny_instance.n_objects))
            if st.can_host(i, k):
                st.add_replica(i, k)
                engine.notify_allocation(i, k)
                added += 1
        fresh = RegionalBenefitEngine(tiny_instance, st, regions)
        feasible = np.isfinite(fresh.matrix)
        assert np.allclose(engine.matrix[feasible], fresh.matrix[feasible])

    def test_bad_regions_shape(self, tiny_instance):
        st = ReplicationState.primaries_only(tiny_instance)
        with pytest.raises(ValueError):
            RegionalBenefitEngine(tiny_instance, st, np.zeros(3, dtype=int))


class TestCooperativeRegionalGame:
    def test_feasible(self, read_heavy_instance):
        res = ShardedAGTRam(n_regions=4, valuation="regional", seed=0).run(
            read_heavy_instance
        )
        check_state(res.state)

    def test_beats_non_cooperative(self, read_heavy_instance):
        # Pooling regional information can only widen what bids see, so
        # cooperative regions capture at least roughly the
        # non-cooperative savings (exact dominance is not guaranteed —
        # allocation order changes — but the trend must hold).
        coop = ShardedAGTRam(n_regions=4, valuation="regional", seed=0).run(
            read_heavy_instance
        )
        solo = ShardedAGTRam(n_regions=4, valuation="local", seed=0).run(
            read_heavy_instance
        )
        assert coop.savings_percent > 0.9 * solo.savings_percent

    def test_bounded_by_flat_oracle(self, read_heavy_instance):
        coop = ShardedAGTRam(n_regions=4, valuation="regional", seed=0).run(
            read_heavy_instance
        )
        oracle = run_agt_ram(read_heavy_instance, valuation="global")
        assert coop.savings_percent <= oracle.savings_percent + 1.0

    def test_label(self, tiny_instance):
        res = ShardedAGTRam(n_regions=2, valuation="regional", seed=0).run(
            tiny_instance
        )
        assert "regional" in res.algorithm

    def test_bad_game(self):
        with pytest.raises(ConfigurationError, match="valuation"):
            ShardedAGTRam(valuation="zero-sum")

    def test_adversary_rejected(self, tiny_instance):
        # The trust boundary re-prices bids with the local engine's
        # value_at, which the regional engine does not offer.
        plan = AdversaryPlan.random(
            n_agents=tiny_instance.n_servers, fraction=0.25, seed=3
        )
        with pytest.raises(ConfigurationError, match="adversary"):
            ShardedAGTRam(valuation="regional", adversary=plan)


class TestCentralFailover:
    def test_scheme_unchanged_by_failover(self, tiny_instance):
        healthy = SemiDistributedSimulator().run(tiny_instance)
        repaired = SemiDistributedSimulator(central_failure_round=3).run(
            tiny_instance
        )
        assert np.array_equal(healthy.state.x, repaired.state.x)
        assert repaired.otc == pytest.approx(healthy.otc)

    def test_handover_recorded(self, tiny_instance):
        res = SemiDistributedSimulator(central_failure_round=3).run(tiny_instance)
        assert res.extra["central_handover_round"] == 3
        assert res.extra["acting_central"] >= 0

    def test_election_messages_logged(self, tiny_instance):
        res = SemiDistributedSimulator(central_failure_round=0).run(tiny_instance)
        counts = res.extra["metrics"].log.counts
        m = tiny_instance.n_servers
        assert counts["ElectionMessage"] == m * (m - 1)

    def test_no_failure_no_election(self, tiny_instance):
        res = SemiDistributedSimulator().run(tiny_instance)
        assert "ElectionMessage" not in res.extra["metrics"].log.counts
        assert res.extra["central_handover_round"] is None

    def test_failover_with_dead_agents(self, tiny_instance):
        res = SemiDistributedSimulator(
            central_failure_round=1, failed_agents={0, 1}
        ).run(tiny_instance)
        # The acting central must be a live agent.
        assert res.extra["acting_central"] not in {0, 1}

    def test_bad_round(self):
        with pytest.raises(ValueError):
            SemiDistributedSimulator(central_failure_round=-1)

    def test_handover_emits_election_event(self, tiny_instance):
        from repro.obs import events as ev

        with ev.capture() as sink:
            res = SemiDistributedSimulator(central_failure_round=2).run(
                tiny_instance
            )
        elections = [
            e for e in sink.events if isinstance(e, ev.ElectionEvent)
        ]
        assert len(elections) == 1
        assert elections[0].round == 2
        assert elections[0].candidate == res.extra["acting_central"]
        assert elections[0].voters == tiny_instance.n_servers

    def test_immediate_failure_elects_lowest_id(self, tiny_instance):
        res = SemiDistributedSimulator(central_failure_round=0).run(
            tiny_instance
        )
        assert res.extra["central_handover_round"] == 0
        assert res.extra["acting_central"] == 0

    def test_failed_agents_with_immediate_central_failure(self, tiny_instance):
        # Both legacy fault knobs at once: dead agents sit out the
        # election and the game; the lowest *live* id takes over.
        healthy = SemiDistributedSimulator(failed_agents={0, 1}).run(
            tiny_instance
        )
        res = SemiDistributedSimulator(
            central_failure_round=0, failed_agents={0, 1}
        ).run(tiny_instance)
        assert res.extra["acting_central"] == 2
        m = tiny_instance.n_servers
        live = m - 2
        assert res.extra["metrics"].log.counts["ElectionMessage"] == live * (
            live - 1
        )
        # The handover itself must not change the outcome.
        assert np.array_equal(healthy.state.x, res.state.x)
        # Dead agents never receive replicas beyond their primaries.
        primaries_per_agent = np.bincount(
            tiny_instance.primaries, minlength=m
        )
        for dead in (0, 1):
            assert res.state.x[dead].sum() == primaries_per_agent[dead]

    def test_all_agents_failed_with_central_failure(self, tiny_instance):
        # Degenerate combination: nobody is left to elect or bid; the
        # run terminates immediately on the primaries-only scheme.
        res = SemiDistributedSimulator(
            central_failure_round=0,
            failed_agents=set(range(tiny_instance.n_servers)),
        ).run(tiny_instance)
        assert res.rounds == 0
        assert res.extra["central_handover_round"] is None
        assert "ElectionMessage" not in res.extra["metrics"].log.counts

    def test_scheduled_central_crash_matches_legacy_knob_scheme(
        self, tiny_instance
    ):
        # The legacy knob and the fault-schedule path recover through
        # the same election protocol and converge to the same scheme.
        from repro.runtime.faults import FaultPlan, FaultSchedule

        legacy = SemiDistributedSimulator(central_failure_round=3).run(
            tiny_instance
        )
        scheduled = SemiDistributedSimulator(
            faults=FaultPlan(schedule=FaultSchedule(central_crashes={3}))
        ).run(tiny_instance)
        assert np.array_equal(legacy.state.x, scheduled.state.x)
        assert scheduled.extra["acting_central"] == legacy.extra[
            "acting_central"
        ]
