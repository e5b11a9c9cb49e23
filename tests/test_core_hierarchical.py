"""Tests for the regional mechanism (paper §7 extension): proximity
partitions and :class:`~repro.runtime.shard.ShardedAGTRam`'s concurrent
regional clearing, region loss and configuration."""

import numpy as np
import pytest

from repro.core.agt_ram import run_agt_ram
from repro.drp.benefit import BenefitEngine
from repro.drp.feasibility import check_state
from repro.errors import ConfigurationError
from repro.runtime.shard import ShardedAGTRam, partition_by_proximity


class TestPartition:
    def test_shape_and_range(self, tiny_instance):
        part = partition_by_proximity(tiny_instance, 4, seed=0)
        assert part.shape == (tiny_instance.n_servers,)
        assert set(np.unique(part)) <= set(range(4))

    def test_all_regions_populated(self, tiny_instance):
        part = partition_by_proximity(tiny_instance, 4, seed=0)
        assert len(np.unique(part)) == 4

    def test_single_region(self, tiny_instance):
        part = partition_by_proximity(tiny_instance, 1, seed=0)
        assert (part == 0).all()

    def test_n_regions_equals_servers(self, tiny_instance):
        m = tiny_instance.n_servers
        part = partition_by_proximity(tiny_instance, m, seed=0)
        assert len(np.unique(part)) == m

    def test_too_many_regions(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            partition_by_proximity(tiny_instance, tiny_instance.n_servers + 1)

    def test_deterministic(self, tiny_instance):
        a = partition_by_proximity(tiny_instance, 3, seed=5)
        b = partition_by_proximity(tiny_instance, 3, seed=5)
        assert np.array_equal(a, b)

    def test_proximity_property(self, tiny_instance):
        # Every server is closer to some member of its own region's seed
        # set than... we verify weak coherence: mean intra-region cost is
        # below mean inter-region cost.
        part = partition_by_proximity(tiny_instance, 4, seed=1)
        c = tiny_instance.cost
        same = part[:, None] == part[None, :]
        off_diag = ~np.eye(len(part), dtype=bool)
        intra = c[same & off_diag].mean()
        inter = c[~same].mean()
        assert intra < inter


class TestConcurrentMode:
    def test_fewer_rounds_than_flat(self, read_heavy_instance):
        flat = run_agt_ram(read_heavy_instance)
        con = ShardedAGTRam(n_regions=4, seed=0).run(read_heavy_instance)
        assert con.rounds < flat.rounds

    def test_quality_close_to_flat(self, read_heavy_instance):
        flat = run_agt_ram(read_heavy_instance)
        con = ShardedAGTRam(n_regions=4, seed=0).run(read_heavy_instance)
        assert con.savings_percent > 0.85 * flat.savings_percent

    def test_state_feasible(self, read_heavy_instance):
        res = ShardedAGTRam(n_regions=4, seed=0).run(read_heavy_instance)
        check_state(res.state)

    def test_region_stats_sum_to_total(self, read_heavy_instance):
        res = ShardedAGTRam(n_regions=4, seed=0).run(read_heavy_instance)
        stats = res.extra["region_stats"]
        assert sum(s.allocations for s in stats.values()) == (
            res.replicas_allocated
        )
        assert sum(s.servers for s in stats.values()) == (
            read_heavy_instance.n_servers
        )
        assert sum(s.payments for s in stats.values()) == pytest.approx(
            res.extra["payments"].sum()
        )


class TestFailureResilience:
    def test_failed_region_abstains(self, read_heavy_instance, region_down):
        part = partition_by_proximity(read_heavy_instance, 4, seed=0)
        res = ShardedAGTRam(
            partition=part, faults=region_down(read_heavy_instance, part, 0)
        ).run(read_heavy_instance)
        dead_servers = np.flatnonzero(part == 0)
        # No replica beyond the primaries was placed in the dead region.
        extra = res.state.x.copy()
        extra[read_heavy_instance.primaries, np.arange(read_heavy_instance.n_objects)] = False
        assert not extra[dead_servers].any()

    def test_degrades_gracefully(self, read_heavy_instance, region_down):
        part = partition_by_proximity(read_heavy_instance, 4, seed=0)
        healthy = ShardedAGTRam(partition=part).run(read_heavy_instance)
        degraded = ShardedAGTRam(
            partition=part, faults=region_down(read_heavy_instance, part, 0)
        ).run(read_heavy_instance)
        assert 0.0 < degraded.savings_percent <= healthy.savings_percent + 1e-9

    def test_all_regions_failed(self, read_heavy_instance, region_down):
        part = partition_by_proximity(read_heavy_instance, 2, seed=0)
        res = ShardedAGTRam(
            partition=part,
            faults=region_down(read_heavy_instance, part, 0, 1),
        ).run(read_heavy_instance)
        assert res.replicas_allocated == 0


class TestConfiguration:
    def test_explicit_partition(self, tiny_instance):
        part = np.arange(tiny_instance.n_servers) % 2
        res = ShardedAGTRam(partition=part).run(tiny_instance)
        assert np.array_equal(res.extra["partition"], part)

    def test_bad_partition_shape(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            ShardedAGTRam(partition=np.zeros(3, dtype=int)).run(tiny_instance)

    def test_max_rounds(self, read_heavy_instance):
        res = ShardedAGTRam(n_regions=4, seed=0, max_rounds=3).run(
            read_heavy_instance
        )
        assert res.rounds == 3


class TestEngineSelector:
    @pytest.mark.parametrize("scenario", ["concurrent", "region-down"])
    def test_naive_and_vectorized_identical(
        self, read_heavy_instance, region_down, scenario, monkeypatch
    ):
        part = partition_by_proximity(read_heavy_instance, 4, seed=0)
        faults = (
            region_down(read_heavy_instance, part, 0)
            if scenario == "region-down"
            else None
        )
        sharded = ShardedAGTRam(partition=part, faults=faults)
        fast = sharded.run(read_heavy_instance)
        # The reference engine, swapped in where the central builds its
        # engines.
        monkeypatch.setattr(
            "repro.runtime.shard.make_local_engine", BenefitEngine
        )
        naive = sharded.run(read_heavy_instance)
        # Same winners, same prices, same placement, bit for bit.
        assert np.array_equal(naive.state.x, fast.state.x)
        assert naive.otc == fast.otc
        assert naive.rounds == fast.rounds
        assert np.array_equal(
            naive.extra["payments"], fast.extra["payments"]
        )
        assert naive.extra["engine"] == "naive"
        assert fast.extra["engine"] == "vectorized"

    def test_bad_engine_rejected(self):
        # Neither valuation takes an engine option: each runs its one
        # engine.
        for valuation in ("local", "regional"):
            with pytest.raises(TypeError, match="engine"):
                ShardedAGTRam(valuation=valuation, engine="turbo")

    def test_cooperative_has_no_vectorized_engine(self, tiny_instance):
        # The label reports the engine that ran: the cooperative game's.
        res = ShardedAGTRam(valuation="regional", seed=0).run(tiny_instance)
        assert res.extra["engine"] == "regional"


class TestRegionTaggedEvents:
    def test_concurrent_rounds_carry_region(self, tiny_instance):
        from repro.obs import events as ev

        with ev.capture() as sink:
            res = ShardedAGTRam(n_regions=4, seed=7).run(tiny_instance)
        part = res.extra["partition"]
        starts = [e for e in sink.events if type(e).type == "round_start"]
        winners = [e for e in sink.events if type(e).type == "winner"]
        assert starts and winners
        regions = {e.region for e in starts}
        assert regions <= set(range(4))
        assert all(e.region >= 0 for e in starts)
        # The tagged winner really lives in the tagged region.
        for e in winners:
            assert int(part[e.agent]) == e.region

    def test_flat_rounds_stay_untagged(self, tiny_instance):
        from repro.obs import events as ev

        with ev.capture() as sink:
            run_agt_ram(tiny_instance)
        starts = [e for e in sink.events if type(e).type == "round_start"]
        assert starts
        assert {e.region for e in starts} == {-1}
