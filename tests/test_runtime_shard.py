"""Tests for the partition-tolerant sharded central (repro.runtime.shard)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drp.benefit import BenefitEngine
from repro.drp.delta import make_local_engine
from repro.drp.feasibility import check_state
from repro.drp.instance import DRPInstance
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs.audit import audit_sharded_events
from repro.runtime.adversary import AdversaryPlan, AdversarySpec
from repro.runtime import scenario, shard
from repro.runtime.messages import BidMessage
from repro.runtime.shard import (
    PartitionSchedule,
    PartitionWindow,
    ShardAllocation,
    ShardedAGTRam,
    central_id,
    partition_by_proximity,
    reconcile_divergence,
)

from _strategies import drp_instances


# -- schedule data model -----------------------------------------------------


class TestPartitionWindow:
    def test_validates_bounds(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=5, end=5, islands=(0, 1))
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=-1, end=3, islands=(0, 1))

    def test_requires_dense_islands(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=0, end=3, islands=(0, 2))

    def test_requires_a_real_split(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=0, end=3, islands=(0, 0, 0))
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=0, end=3, islands=())

    def test_round_trips_through_dict(self):
        w = PartitionWindow(start=2, end=9, islands=(0, 1, 0, 1))
        assert PartitionWindow.from_dict(w.to_dict()) == w
        json.dumps(w.to_dict())


class TestPartitionSchedule:
    def test_null_is_null(self):
        plan = PartitionSchedule.null(4)
        assert plan.is_null
        assert plan.n_regions == 4
        assert not plan.windows

    def test_rejects_overlapping_windows(self):
        w1 = PartitionWindow(start=0, end=5, islands=(0, 1))
        w2 = PartitionWindow(start=3, end=8, islands=(0, 1))
        with pytest.raises(ConfigurationError):
            PartitionSchedule(n_regions=2, windows=(w1, w2))

    def test_rejects_region_count_mismatch(self):
        w = PartitionWindow(start=0, end=5, islands=(0, 1))
        with pytest.raises(ConfigurationError):
            PartitionSchedule(n_regions=3, windows=(w,))

    def test_rejects_out_of_range_crash(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule(n_regions=2, central_crashes=((3, 7),))

    def test_windows_are_sorted(self):
        w1 = PartitionWindow(start=10, end=12, islands=(0, 1))
        w2 = PartitionWindow(start=0, end=5, islands=(1, 0))
        plan = PartitionSchedule(n_regions=2, windows=(w1, w2))
        assert [w.start for w in plan.windows] == [0, 10]

    def test_random_is_deterministic(self):
        kw = dict(
            n_regions=4, horizon=60, seed=9, partition_fraction=0.4,
            crash_rate=0.05,
        )
        a = PartitionSchedule.random(**kw)
        b = PartitionSchedule.random(**kw)
        assert a == b
        assert a.windows, "fraction 0.4 over 60 rounds should partition"

    def test_random_respects_zero_fraction(self):
        plan = PartitionSchedule.random(
            n_regions=4, horizon=60, seed=9, partition_fraction=0.0
        )
        assert not plan.windows

    def test_random_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule.random(
                n_regions=4, horizon=10, partition_fraction=1.5
            )
        with pytest.raises(ConfigurationError):
            PartitionSchedule.random(
                n_regions=1, horizon=10, partition_fraction=0.5
            )
        with pytest.raises(ConfigurationError):
            PartitionSchedule.random(n_regions=4, horizon=10, crash_rate=2.0)

    def test_json_round_trip(self):
        plan = PartitionSchedule.random(
            n_regions=4, horizon=80, seed=3, partition_fraction=0.5,
            crash_rate=0.02,
        )
        blob = json.dumps(plan.to_dict())
        assert PartitionSchedule.from_dict(json.loads(blob)) == plan


NOT_REGION_COUNTS = [2.5, True, np.float64(3.0)]


class TestRegionCounts:
    """Region counts and labels are integers: a float or a bool is a
    configuration error, never silently rounded or truncated."""

    @pytest.mark.parametrize("bad", NOT_REGION_COUNTS, ids=repr)
    def test_non_integer_counts_rejected(self, tiny_instance, bad):
        with pytest.raises(ConfigurationError, match="n_regions"):
            partition_by_proximity(tiny_instance, bad)
        with pytest.raises(ConfigurationError, match="n_regions"):
            ShardedAGTRam(n_regions=bad)
        with pytest.raises(ConfigurationError, match="n_regions"):
            PartitionSchedule(n_regions=bad)
        with pytest.raises(ConfigurationError, match="n_regions"):
            PartitionSchedule.from_dict({"n_regions": bad})

    def test_numpy_integer_counts_accepted(self, tiny_instance):
        part = partition_by_proximity(tiny_instance, np.int64(3), seed=0)
        assert set(np.unique(part)) == {0, 1, 2}
        assert PartitionSchedule(n_regions=np.int64(3)).to_dict()[
            "n_regions"
        ] == 3

    def test_non_integer_partition_labels_rejected(self, tiny_instance):
        labels = np.arange(tiny_instance.n_servers) % 2
        with pytest.raises(ConfigurationError, match="integer"):
            ShardedAGTRam(partition=labels + 0.7).run(tiny_instance)
        with pytest.raises(ConfigurationError, match="integer"):
            ShardedAGTRam(partition=labels.astype(bool)).run(tiny_instance)


# -- reconciliation (pure) ---------------------------------------------------


def _commit(region, server, obj, value, rnd=0, payment=0.0):
    return ShardAllocation(
        region=region, server=server, obj=obj, value=value,
        payment=payment, round=rnd,
    )


class TestReconcileDivergence:
    ISLANDS = {0: 0, 1: 0, 2: 1, 3: 1}

    def test_single_island_never_conflicts(self):
        commits = [_commit(0, 1, 7, 5.0), _commit(1, 2, 7, 9.0)]
        out = reconcile_divergence(commits, self.ISLANDS)
        assert out.conflicts == ()
        assert out.revoked == ()

    def test_highest_value_wins(self):
        commits = [_commit(0, 1, 7, 5.0), _commit(2, 4, 7, 9.0)]
        out = reconcile_divergence(commits, self.ISLANDS)
        assert out.conflicts == (7,)
        assert out.kept[0].server == 4
        assert [c.server for c in out.revoked] == [1]

    def test_value_tie_breaks_to_lowest_server(self):
        commits = [_commit(2, 4, 7, 5.0), _commit(0, 1, 7, 5.0)]
        out = reconcile_divergence(commits, self.ISLANDS)
        assert out.kept[0].server == 1

    def test_uncontested_commits_untouched(self):
        commits = [
            _commit(0, 1, 7, 5.0),
            _commit(2, 4, 7, 9.0),
            _commit(3, 5, 8, 2.0),
        ]
        out = reconcile_divergence(commits, self.ISLANDS)
        assert out.conflicts == (7,)
        assert all(c.obj == 7 for c in out.kept + out.revoked)


class TestReconcileProperties:
    @staticmethod
    @st.composite
    def commit_sets(draw):
        n_regions = draw(st.integers(min_value=2, max_value=4))
        islands = {
            r: draw(st.integers(min_value=0, max_value=1))
            for r in range(n_regions)
        }
        n = draw(st.integers(min_value=0, max_value=12))
        commits = []
        used = set()
        for i in range(n):
            region = draw(st.integers(min_value=0, max_value=n_regions - 1))
            server = draw(st.integers(min_value=0, max_value=7))
            obj = draw(st.integers(min_value=0, max_value=4))
            if (server, obj) in used:
                continue
            used.add((server, obj))
            value = float(
                draw(st.integers(min_value=1, max_value=100))
            )
            commits.append(_commit(region, server, obj, value, rnd=i))
        return commits, islands

    @settings(max_examples=60, deadline=None)
    @given(data=commit_sets())
    def test_order_independent(self, data):
        commits, islands = data
        out1 = reconcile_divergence(commits, islands)
        out2 = reconcile_divergence(list(reversed(commits)), islands)
        assert out1 == out2

    @settings(max_examples=60, deadline=None)
    @given(data=commit_sets())
    def test_idempotent(self, data):
        commits, islands = data
        out = reconcile_divergence(commits, islands)
        revoked = set(out.revoked)
        survivors = [c for c in commits if c not in revoked]
        again = reconcile_divergence(survivors, islands)
        assert again.conflicts == ()
        assert again.revoked == ()

    @settings(max_examples=60, deadline=None)
    @given(data=commit_sets())
    def test_one_survivor_per_conflict(self, data):
        commits, islands = data
        out = reconcile_divergence(commits, islands)
        assert len(out.kept) == len(out.conflicts)
        for winner in out.kept:
            group = [c for c in commits if c.obj == winner.obj]
            assert winner.value == max(c.value for c in group)
        # kept and revoked partition the contested commits exactly.
        contested = [c for c in commits if c.obj in set(out.conflicts)]
        assert sorted(
            (c.server, c.obj) for c in out.kept + out.revoked
        ) == sorted((c.server, c.obj) for c in contested)


class TestPartitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        instance=drp_instances(),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_proximity_partition_is_a_true_partition(self, instance, k, seed):
        k = min(k, instance.n_servers)
        part = partition_by_proximity(instance, k, seed=seed)
        # Every server in exactly one region, region ids dense from 0,
        # every region populated, and the labels are a pure function of
        # the seed.
        assert part.shape == (instance.n_servers,)
        assert set(np.unique(part)) == set(range(k))
        again = partition_by_proximity(instance, k, seed=seed)
        assert np.array_equal(part, again)


# -- healthy runs ------------------------------------------------------------


def _run_digest(runner, instance) -> str:
    """sha256 of a run's event stream under ``logical_time()`` (run
    labels stripped), its placement bytes and its payment bytes."""
    with ev.capture() as sink, ev.logical_time():
        result = runner.run(instance)
    stream = [e.to_dict() for e in sink.events]
    for d in stream:
        if d["type"] in ("run_start", "run_end"):
            d.pop("algorithm", None)
    h = hashlib.sha256(json.dumps(stream, sort_keys=True).encode())
    h.update(result.state.x.tobytes())
    h.update(np.asarray(result.extra["payments"], dtype=np.float64).tobytes())
    return h.hexdigest()


#: Recorded from the two-level regional mechanism this class replaced:
#: its concurrent mode (k=4, partition seed 7, ``tiny_instance``), its
#: cooperative regional game and its failed-region option (region 0
#: down; both k=4, seed 0, ``read_heavy_instance``).
HIERARCHICAL_PINS = {
    "concurrent": "525b77deeb3737efe04b6dd5f899a82fc4f6de57e896295aa3a5351369029d79",
    "cooperative": "ad4e062f0438a701603bd1aa51975185d041e80d44f958a75b31c3ed9a2e8eb1",
    "region-down": "f2da80818a60a3e51614925ee45c71c6cb8f1f15d1bc5bcb6ae15060fb16d0c4",
}


class TestNullEquivalence:
    def test_matches_hierarchical_concurrent(self, tiny_instance):
        digest = _run_digest(ShardedAGTRam(n_regions=4, seed=7), tiny_instance)
        assert digest == HIERARCHICAL_PINS["concurrent"]

    def test_matches_hierarchical_cooperative(self, read_heavy_instance):
        digest = _run_digest(
            ShardedAGTRam(n_regions=4, seed=0, valuation="regional"),
            read_heavy_instance,
        )
        assert digest == HIERARCHICAL_PINS["cooperative"]

    def test_matches_hierarchical_region_down(
        self, read_heavy_instance, region_down
    ):
        part = partition_by_proximity(read_heavy_instance, 4, seed=0)
        digest = _run_digest(
            ShardedAGTRam(
                partition=part,
                faults=region_down(read_heavy_instance, part, 0),
            ),
            read_heavy_instance,
        )
        assert digest == HIERARCHICAL_PINS["region-down"]

    def test_null_plan_byte_identical_to_no_plan(self, tiny_instance):
        def run(plan):
            with ev.capture() as sink, ev.logical_time():
                result = ShardedAGTRam(
                    n_regions=4, seed=7, plan=plan
                ).run(tiny_instance)
            return result, [e.to_dict() for e in sink.events]

        plain, plain_events = run(None)
        null, null_events = run(PartitionSchedule.null(4))
        assert null_events == plain_events
        assert null.extra["messages"] == plain.extra["messages"]
        assert null.extra["message_bytes"] == plain.extra["message_bytes"]
        assert np.array_equal(null.state.x, plain.state.x)

    def test_sharded_audit_passes(self, tiny_instance):
        with ev.capture() as sink, ev.logical_time():
            ShardedAGTRam(n_regions=4, seed=7).run(tiny_instance)
        report = audit_sharded_events(sink.events)
        assert report.ok, report.summary()
        assert report.partitions_seen == 0

    def test_engine_choice_is_invisible(self, tiny_instance, monkeypatch):
        fast = ShardedAGTRam(n_regions=4, seed=7).run(tiny_instance)
        # The reference engine, swapped in where the central builds its
        # engines (start, fork, heal).
        monkeypatch.setattr(
            "repro.runtime.shard.make_local_engine", BenefitEngine
        )
        naive = ShardedAGTRam(n_regions=4, seed=7).run(tiny_instance)
        assert np.array_equal(naive.state.x, fast.state.x)
        assert naive.extra["payments"] == pytest.approx(
            fast.extra["payments"]
        )
        assert naive.extra["engine"] == "naive"
        assert fast.extra["engine"] == "vectorized"

    def test_bad_engine_rejected(self):
        # The central runs the production engine; it takes no option.
        with pytest.raises(TypeError, match="engine"):
            ShardedAGTRam(engine="turbo")


def _honest_armed_run(instance, **kw):
    """A sharded run with the trust boundary armed but no lie told: the
    plan's only attacker waits for a round the run never reaches, so
    every bid is its sender's honest round-start valuation."""
    plan = AdversaryPlan(
        agents={0: AdversarySpec("inflate")}, window=(10**6, 10**6 + 1)
    )
    with ev.logical_time(), ev.capture(ev.RecordingSink()) as sink:
        result = ShardedAGTRam(adversary=plan, **kw).run(instance)
    return result, sink.events


class TestRoundStartScreening:
    """Regions clear one after another on a shared state, but every
    region's bids come from the island's round-start view, and the trust
    boundary must re-price them on that view."""

    def test_bid_on_an_object_an_earlier_region_placed_is_not_flagged(
        self, read_heavy_instance
    ):
        half = read_heavy_instance.n_servers // 2
        part = np.repeat([0, 1], half)
        _, events = _honest_armed_run(
            read_heavy_instance, partition=part, seed=0
        )
        # Region 0 commits object k, then region 1 (which clears after
        # it in the same round) screens an honest bid for k: the commit
        # moved k's NN column, so the live state prices that bid lower
        # than the view it was made from.
        won = {
            (e.round, e.obj)
            for e in events
            if isinstance(e, ev.WinnerEvent) and e.region == 0
        }
        later = [
            e for e in events
            if isinstance(e, ev.BidEvent)
            and e.region == 1
            and (e.round, e.obj) in won
        ]
        assert later, "no region-1 bid for an object region 0 just placed"
        flagged = [e for e in events if isinstance(e, ev.ManipulationEvent)]
        assert flagged == []

    @pytest.mark.parametrize("regions", [2, 4])
    def test_engines_agree_under_an_armed_boundary(
        self, read_heavy_instance, regions, monkeypatch
    ):
        """The naive engine's cached matrix is the round-start view until
        the round ends; the delta engine reads the live state.  Screening
        on the round-start view makes the two runs one stream."""

        def digest():
            result, events = _honest_armed_run(
                read_heavy_instance, n_regions=regions, seed=0
            )
            h = hashlib.sha256()
            for e in events:
                h.update(json.dumps(e.to_dict(), sort_keys=True).encode())
            h.update(np.asarray(result.extra["payments"]).tobytes())
            return h.hexdigest()

        vectorized = digest()
        monkeypatch.setattr(
            "repro.runtime.shard.make_local_engine", BenefitEngine
        )
        assert digest() == vectorized


class TestQuiescence:
    def test_message_reduction_vs_flat(self, tiny_instance):
        from repro.runtime.simulator import SemiDistributedSimulator

        flat = SemiDistributedSimulator().run(tiny_instance)
        flat_msgs = sum(flat.extra["metrics"].log.counts.values())
        sharded = ShardedAGTRam(n_regions=8, seed=2007).run(tiny_instance)
        assert sharded.otc == pytest.approx(flat.otc)
        # The acceptance bar: the sharded protocol halves the traffic.
        assert flat_msgs / sharded.extra["messages"] >= 2.0

    def test_quiescent_regions_send_no_bids(self, tiny_instance):
        result = ShardedAGTRam(
            n_regions=8, seed=2007, keep_messages=True
        ).run(tiny_instance)
        part = result.extra["partition"]
        stats = result.extra["region_stats"]
        active_rows = {
            a
            for a in range(tiny_instance.n_servers)
            if stats[int(part[a])].allocations > 0
        }
        senders = {
            m.sender
            for m in result.extra["message_log"].messages
            if isinstance(m, BidMessage)
        }
        assert senders, "somebody must have bid"
        assert senders <= active_rows


# -- partitioned runs --------------------------------------------------------


@pytest.fixture()
def conflict_instance() -> DRPInstance:
    """Two 2-server clusters (intra cost 1, cross cost 10) that both
    want object 0 during a split: server 2's benefit dwarfs the rest,
    so reconciliation must keep (2, 0) and revoke the islands' other
    commits of object 0."""
    cost = np.array(
        [
            [0.0, 1.0, 10.0, 10.0],
            [1.0, 0.0, 10.0, 10.0],
            [10.0, 10.0, 0.0, 1.0],
            [10.0, 10.0, 1.0, 0.0],
        ]
    )
    reads = np.array([[0, 0], [30, 0], [40, 0], [20, 0]])
    writes = np.zeros((4, 2), dtype=np.int64)
    return DRPInstance(
        cost=cost,
        reads=reads,
        writes=writes,
        sizes=np.array([1, 1]),
        capacities=np.array([3, 3, 3, 3]),
        primaries=np.array([0, 0]),
        name="conflict",
    )


SPLIT = PartitionSchedule(
    n_regions=2,
    windows=(PartitionWindow(start=0, end=10, islands=(0, 1)),),
)
TWO_REGIONS = np.array([0, 0, 1, 1])


class TestSplitBrainReconciliation:
    def run_split(self, instance):
        with ev.capture() as sink, ev.logical_time():
            result = ShardedAGTRam(
                partition=TWO_REGIONS, plan=SPLIT
            ).run(instance)
        return result, sink

    def test_conflict_detected_and_revoked(self, conflict_instance):
        result, _ = self.run_split(conflict_instance)
        assert result.extra["conflicts"] == 1
        assert result.extra["revocations"] == 2
        assert result.extra["refunded_capacity"] == 2
        assert result.extra["reauctioned"] == [0]
        assert result.extra["windows"] == 1
        assert result.extra["heals"] == 1

    def test_merged_placement_matches_unpartitioned(self, conflict_instance):
        result, _ = self.run_split(conflict_instance)
        base = ShardedAGTRam(partition=TWO_REGIONS).run(conflict_instance)
        # Revoked replicas are re-auctioned post-heal, so the healed
        # market converges to the unpartitioned placement.
        assert np.array_equal(result.state.x, base.state.x)
        assert result.otc == pytest.approx(base.otc)
        check_state(result.state)

    def test_no_double_allocation_and_feasible(self, conflict_instance):
        result, _ = self.run_split(conflict_instance)
        assert result.state.x.max() <= 1
        check_state(result.state)

    def test_reconcile_event_declares_everything(self, conflict_instance):
        _, sink = self.run_split(conflict_instance)
        by_type = {}
        for e in sink.events:
            by_type.setdefault(type(e).type, []).append(e)
        assert len(by_type["partition"]) == 1
        assert len(by_type["heal"]) == 1
        assert len(by_type["reconcile"]) == 1
        rec = by_type["reconcile"][0]
        assert rec.conflicts == (0,)
        assert rec.kept == ((2, 0),)
        assert rec.revoked == ((1, 0), (3, 0))
        assert rec.reauctioned == (0,)
        heal = by_type["heal"][0]
        assert heal.islands == (0, 1)
        assert heal.divergent == 3

    def test_revoked_payments_are_clawed_back(self, conflict_instance):
        result, _ = self.run_split(conflict_instance)
        base = ShardedAGTRam(partition=TWO_REGIONS).run(conflict_instance)
        # After refunds + re-auction the books match the unpartitioned
        # run's payments.
        assert result.extra["payments"] == pytest.approx(
            base.extra["payments"]
        )
        assert result.extra["refunded_payment"] >= 0.0

    def test_sharded_audit_verifies_the_merge(self, conflict_instance):
        _, sink = self.run_split(conflict_instance)
        report = audit_sharded_events(sink.events)
        assert report.ok, report.summary()
        assert report.partitions_seen == 1
        assert report.revocations_seen == 2

    def test_audit_catches_undeclared_divergence(self, conflict_instance):
        _, sink = self.run_split(conflict_instance)
        tampered = [
            e for e in sink.events if type(e).type != "reconcile"
        ]
        report = audit_sharded_events(tampered)
        assert not report.ok
        assert any(
            "heal without a reconcile" in v.detail
            for v in report.cross_violations
        )

    def test_audit_catches_false_declaration(self, conflict_instance):
        _, sink = self.run_split(conflict_instance)
        doctored = []
        for e in sink.events:
            if type(e).type == "reconcile":
                # Claim the loser won: the independent re-derivation
                # inside the audit must disagree.
                e = ev.ReconcileEvent(
                    t=e.t, round=e.round, conflicts=e.conflicts,
                    kept=((1, 0),), revoked=((2, 0), (3, 0)),
                    refunded_capacity=e.refunded_capacity,
                    refunded_payment=e.refunded_payment,
                    reauctioned=e.reauctioned,
                )
            doctored.append(e)
        report = audit_sharded_events(doctored)
        assert not report.ok


class TestPartitionedCampaignRuns:
    def test_random_partition_run_is_sound(self, tiny_instance):
        base = ShardedAGTRam(n_regions=8, seed=2007).run(tiny_instance)
        plan = PartitionSchedule.random(
            n_regions=8, horizon=max(1, base.rounds), seed=2007,
            partition_fraction=0.5, crash_rate=0.01,
        )
        with ev.capture() as sink, ev.logical_time():
            result = ShardedAGTRam(
                n_regions=8, seed=2007, plan=plan
            ).run(tiny_instance)
        check_state(result.state)
        assert result.extra["windows"] >= 1
        assert result.extra["heals"] == result.extra["windows"]
        report = audit_sharded_events(sink.events)
        assert report.ok, report.summary()
        assert result.otc == pytest.approx(base.otc)

    def test_run_is_deterministic(self, tiny_instance):
        plan = PartitionSchedule.random(
            n_regions=4, horizon=20, seed=5, partition_fraction=0.4
        )

        def run():
            with ev.capture() as sink, ev.logical_time():
                ShardedAGTRam(
                    n_regions=4, seed=7, plan=plan
                ).run(tiny_instance)
            return [e.to_dict() for e in sink.events]

        assert run() == run()

    def test_plan_region_mismatch_rejected(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            ShardedAGTRam(
                n_regions=4, seed=7, plan=PartitionSchedule.null(5)
            ).run(tiny_instance)


def _composed_showcase() -> scenario.Scenario:
    """``showcase`` at 160x800 over eight regions, seed 23: every plane
    at once, with many partition forks."""
    return dataclasses.replace(
        scenario.CATALOG["showcase"],
        name="composed",
        seed=23,
        servers=160,
        objects=800,
        requests=400_000,
        regions=8,
        horizon=1000,
        n_requests=20_000,
        faults=scenario.FaultPlane(
            crash_rate=0.02,
            straggler_rate=0.02,
            serving_crash_rate=0.01,
            serving_straggler_rate=0.02,
        ),
        adversary=scenario.AdversaryPlane(fraction=0.125),
        partition=scenario.PartitionPlane(
            fraction=0.3, mean_width=6.0, crash_rate=0.02
        ),
    )


class TestForkStart:
    def test_forked_engines_start_from_the_bests_a_sweep_gives(
        self, monkeypatch
    ):
        sc = _composed_showcase()
        mat = scenario.materialize(sc)
        forks = []

        def checked(instance, state, start=None):
            engine = make_local_engine(instance, state, start)
            if start is not None:
                swept = make_local_engine(instance, state).best_view()
                got = engine.best_view()
                forks.append(
                    all(a.tobytes() == b.tobytes() for a, b in zip(got, swept))
                )
            return engine

        monkeypatch.setattr(shard, "make_local_engine", checked)
        ShardedAGTRam(
            n_regions=sc.regions,
            plan=mat.partition,
            faults=mat.fault_plan,
            adversary=mat.adversary,
            quarantine=mat.quarantine,
            seed=mat.shard_seed,
        ).run(mat.instance)
        assert len(forks) > 10
        assert all(forks)


class TestRegionalCrash:
    def test_crash_elects_and_recovers(self, conflict_instance):
        plan = PartitionSchedule(
            n_regions=2, central_crashes=((0, 1), (1, 0))
        )
        with ev.capture() as sink, ev.logical_time():
            result = ShardedAGTRam(
                partition=TWO_REGIONS, plan=plan
            ).run(conflict_instance)
        assert result.extra["crashes_injected"] == 2
        assert result.extra["elections"] == 2
        assert result.extra["recoveries"] == 2
        check_state(result.state)
        kinds = [type(e).type for e in sink.events]
        assert kinds.count("election") == 2
        assert kinds.count("recovery") == 2
        faults = [e for e in sink.events if type(e).type == "fault"]
        assert {f.kind for f in faults} == {"central_crash"}
        # A stalled round delays but does not change the outcome.
        base = ShardedAGTRam(partition=TWO_REGIONS).run(conflict_instance)
        assert np.array_equal(result.state.x, base.state.x)

    def test_crash_log_passes_sharded_audit(self, conflict_instance):
        plan = PartitionSchedule(n_regions=2, central_crashes=((0, 1),))
        with ev.capture() as sink, ev.logical_time():
            ShardedAGTRam(
                partition=TWO_REGIONS, plan=plan
            ).run(conflict_instance)
        report = audit_sharded_events(sink.events)
        assert report.ok, report.summary()
        assert report.elections_seen == 1
        assert report.recoveries_seen == 1


class TestCentralId:
    def test_regional_addresses_are_negative_and_unique(self):
        ids = [central_id(r) for r in range(6)]
        assert ids[0] == -1  # region 0's central is the flat central
        assert len(set(ids)) == 6
        assert all(i < 0 for i in ids)
