"""Tests for the vectorized delta-maintained engine (repro.drp.delta).

The engine's contract is *bit-for-bit* agreement with the naive
full-matrix :class:`~repro.drp.benefit.BenefitEngine` — same dominant
reports (values AND argmax tie-breaks), same winners, same second
prices, same event stream.  Everything here asserts exact equality, not
approximate closeness.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agt_ram import AGTRam, run_agt_ram
from repro.core.strategies import OverProjection, UnderProjection
from repro.drp.benefit import NEG_INF, BenefitEngine, local_benefit_matrix
from repro.drp.delta import DeltaBenefitEngine, make_local_engine
from repro.drp.global_engine import GlobalBenefitEngine, RegionalBenefitEngine
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.obs import events as ev


def _fresh_bests(instance, state):
    """Reference dominant reports from a fresh naive full sweep."""
    matrix = local_benefit_matrix(instance, state)
    objs = matrix.argmax(axis=1)
    vals = matrix[np.arange(matrix.shape[0]), objs]
    return vals, objs


def _assert_bests_exact(engine, instance, state):
    vals, objs = engine.best_per_server()
    ref_vals, ref_objs = _fresh_bests(instance, state)
    # Exact: same argmax index (numpy first-index tie-break) and the
    # identical IEEE-754 value, -inf included.
    np.testing.assert_array_equal(objs, ref_objs)
    np.testing.assert_array_equal(vals, ref_vals)


class TestResolveEngine:
    """How a run picks its engine, and the label it reports."""

    def test_names_exposed(self):
        assert BenefitEngine.engine_name == "naive"
        assert DeltaBenefitEngine.engine_name == "vectorized"
        assert GlobalBenefitEngine.engine_name == "global"
        assert RegionalBenefitEngine.engine_name == "regional"

    def test_auto_prefers_vectorized(self, tiny_instance):
        # The default is the production engine; there is no "auto".
        assert run_agt_ram(tiny_instance).extra["engine"] == "vectorized"

    def test_explicit_names_pass_through(self, tiny_instance):
        for name in ("naive", "vectorized"):
            assert run_agt_ram(tiny_instance, engine=name).extra["engine"] == name

    def test_unknown_engine_rejected(self):
        for name in ("turbo", "auto"):
            with pytest.raises(ConfigurationError, match="'naive' or 'vectorized'"):
                AGTRam(engine=name)

    def test_make_local_engine_types(self, tiny_instance):
        st_ = ReplicationState.primaries_only(tiny_instance)
        assert isinstance(make_local_engine(tiny_instance, st_), DeltaBenefitEngine)

    def test_state_must_belong_to_instance(self, tiny_instance, line_instance):
        st_ = ReplicationState.primaries_only(line_instance)
        with pytest.raises(ValueError, match="belong"):
            DeltaBenefitEngine(tiny_instance, st_)


class TestDeltaMatchesNaive:
    def test_initial_bests_match_full_sweep(self, tiny_instance):
        state = ReplicationState.primaries_only(tiny_instance)
        engine = DeltaBenefitEngine(tiny_instance, state)
        _assert_bests_exact(engine, tiny_instance, state)

    def test_bests_exact_through_greedy_run(self, tiny_instance):
        """Delta maintenance stays exact along the mechanism's own
        trajectory (allocate the current best until exhaustion)."""
        state = ReplicationState.primaries_only(tiny_instance)
        engine = DeltaBenefitEngine(tiny_instance, state)
        for _ in range(200):
            vals, objs = engine.best_per_server()
            winner = int(vals.argmax())
            if not np.isfinite(vals[winner]) or vals[winner] <= 0.0:
                break
            obj = int(objs[winner])
            state.add_replica(winner, obj)
            engine.notify_allocation(winner, obj)
            _assert_bests_exact(engine, tiny_instance, state)

    def test_bests_exact_through_adversarial_allocations(self, tiny_instance):
        """Off-trajectory allocations (never the argmax) — the dirty-set
        argument must hold for arbitrary feasible allocation orders."""
        state = ReplicationState.primaries_only(tiny_instance)
        engine = DeltaBenefitEngine(tiny_instance, state)
        rng = np.random.default_rng(7)
        placed = 0
        for _ in range(300):
            i = int(rng.integers(tiny_instance.n_servers))
            k = int(rng.integers(tiny_instance.n_objects))
            if not state.can_host(i, k):
                continue
            state.add_replica(i, k)
            engine.notify_allocation(i, k)
            placed += 1
            _assert_bests_exact(engine, tiny_instance, state)
        assert placed > 10

    def test_views_match_naive(self, tiny_instance):
        state = ReplicationState.primaries_only(tiny_instance)
        naive = BenefitEngine(tiny_instance, state)
        delta = DeltaBenefitEngine(tiny_instance, state)
        np.testing.assert_array_equal(delta.matrix, naive.matrix)
        for i in range(0, tiny_instance.n_servers, 3):
            np.testing.assert_array_equal(delta.row(i), naive.row(i))
            for k in range(0, tiny_instance.n_objects, 11):
                assert delta.value_at(i, k) == naive.value_at(i, k)
        servers = np.arange(tiny_instance.n_servers)
        np.testing.assert_array_equal(
            delta.eligible_counts(servers), naive.eligible_counts(servers)
        )

    def test_full_server_goes_ineligible(self, line_instance):
        state = ReplicationState.primaries_only(line_instance)
        engine = DeltaBenefitEngine(line_instance, state)
        state.add_replica(1, 0)
        engine.notify_allocation(1, 0)
        state.add_replica(1, 1)
        engine.notify_allocation(1, 1)
        # refresh_server on an already-consistent row is a no-op.
        engine.refresh_server(1)
        vals, _ = engine.best_per_server()
        assert vals[1] == NEG_INF  # full server has no eligible object
        _assert_bests_exact(engine, line_instance, state)

    def test_resync_rebuilds_from_live_state(self, tiny_instance):
        """Mutate the state behind the engine's back (the lazy-protocol
        situation), then resync — the caches must match a fresh build."""
        state = ReplicationState.primaries_only(tiny_instance)
        engine = DeltaBenefitEngine(tiny_instance, state)
        rng = np.random.default_rng(3)
        for _ in range(10):
            i = int(rng.integers(tiny_instance.n_servers))
            k = int(rng.integers(tiny_instance.n_objects))
            if state.can_host(i, k):
                state.add_replica(i, k)  # no notify_allocation on purpose
        engine.resync()
        _assert_bests_exact(engine, tiny_instance, state)

    @pytest.mark.parametrize("block_rows", [1, 5])
    def test_blocked_sweeps_match_full_sweep(
        self, tiny_instance, monkeypatch, block_rows
    ):
        """Full sweeps run a block of rows at a time; tiny fits one
        block, so force several (5 rows leaves a partial last block at
        M=16) at construction and on resync."""
        monkeypatch.setattr(
            DeltaBenefitEngine, "_BLOCK_CELLS", block_rows * tiny_instance.n_objects
        )
        state = ReplicationState.primaries_only(tiny_instance)
        engine = DeltaBenefitEngine(tiny_instance, state)
        assert engine._blockbuf.shape[0] == block_rows
        _assert_bests_exact(engine, tiny_instance, state)
        rng = np.random.default_rng(5)
        for _ in range(40):
            i = int(rng.integers(tiny_instance.n_servers))
            k = int(rng.integers(tiny_instance.n_objects))
            if state.can_host(i, k):
                state.add_replica(i, k)
        engine.resync()
        _assert_bests_exact(engine, tiny_instance, state)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        moves=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=39),
            ),
            max_size=40,
        ),
    )
    def test_property_delta_equals_full_sweep(self, seed, moves):
        """Property: for any instance and any feasible allocation
        sequence, the delta-maintained bests equal a fresh full sweep."""
        instance = paper_instance(
            ExperimentConfig(
                n_servers=12,
                n_objects=40,
                total_requests=4_000,
                seed=seed,
                name="prop",
            )
        )
        state = ReplicationState.primaries_only(instance)
        engine = DeltaBenefitEngine(instance, state)
        for i, k in moves:
            if not state.can_host(i, k):
                continue
            state.add_replica(i, k)
            engine.notify_allocation(i, k)
        _assert_bests_exact(engine, instance, state)


def _recorded(instance, engine, **kwargs):
    sink = ev.RecordingSink()
    with ev.logical_time(), ev.capture(sink):
        result = run_agt_ram(instance, engine=engine, **kwargs)
    return result, [ev.asdict(e) for e in sink.events]


class TestRunEquivalence:
    def test_same_seed_event_log_byte_identity(self, tiny_instance):
        ref, ref_events = _recorded(tiny_instance, "naive")
        cand, cand_events = _recorded(tiny_instance, "vectorized")
        ref_bytes = "\n".join(json.dumps(e, sort_keys=True) for e in ref_events)
        cand_bytes = "\n".join(
            json.dumps(e, sort_keys=True) for e in cand_events
        )
        assert ref_bytes == cand_bytes
        assert ref.rounds == cand.rounds
        assert ref.otc == cand.otc

    def test_placements_payments_utilities_identical(self, tiny_instance):
        ref = run_agt_ram(tiny_instance, engine="naive")
        cand = run_agt_ram(tiny_instance, engine="vectorized")
        np.testing.assert_array_equal(ref.state.x, cand.state.x)
        np.testing.assert_array_equal(
            ref.extra["payments"], cand.extra["payments"]
        )
        np.testing.assert_array_equal(
            ref.extra["utilities"], cand.extra["utilities"]
        )
        assert cand.extra["engine"] == "vectorized"
        assert ref.extra["engine"] == "naive"

    @pytest.mark.parametrize("batch_size", [2, 4])
    def test_batch_mode_identical(self, tiny_instance, batch_size):
        from repro.core.agt_ram import AGTRam

        a = AGTRam(engine="naive", batch_size=batch_size).run(tiny_instance)
        b = AGTRam(engine="vectorized", batch_size=batch_size).run(
            tiny_instance
        )
        np.testing.assert_array_equal(a.state.x, b.state.x)
        assert a.otc == b.otc
        assert a.rounds == b.rounds

    @pytest.mark.parametrize(
        "strategy", [OverProjection(1.6), UnderProjection(0.4)]
    )
    def test_strategic_agents_identical(self, tiny_instance, strategy):
        a = run_agt_ram(
            tiny_instance, engine="naive", strategies={3: strategy}
        )
        b = run_agt_ram(
            tiny_instance, engine="vectorized", strategies={3: strategy}
        )
        np.testing.assert_array_equal(a.state.x, b.state.x)
        np.testing.assert_array_equal(
            a.extra["payments"], b.extra["payments"]
        )
        assert a.otc == b.otc

    def test_global_valuation_runs_its_own_engine(self, tiny_instance):
        # The engine switch applies to the local valuation only.
        runs = [
            run_agt_ram(tiny_instance, engine=name, valuation="global")
            for name in ("naive", "vectorized")
        ]
        assert [r.extra["engine"] for r in runs] == ["global", "global"]
        np.testing.assert_array_equal(runs[0].state.x, runs[1].state.x)

    def test_audit_trail_identical(self, tiny_instance):
        a = run_agt_ram(tiny_instance, engine="naive", record_audit=True)
        b = run_agt_ram(tiny_instance, engine="vectorized", record_audit=True)
        assert len(a.extra["audit"]) == len(b.extra["audit"])
        for ra, rb in zip(a.extra["audit"].rounds, b.extra["audit"].rounds):
            assert ra.winner == rb.winner
            assert ra.obj == rb.obj
            assert ra.payment == rb.payment
            np.testing.assert_array_equal(ra.reported, rb.reported)


class TestSimulatorEngine:
    """The simulator's protocol picks its engine: the eager protocol runs
    the delta engine, a lazy one the full matrix, which alone keeps the
    stale views it models."""

    def test_vectorized_requires_eager_protocol(self, tiny_instance):
        from repro.runtime.simulator import SemiDistributedSimulator

        labels = [
            SemiDistributedSimulator(nn_update_period=t).run(tiny_instance).extra[
                "engine"
            ]
            for t in (1, 2)
        ]
        assert labels == ["vectorized", "naive"]

    def test_simulator_engines_identical(self, tiny_instance):
        from repro.runtime.simulator import SemiDistributedSimulator

        a = run_agt_ram(tiny_instance, engine="naive")
        b = SemiDistributedSimulator().run(tiny_instance)
        np.testing.assert_array_equal(a.state.x, b.state.x)
        np.testing.assert_array_equal(a.extra["payments"], b.extra["payments"])
        assert a.otc == b.otc
        assert a.rounds == b.rounds
        assert b.extra["engine"] == "vectorized"

    def test_lazy_protocol_still_works_with_naive(self, tiny_instance):
        from repro.runtime.simulator import SemiDistributedSimulator

        result = SemiDistributedSimulator(nn_update_period=3).run(tiny_instance)
        assert result.rounds > 0
        assert result.extra["engine"] == "naive"


class TestEquivalenceModule:
    def test_compare_engines_reports_identity(self, tiny_instance):
        from repro.obs.equivalence import compare_engines, format_comparison

        cmp = compare_engines(tiny_instance, repeats=1)
        assert cmp.identical
        assert cmp.audit_ok
        assert cmp.mismatches == []
        assert cmp.events_compared > 0
        assert cmp.speedup > 0
        text = format_comparison(cmp)
        assert "identity : OK" in text
        assert "audit    : OK" in text
        d = cmp.to_dict()
        assert d["identical"] is True
        assert d["n_servers"] == tiny_instance.n_servers

    def test_compare_engines_at_scale_tiny(self):
        from repro.obs.equivalence import compare_engines_at_scale

        cmp = compare_engines_at_scale("tiny", repeats=1)
        assert cmp.scale == "tiny"
        assert cmp.identical and cmp.audit_ok

    def test_repeats_validated(self, tiny_instance):
        from repro.obs.equivalence import compare_engines

        with pytest.raises(ValueError, match="repeats"):
            compare_engines(tiny_instance, repeats=0)
