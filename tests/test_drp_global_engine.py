"""Tests for the incrementally-maintained GlobalBenefitEngine."""

import numpy as np
import pytest

from repro.drp.benefit import global_benefit_column
from repro.drp.global_engine import GlobalBenefitEngine
from repro.drp.state import ReplicationState


def fresh_matrix(instance, state):
    return np.stack(
        [
            global_benefit_column(instance, state, k)
            for k in range(instance.n_objects)
        ],
        axis=1,
    )


class TestGlobalBenefitEngine:
    def test_initial_matrix_exact(self, tiny_instance):
        st = ReplicationState.primaries_only(tiny_instance)
        engine = GlobalBenefitEngine(tiny_instance, st)
        assert np.array_equal(engine.matrix, fresh_matrix(tiny_instance, st))

    def test_incremental_matches_fresh(self, tiny_instance, rng):
        st = ReplicationState.primaries_only(tiny_instance)
        engine = GlobalBenefitEngine(tiny_instance, st)
        added = 0
        while added < 12:
            i = int(rng.integers(tiny_instance.n_servers))
            k = int(rng.integers(tiny_instance.n_objects))
            if st.can_host(i, k):
                st.add_replica(i, k)
                engine.notify_allocation(i, k)
                added += 1
        fresh = fresh_matrix(tiny_instance, st)
        # Incremental masking may keep stale *values* only on cells that
        # became infeasible; feasible cells must match exactly.
        feasible = np.isfinite(fresh)
        assert np.allclose(engine.matrix[feasible], fresh[feasible])
        assert not np.isfinite(engine.matrix[~feasible & ~np.isfinite(engine.matrix)]).any()

    def test_best_cell(self, line_instance):
        # The best cell is the best agent's dominant report.
        st = ReplicationState.primaries_only(line_instance)
        engine = GlobalBenefitEngine(line_instance, st)
        vals, objs = engine.best_per_server()
        i = int(vals.argmax())
        assert (i, int(objs[i])) == (2, 0)
        assert vals[i] == pytest.approx(10.0)

    def test_best_per_server_consistent(self, tiny_instance):
        st = ReplicationState.primaries_only(tiny_instance)
        engine = GlobalBenefitEngine(tiny_instance, st)
        vals, objs = engine.best_per_server()
        for i in range(tiny_instance.n_servers):
            assert vals[i] == engine.matrix[i, objs[i]]

    def test_foreign_state_rejected(self, line_instance, tiny_instance):
        st = ReplicationState.primaries_only(tiny_instance)
        with pytest.raises(ValueError):
            GlobalBenefitEngine(line_instance, st)
