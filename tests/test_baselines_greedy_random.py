"""Tests for the Greedy and Random placers."""

import numpy as np
import pytest

from repro.baselines.greedy import GreedyPlacer
from repro.baselines.random_placement import RandomPlacer
from repro.drp.cost import primary_only_otc, total_otc
from repro.drp.feasibility import check_state
from repro.drp.global_engine import GlobalBenefitEngine
from repro.drp.state import ReplicationState


class TestGreedy:
    def test_reduces_otc(self, read_heavy_instance):
        res = GreedyPlacer().place(read_heavy_instance)
        assert res.otc < primary_only_otc(read_heavy_instance)

    def test_feasible(self, read_heavy_instance):
        check_state(GreedyPlacer().place(read_heavy_instance).state)

    def test_line_instance_optimal_first_move(self, line_instance):
        res = GreedyPlacer(max_steps=1).place(line_instance)
        # The hand-computed best move is (server 2, object 0), gain 10.
        assert res.state.x[2, 0]
        assert res.otc == pytest.approx(25.0 - 10.0)

    def test_terminates_when_no_gain(self, write_heavy_instance):
        res = GreedyPlacer().place(write_heavy_instance)
        # At termination no feasible cell has positive global benefit.
        engine = GlobalBenefitEngine(write_heavy_instance, res.state)
        g = engine.matrix.max()
        assert not np.isfinite(g) or g <= 0.0

    def test_deterministic(self, tiny_instance):
        a = GreedyPlacer().place(tiny_instance)
        b = GreedyPlacer().place(tiny_instance)
        assert np.array_equal(a.state.x, b.state.x)

    def test_max_steps(self, read_heavy_instance):
        res = GreedyPlacer(max_steps=3).place(read_heavy_instance)
        assert res.replicas_allocated == 3

    def test_every_step_decreased_otc(self, tiny_instance):
        # Greedy's final OTC must equal baseline minus the sum of chosen
        # (all positive) gains; equivalently it strictly improves.
        res = GreedyPlacer().place(tiny_instance)
        assert res.otc <= primary_only_otc(tiny_instance)

    def test_beats_local_agt_ram(self, read_heavy_instance):
        # The fully-informed oracle can never do worse than the
        # semi-distributed mechanism on the same instance.
        from repro.core.agt_ram import run_agt_ram

        greedy = GreedyPlacer().place(read_heavy_instance)
        agt = run_agt_ram(read_heavy_instance)
        assert greedy.savings_percent >= agt.savings_percent - 1e-9

    def test_bad_max_steps(self):
        with pytest.raises(ValueError):
            GreedyPlacer(max_steps=-1)


class TestRandomPlacer:
    def test_feasible(self, tiny_instance):
        check_state(RandomPlacer(seed=0).place(tiny_instance).state)

    def test_fill_fraction_zero(self, tiny_instance):
        res = RandomPlacer(fill_fraction=0.0, seed=0).place(tiny_instance)
        assert res.replicas_allocated == 0

    def test_fills_most_capacity(self, tiny_instance):
        res = RandomPlacer(fill_fraction=0.9, seed=1).place(tiny_instance)
        used = res.state.used - tiny_instance.primary_load
        assert used.sum() >= 0.5 * tiny_instance.replica_headroom().sum()

    def test_deterministic_with_seed(self, tiny_instance):
        a = RandomPlacer(seed=5).place(tiny_instance)
        b = RandomPlacer(seed=5).place(tiny_instance)
        assert np.array_equal(a.state.x, b.state.x)

    def test_quality_floor(self, read_heavy_instance):
        # Sanity: greedy must clearly beat random placement.
        from repro.baselines.greedy import GreedyPlacer

        rnd = RandomPlacer(seed=2).place(read_heavy_instance)
        greedy = GreedyPlacer().place(read_heavy_instance)
        assert greedy.savings_percent > rnd.savings_percent

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            RandomPlacer(fill_fraction=1.5)
