"""Tests for the exact optimal solver (the evaluation's anchor)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.base import _registry, make_placer
from repro.baselines.greedy import GreedyPlacer
from repro.baselines.optimal import OptimalPlacer, brute_force_otc
from repro.core.agt_ram import run_agt_ram
from repro.drp.cost import primary_only_otc, total_otc
from repro.drp.feasibility import check_state
from repro.drp.instance import build_instance
from repro.drp.state import ReplicationState
from repro.errors import ConvergenceError
from repro.experiments.instances import paper_instance
from repro.obs.report import bench_config
from repro.topology import random_graph
from repro.workload.synthetic import synthesize_workload

from _baselines_reference import BranchAndBound
from _strategies import drp_instances


def tiny_drp(seed: int, *, capacity_fraction: float = 1.0, jitter: float = 0.0,
             m: int = 5, n: int = 4, rw: float = 0.85):
    topo = random_graph(m, 0.5, seed=seed)
    w = synthesize_workload(m, n, total_requests=600, rw_ratio=rw, seed=seed)
    return build_instance(
        topo, w, capacity_fraction=capacity_fraction, capacity_jitter=jitter,
        seed=seed,
    )


class TestOptimalCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_unconstrained(self, seed):
        inst = tiny_drp(seed)
        opt = OptimalPlacer().place(inst)
        assert opt.otc == pytest.approx(brute_force_otc(inst), rel=1e-9)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_dominates_all_heuristics(self, seed):
        inst = tiny_drp(seed, capacity_fraction=0.3, jitter=0.5)
        opt = OptimalPlacer().place(inst)
        greedy = GreedyPlacer().place(inst)
        agt = run_agt_ram(inst)
        assert opt.otc <= greedy.otc + 1e-6
        assert opt.otc <= agt.otc + 1e-6

    def test_state_feasible(self):
        inst = tiny_drp(20, capacity_fraction=0.3, jitter=0.5)
        check_state(OptimalPlacer().place(inst).state)

    def test_line_instance_exact(self, line_instance):
        opt = OptimalPlacer().place(line_instance)
        # Hand analysis: replicating object 0 at servers 1 and 2 and
        # object 1 at server 1 is feasible; the solver must find a
        # scheme at least as good as greedy's.
        greedy = GreedyPlacer().place(line_instance)
        assert opt.otc <= greedy.otc + 1e-9

    def test_small_preset_refused_before_building(self, monkeypatch):
        import scipy.optimize
        import scipy.sparse

        inst = paper_instance(bench_config("small"))

        def built(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(scipy.sparse, "coo_array", built)
        monkeypatch.setattr(scipy.optimize, "milp", built)
        with pytest.raises(ConvergenceError, match="MAX_VARIABLES"):
            OptimalPlacer().place(inst)

    def test_unproven_optimum_raises(self, monkeypatch):
        import scipy.optimize

        def time_limit(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                status=1, message="Time limit reached.", x=None, fun=None,
                mip_node_count=7,
            )

        monkeypatch.setattr(scipy.optimize, "milp", time_limit)
        with pytest.raises(ConvergenceError, match="Time limit"):
            OptimalPlacer().place(tiny_drp(30, m=6, n=6))

    def test_takes_no_options(self):
        with pytest.raises(TypeError):
            OptimalPlacer(max_nodes=10)

    def test_deterministic(self):
        inst = tiny_drp(40)
        a = OptimalPlacer().place(inst)
        b = OptimalPlacer().place(inst)
        assert np.array_equal(a.state.x, b.state.x)

    def test_registry(self):
        from repro.baselines.base import make_placer

        assert make_placer("Optimal").name == "Optimal"


class TestBruteForce:
    def test_rejects_binding_capacity(self):
        inst = tiny_drp(50, capacity_fraction=0.1, jitter=0.5)
        with pytest.raises(ValueError):
            brute_force_otc(inst)

    def test_never_above_primary_only(self):
        from repro.drp.cost import primary_only_otc

        inst = tiny_drp(51)
        assert brute_force_otc(inst) <= primary_only_otc(inst) + 1e-9


class TestSameOptimaAsBranchAndBound:
    """The MILP finds the optimal OTC the parent's exact search found
    (``_baselines_reference.BranchAndBound``); tied optima may differ
    in ``x``, so OTC is compared, not the scheme."""

    @pytest.mark.parametrize("capacity", [0.3, 1.0], ids=["binding", "slack"])
    @pytest.mark.parametrize("shape", [(3, 6), (4, 5), (5, 4)], ids=str)
    @pytest.mark.parametrize("seed", range(4))
    def test_same_otc(self, seed, shape, capacity):
        m, n = shape
        inst = tiny_drp(seed, capacity_fraction=capacity, jitter=0.5, m=m, n=n)
        x, _, _ = BranchAndBound().solve(inst)
        expected = total_otc(ReplicationState.from_matrix(inst, x))
        assert OptimalPlacer().place(inst).otc == pytest.approx(expected, rel=1e-9)


#: Registered placers that take a seed (the others are deterministic).
SEEDED = {"DA", "EA", "GRA", "Random"}


def heuristics(seed):
    names = sorted(set(_registry()) - {"Optimal"})
    return [make_placer(a, **({"seed": seed} if a in SEEDED else {})) for a in names]


class TestOptimumProperty:
    @given(drp_instances(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_feasible_exact_and_below_every_heuristic(self, inst, seed):
        opt = OptimalPlacer().place(inst)
        check_state(opt.state)
        assert opt.extra["objective"] + inst.primary_ship_total() == pytest.approx(
            opt.otc, rel=1e-9
        )
        for placer in heuristics(seed):
            res = placer.place(inst)
            assert opt.otc <= res.otc * (1 + 1e-9) + 1e-6, placer.name


#: Optimal OTC of the tiny bench preset (16×64): 23.6587% savings.
TINY_OPTIMAL_OTC = 1210432.2920229854


class TestTinyPresetGap:
    @pytest.fixture(scope="class")
    def solved(self):
        inst = paper_instance(bench_config("tiny"))
        return inst, OptimalPlacer().place(inst)

    def test_pinned(self, solved):
        inst, opt = solved
        assert opt.otc == pytest.approx(TINY_OPTIMAL_OTC, rel=1e-9)
        saved = 100 * (1 - opt.otc / primary_only_otc(inst))
        assert saved == pytest.approx(23.6587, abs=1e-4)

    def test_heuristics_save_strictly_less(self, solved):
        inst, opt = solved
        assert GreedyPlacer().place(inst).otc > opt.otc
        assert run_agt_ram(inst).otc > opt.otc

    def test_objective_is_the_closed_form(self, solved):
        inst, opt = solved
        assert opt.extra["objective"] + inst.primary_ship_total() == pytest.approx(
            total_otc(opt.state), rel=1e-9
        )


def test_import_repro_leaves_scipy_optimize_unloaded():
    # The solver imports scipy.optimize (~14 MiB, ~0.5 s) only to solve.
    src = str(Path(repro.__file__).resolve().parents[1])
    code = "import sys, repro; sys.exit('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
