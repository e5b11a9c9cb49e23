"""Tests for the DRP[σ] / DRP[π,σ] disposition variants (Axiom 2)."""

import numpy as np
import pytest

from repro.core.agt_ram import run_agt_ram
from repro.core.disposition import (
    capacity_misreport_gain,
    cor_knowledge_gain,
    run_with_declared_capacities,
)
from repro.core.equilibrium import one_shot_utilities
from repro.core.strategies import OverProjection
from repro.drp.feasibility import check_state
from repro.errors import ConfigurationError

#: The helpers that take one agent id, each with its other arguments.
AGENT_HELPERS = {
    "capacity_misreport_gain": lambda inst, a: capacity_misreport_gain(inst, a, 2.0),
    "cor_knowledge_gain": cor_knowledge_gain,
    "one_shot_utilities": lambda inst, a: one_shot_utilities(
        inst, a, OverProjection(2.0)
    ),
}


class TestAgentIds:
    """An agent id names a server: no wrap-around, float or bool index."""

    @pytest.mark.parametrize("helper", sorted(AGENT_HELPERS))
    @pytest.mark.parametrize("agent", [-1, -5, 16, 2.5, True], ids=repr)
    def test_rejected(self, tiny_instance, helper, agent):
        assert tiny_instance.n_servers == 16
        with pytest.raises(ConfigurationError, match="agent"):
            AGENT_HELPERS[helper](tiny_instance, agent)

    @pytest.mark.parametrize("helper", sorted(AGENT_HELPERS))
    def test_numpy_integer_accepted(self, tiny_instance, helper):
        run = AGENT_HELPERS[helper]
        assert run(tiny_instance, np.int64(3)) == run(tiny_instance, 3)


class TestDeclaredCapacities:
    def test_truthful_matches_pi_model(self, read_heavy_instance):
        # Declaring the true capacities reproduces plain AGT-RAM.
        sigma = run_with_declared_capacities(
            read_heavy_instance, read_heavy_instance.capacities
        )
        pi = run_agt_ram(read_heavy_instance)
        assert np.array_equal(sigma.state.x, pi.state.x)
        assert sigma.otc == pytest.approx(pi.otc)

    def test_state_always_feasible(self, read_heavy_instance):
        # Even wild over-declarations cannot break physical storage.
        declared = read_heavy_instance.capacities * 100
        res = run_with_declared_capacities(read_heavy_instance, declared)
        check_state(res.state)

    def test_under_declaration_forfeits(self, read_heavy_instance):
        declared = read_heavy_instance.primary_load.copy()  # zero headroom
        res = run_with_declared_capacities(read_heavy_instance, declared)
        assert res.replicas_allocated == 0

    def test_bad_shape(self, read_heavy_instance):
        with pytest.raises(ConfigurationError):
            run_with_declared_capacities(read_heavy_instance, np.array([1, 2]))

    def test_voided_awards_recorded(self, read_heavy_instance):
        declared = read_heavy_instance.capacities.copy()
        # One compulsive over-declarer with no real headroom.
        agent = int(np.argmax(read_heavy_instance.reads.sum(axis=1)))
        declared[agent] = read_heavy_instance.capacities[agent] * 50
        res = run_with_declared_capacities(read_heavy_instance, declared)
        # The agent may win awards beyond its real storage; every such
        # award is voided, never silently materialized.
        used = res.state.used[agent]
        assert used <= read_heavy_instance.capacities[agent]


class TestCapacityMisreportGain:
    @pytest.mark.parametrize("factor", [0.25, 3.0])
    def test_misreport_never_profits(self, read_heavy_instance, factor):
        for agent in range(0, read_heavy_instance.n_servers, 4):
            out = capacity_misreport_gain(read_heavy_instance, agent, factor)
            assert out.gain <= 1e-6, (agent, factor)

    def test_bad_factor(self, read_heavy_instance):
        with pytest.raises(ConfigurationError):
            capacity_misreport_gain(read_heavy_instance, 0, 0.0)

    def test_outcome_fields(self, read_heavy_instance):
        out = capacity_misreport_gain(read_heavy_instance, 0, 2.0)
        assert out.agent == 0 and out.factor == 2.0
        assert out.voided_awards >= 0


class TestCorKnowledgeGain:
    def test_knowledge_is_worthless_under_second_price(self, read_heavy_instance):
        # Even perfect knowledge of all competitors' CoR cannot improve
        # on truth-telling — the paper's justification for DRP[pi].
        for agent in range(read_heavy_instance.n_servers):
            assert cor_knowledge_gain(read_heavy_instance, agent) <= 1e-9
