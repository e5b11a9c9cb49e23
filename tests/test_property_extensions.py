"""Property-based tests for the regional and adaptive extensions."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveReplicator
from repro.core.agt_ram import run_agt_ram
from repro.drp.feasibility import check_state
from repro.runtime.shard import ShardedAGTRam, partition_by_proximity
from repro.workload.drift import drifting_workloads

from _strategies import drp_instances

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestHierarchicalProperties:
    @given(drp_instances(), st.integers(1, 4), seeds)
    @settings(max_examples=20, deadline=None)
    def test_concurrent_always_feasible(self, inst, n_regions, seed):
        n_regions = min(n_regions, inst.n_servers)
        res = ShardedAGTRam(n_regions=n_regions, seed=seed).run(inst)
        check_state(res.state)

    @given(drp_instances())
    @settings(max_examples=300, deadline=None)
    def test_one_region_matches_flat(self, inst):
        # One region is the paper's single central: the regional path
        # must reproduce the flat mechanism bit for bit.
        one = ShardedAGTRam(n_regions=1, seed=0).run(inst)
        flat = run_agt_ram(inst)
        assert one.state.x.tobytes() == flat.state.x.tobytes()
        assert one.otc == flat.otc
        assert one.rounds == flat.rounds
        assert one.extra["payments"].tobytes() == (
            flat.extra["payments"].tobytes()
        )

    @given(drp_instances(), seeds)
    @settings(max_examples=20, deadline=None)
    def test_partition_covers_all_servers(self, inst, seed):
        n_regions = min(3, inst.n_servers)
        part = partition_by_proximity(inst, n_regions, seed=seed)
        assert part.shape == (inst.n_servers,)
        assert part.min() >= 0 and part.max() < n_regions

    @given(drp_instances(), seeds)
    @settings(max_examples=15, deadline=None)
    def test_failure_keeps_system_sound(self, region_down, inst, seed):
        # A failed region may, on odd instances, *improve* savings (its
        # small-benefit grabs can pre-empt others' better moves), so no
        # ordering vs the healthy run is asserted — only soundness: the
        # degraded system stays feasible, non-harmful, and allocates
        # nothing in the dead region.
        part = partition_by_proximity(inst, min(3, inst.n_servers), seed=seed)
        degraded = ShardedAGTRam(
            partition=part, faults=region_down(inst, part, 0)
        ).run(inst)
        check_state(degraded.state)
        assert degraded.savings_percent >= -1e-6
        dead = np.flatnonzero(part == 0)
        extra = degraded.state.x.copy()
        extra[inst.primaries, np.arange(inst.n_objects)] = False
        assert not extra[dead].any()


class TestAdaptiveProperties:
    @given(st.integers(0, 10_000), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_all_policies_feasible_every_epoch(self, seed, n_epochs):
        from repro.drp.instance import build_instance
        from repro.topology import random_graph
        from repro.workload.synthetic import synthesize_workload

        m, n = 8, 20
        topo = random_graph(m, 0.5, seed=seed)
        w = synthesize_workload(m, n, total_requests=2_000, rw_ratio=0.9, seed=seed)
        template = build_instance(topo, w, capacity_fraction=0.4, seed=seed)
        epochs = drifting_workloads(
            m, n, n_epochs, total_requests=2_000, rw_ratio=0.9, seed=seed
        )
        for policy in ("adaptive", "static", "rebuild"):
            out = AdaptiveReplicator(policy=policy).run(template, epochs)
            assert len(out) == n_epochs
            for o in out:
                assert o.replicas >= 0
                assert o.migration_volume >= 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_adaptive_epoch_savings_never_negative(self, seed):
        from repro.drp.instance import build_instance
        from repro.topology import random_graph
        from repro.workload.synthetic import synthesize_workload

        m, n = 8, 20
        topo = random_graph(m, 0.5, seed=seed)
        w = synthesize_workload(m, n, total_requests=2_000, rw_ratio=0.9, seed=seed)
        template = build_instance(topo, w, capacity_fraction=0.4, seed=seed)
        epochs = drifting_workloads(
            m, n, 3, total_requests=2_000, rw_ratio=0.9, drift_fraction=0.4,
            seed=seed,
        )
        out = AdaptiveReplicator(policy="adaptive").run(template, epochs)
        # Eviction removes negative-keep replicas and reallocation only
        # adds positive-benefit ones, so every epoch ends no worse than
        # its primaries-only baseline.
        for o in out:
            assert o.savings_percent >= -1e-6
