"""Cross-feature integration pipelines.

Each test chains several subsystems end-to-end the way a user would —
combinations no unit test covers: file-loaded topologies into
the regional mechanism, persisted instances into adaptive runs,
flash-crowd epochs through the trace-replay verifier.
"""

import numpy as np
import pytest

from repro import (
    AdaptiveReplicator,
    ExperimentConfig,
    ShardedAGTRam,
    build_instance,
    load_instance,
    load_scheme,
    paper_instance,
    run_agt_ram,
    save_instance,
    save_result,
    synthesize_workload,
    transit_stub_graph,
)
from repro.drp.feasibility import check_state
from repro.topology import read_edge_list, write_edge_list


class TestFileTopologyToHierarchy:
    def test_edge_list_drives_regional_mechanism(self, tmp_path):
        """Topology file -> instance -> transit-stub-aligned regions."""
        topo = transit_stub_graph(2, 2, 1, 4, seed=1)
        loaded = read_edge_list(write_edge_list(topo, tmp_path / "net.txt"))
        w = synthesize_workload(
            loaded.n_nodes, 60, total_requests=10_000, rw_ratio=0.95, seed=2
        )
        inst = build_instance(loaded, w, capacity_fraction=0.4, seed=3)
        # Domain-aligned partition: transit nodes (first 4) region 0,
        # each stub its own region.
        part = np.zeros(loaded.n_nodes, dtype=int)
        for s in range(4):  # 4 stubs of 4 nodes after the 4 transit nodes
            part[4 + 4 * s : 4 + 4 * (s + 1)] = 1 + s
        res = ShardedAGTRam(partition=part).run(inst)
        check_state(res.state)
        assert res.savings_percent > 0


class TestPersistenceToAdaptation:
    def test_saved_instance_feeds_adaptive_run(self, tmp_path):
        """Persist an instance, reload it, adapt it across epochs, and
        persist the final scheme."""
        from repro.workload.drift import drifting_workloads

        inst = paper_instance(
            ExperimentConfig(
                n_servers=12,
                n_objects=40,
                total_requests=6_000,
                rw_ratio=0.95,
                capacity_fraction=0.4,
                seed=11,
                name="persist-adapt",
            )
        )
        path = save_instance(inst, tmp_path / "inst")
        reloaded = load_instance(path)
        epochs = drifting_workloads(
            12, 40, 3, total_requests=6_000, rw_ratio=0.95, seed=12
        )
        out = AdaptiveReplicator(policy="adaptive").run(reloaded, epochs)
        assert len(out) == 3

    def test_saved_result_reloads_against_instance(self, tmp_path):
        inst = paper_instance(
            ExperimentConfig(
                n_servers=10, n_objects=30, total_requests=3_000, seed=13
            )
        )
        res = run_agt_ram(inst)
        json_path = save_result(res, tmp_path / "res")
        scheme = load_scheme(inst, json_path.with_suffix(".npz"))
        from repro.drp.cost import total_otc

        assert total_otc(scheme) == pytest.approx(res.otc)


class TestFlashCrowdThroughReplay:
    def test_epoch_scheme_validated_by_replay(self):
        """A flash-crowd epoch's closed-form OTC must match a discrete
        per-request replay of the same epoch's demand."""
        from repro.core.adaptive import AdaptiveReplicator as AR
        from repro.drp.cost import total_otc
        from repro.runtime.replay import replay_requests
        from repro.workload.flashcrowd import flash_crowd_workloads

        template = paper_instance(
            ExperimentConfig(
                n_servers=8,
                n_objects=30,
                total_requests=8_000,
                rw_ratio=0.95,
                capacity_fraction=0.4,
                seed=21,
                name="crowd-replay",
            )
        )
        epochs, _ = flash_crowd_workloads(
            8, 30, 2, total_requests=8_000, n_crowds=1, seed=22
        )
        inst = AR._epoch_instance(template, epochs[1])
        res = run_agt_ram(inst)

        servers, objects, kinds = [], [], []
        for i in range(8):
            for k in range(30):
                r, w = int(inst.reads[i, k]), int(inst.writes[i, k])
                servers += [i] * (r + w)
                objects += [k] * (r + w)
                kinds += [True] * r + [False] * w
        realized = replay_requests(
            inst,
            res.state,
            np.array(servers),
            np.array(objects),
            np.array(kinds, dtype=bool),
        )
        assert realized.total == pytest.approx(total_otc(res.state))


class TestBatchedMechanismUnderDeviation:
    def test_batched_rounds_with_strategic_agents(self, read_heavy_instance):
        """Batch allocation + deviating agents + audit, all at once."""
        from repro.core.agt_ram import AGTRam
        from repro.core.strategies import OverProjection

        mech = AGTRam(batch_size=4, strategies={0: OverProjection(3.0)})
        res = mech.run(read_heavy_instance, record_audit=True)
        check_state(res.state)
        assert res.savings_percent > 0

    def test_warm_start_plus_batching(self, read_heavy_instance):
        from repro.core.agt_ram import AGTRam
        from repro.drp.state import ReplicationState

        first = AGTRam(batch_size=8, max_rounds=3).run(read_heavy_instance)
        cont = AGTRam(batch_size=8).run(
            read_heavy_instance,
            initial_state=ReplicationState.from_matrix(
                read_heavy_instance, first.state.x
            ),
        )
        check_state(cont.state)
        assert cont.otc <= first.otc + 1e-9
