"""Tests for experiment configuration and instance builders."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.instances import paper_instance, worldcup_instance
from repro.obs.report import bench_config

#: sha256 of each array's bytes in ``paper_instance(bench_config(scale))``
#: (seed 2007), recorded with the undirected all-links Dijkstra and the
#: union-find connectivity the instance build used before pruning.  The
#: ``large`` preset is pinned in ``benchmarks/bench_core_ops.py``.
PRESET_SHA256 = {
    "tiny": {
        "cost": "47cbf5b902546198348d53cf76d6a15d703ee6bbc4e60f7ecfed117545a41a29",
        "reads": "82cf007762959f5a496bd84944e473acb518f765d49caca51b8b4ef98ddf1c80",
        "writes": "d36c2e15937790b4e755b7038660f4a73d9098379421e01f998938fb3a4fafad",
        "sizes": "3ff65f4d1871f26ba5fae6d685f31db0484f33e1119ebed8850e5472cf97e455",
        "capacities": "154c92987240ac33c937b23cc21a23ae060a39249f351cb1dd16ff3e6ca8164c",
        "primaries": "de99633b865b689df03390cc558a8925653c58bb98eff739cbfb14858ea0133d",
    },
    "small": {
        "cost": "b39b8f9fc7bc6545135afb5a753b077ac8543f83527fe64c04518b30f5a53476",
        "reads": "3eac36dc97f9d93fd12733724a0122a53e00e80b120ca2488641890fcc5cef1f",
        "writes": "cced36836b9afc4efaad335ad11b98cbe31dfcefbb3398f25f663fbaf3100400",
        "sizes": "4606508f18114653d96d885e220c3cb0216f60e4aef651ba76a8005a7c41cf9f",
        "capacities": "20c7b3e7d3fd595b6c10b80a7e8ee1a9b502f64e7112c0e626c5421868b31588",
        "primaries": "31af8b16c2bf289ed70ac90ce6f842034a49c85696ef63c63420b0381a1641f7",
    },
    "medium": {
        "cost": "04ae1e80004a8eca0d15fa70ac0f2ac96a82544cefc3c7222c06dedef6238c6f",
        "reads": "898925acc0273440b2401752f33d3de9a6afd48a6c648d8472baab652cad95fd",
        "writes": "ea49f4313e0e12ace5d49a5171a5b8bfe7a6184a4978897e6c9ee0d7ea0825a0",
        "sizes": "b7080ce317de91f88625f4c631cdc9626943876f38f05c957475f2389ea33187",
        "capacities": "bf071de5c3b50b5deaecfaa0efe90463f828f32719cbbaf4a5c79521970ed3a7",
        "primaries": "0110b3262dff0fb97341292d53dc989d575ee857199e31d938b25ec633e9b642",
    },
}


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.n_servers > 0

    def test_with_override(self):
        cfg = ExperimentConfig().with_(rw_ratio=0.5)
        assert cfg.rw_ratio == 0.5
        assert ExperimentConfig().rw_ratio != 0.5 or True  # original frozen

    def test_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(Exception):
            cfg.rw_ratio = 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_servers": 0},
            {"rw_ratio": 1.5},
            {"capacity_fraction": -0.1},
            {"total_requests": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs)

    def test_scales_increasing(self):
        assert (
            SCALES["tiny"].n_servers
            < SCALES["small"].n_servers
            < SCALES["medium"].n_servers
        )


class TestPaperInstance:
    def test_dimensions(self):
        cfg = ExperimentConfig(n_servers=12, n_objects=30, total_requests=3000)
        inst = paper_instance(cfg)
        assert inst.n_servers == 12 and inst.n_objects == 30

    def test_deterministic(self):
        cfg = ExperimentConfig(n_servers=10, n_objects=20, total_requests=2000, seed=5)
        a, b = paper_instance(cfg), paper_instance(cfg)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.reads, b.reads)
        assert np.array_equal(a.primaries, b.primaries)

    def test_seed_changes_instance(self):
        base = ExperimentConfig(n_servers=10, n_objects=20, total_requests=2000)
        a = paper_instance(base.with_(seed=1))
        b = paper_instance(base.with_(seed=2))
        assert not np.array_equal(a.reads, b.reads)

    def test_rw_ratio_realized(self):
        cfg = ExperimentConfig(
            n_servers=15, n_objects=50, total_requests=40_000, rw_ratio=0.9
        )
        inst = paper_instance(cfg)
        realized = inst.reads.sum() / (inst.reads.sum() + inst.writes.sum())
        assert realized == pytest.approx(0.9, abs=0.02)

    def test_topology_choice(self):
        cfg = ExperimentConfig(
            n_servers=12, n_objects=20, topology="waxman", topology_params={}
        )
        inst = paper_instance(cfg)
        assert inst.n_servers == 12


@pytest.mark.parametrize("scale", sorted(PRESET_SHA256))
def test_preset_instance_bytes_pinned(scale):
    inst = paper_instance(bench_config(scale))
    got = {
        name: hashlib.sha256(getattr(inst, name).tobytes()).hexdigest()
        for name in PRESET_SHA256[scale]
    }
    assert got == PRESET_SHA256[scale]


class TestWorldcupInstance:
    def test_full_pipeline(self):
        cfg = ExperimentConfig(
            n_servers=10, n_objects=40, total_requests=5_000, seed=3
        )
        inst = worldcup_instance(cfg, n_clients=25)
        assert inst.n_servers == 10
        # The parser may drop objects never requested; sizes positive.
        assert inst.n_objects <= 40
        assert inst.total_requests() > 0

    def test_usable_by_algorithms(self):
        from repro.core.agt_ram import run_agt_ram

        cfg = ExperimentConfig(
            n_servers=10,
            n_objects=40,
            total_requests=8_000,
            rw_ratio=0.95,
            capacity_fraction=0.4,
            seed=4,
        )
        inst = worldcup_instance(cfg, n_clients=25)
        res = run_agt_ram(inst)
        assert res.savings_percent >= 0.0
