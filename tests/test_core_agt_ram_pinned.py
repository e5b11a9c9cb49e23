"""Pinned output of the flat AGT-RAM mechanism.

A faster or smaller clearing loop must reproduce the mechanism's own
record exactly: the placement, every payment and utility, the OTC, the
round count, the expanded event stream, the ``MechanismAudit``
transcript and the ``RoundSeries``.  Each constant below is the sha256
of one run's record under ``logical_time()`` + ``ColumnarSink``, keyed
by ``scale/config/start/audit/sink``.  The traced run of each key must
hash to the same constant as the untraced one: timing never changes
what the mechanism decides or emits.

Warm starts resume from ``AGTRam(max_rounds=rounds // 2)``'s placement,
so objects that already carry a non-primary replica are committed
again — the case that needs the OTC settlement seeded from the start
state rather than from the primaries.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.agt_ram import AGTRam
from repro.core.strategies import (
    OverProjection,
    ShillBid,
    TopInflation,
    UnderProjection,
)
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.obs import tracer as obs
from repro.obs.report import bench_config

#: Mechanism configurations; ``default`` resolves to the vectorized engine.
CONFIGS = {
    "default": dict(),
    "naive": dict(engine="naive"),
    "global": dict(valuation="global"),
    "first-price": dict(payment_rule="first_price"),
    "projection": dict(
        strategies={0: OverProjection(3.0), 5: UnderProjection(0.5)}
    ),
    "inflation": dict(strategies={1: TopInflation(2.0), 3: ShillBid(5.0)}),
    "max-rounds": dict(max_rounds=7),
    "batched": dict(batch_size=4),
}

SCALE_CONFIGS = {
    "tiny": tuple(CONFIGS),
    "small": ("default", "naive", "projection"),
}

CASES = [
    (scale, config, start, audit, sink)
    for scale, configs in SCALE_CONFIGS.items()
    for config in configs
    for start in ("cold", "warm")
    for audit in ("audit", "plain")
    for sink in ("sink", "nosink")
]

#: Recorded with the implementation that cleared single-winner rounds in
#: three loops (tight, columnar, per-object) chosen by engine, tracer,
#: sink, strategies and start state.
PINNED: dict[str, str] = {
    "tiny/default/cold/audit/sink": "d0650e1b4727f109b03468e98da0cda9d6dfec7c0f076a1384b10e8bd6e3d7f9",
    "tiny/default/cold/audit/nosink": "a91bc6174e66c292feb8da277a0b71ae013d80ca31fe5f273e9311c8f015eb17",
    "tiny/default/cold/plain/sink": "bed4cb1f6d99cae717f7c9b672363f4fa799f488d75d30814786195b85ba4350",
    "tiny/default/cold/plain/nosink": "1f820abb6ce2a7804bb62fd0819f5f02f2417e5e6c81fc50c5d458ed6474bd2b",
    "tiny/default/warm/audit/sink": "ffd525a601020c905482ca6964df4dedd039c5a9bf0832252d01a71c8cd13dfc",
    "tiny/default/warm/audit/nosink": "d6a4d86e73c79cbe57e7532ab51be73bdbc7faa33b21a2aaa00c6ef4c0f0ff1c",
    "tiny/default/warm/plain/sink": "b1fef60d564d1c6f301eed664856059b11249184071b6bb1eb73e9d56d8c1c23",
    "tiny/default/warm/plain/nosink": "dcba70ae1e1ce391b4eb4bde27ff3381037ae78c2e75aa436a278afc41194cc6",
    "tiny/naive/cold/audit/sink": "d0650e1b4727f109b03468e98da0cda9d6dfec7c0f076a1384b10e8bd6e3d7f9",
    "tiny/naive/cold/audit/nosink": "a91bc6174e66c292feb8da277a0b71ae013d80ca31fe5f273e9311c8f015eb17",
    "tiny/naive/cold/plain/sink": "bed4cb1f6d99cae717f7c9b672363f4fa799f488d75d30814786195b85ba4350",
    "tiny/naive/cold/plain/nosink": "1f820abb6ce2a7804bb62fd0819f5f02f2417e5e6c81fc50c5d458ed6474bd2b",
    "tiny/naive/warm/audit/sink": "ffd525a601020c905482ca6964df4dedd039c5a9bf0832252d01a71c8cd13dfc",
    "tiny/naive/warm/audit/nosink": "d6a4d86e73c79cbe57e7532ab51be73bdbc7faa33b21a2aaa00c6ef4c0f0ff1c",
    "tiny/naive/warm/plain/sink": "b1fef60d564d1c6f301eed664856059b11249184071b6bb1eb73e9d56d8c1c23",
    "tiny/naive/warm/plain/nosink": "dcba70ae1e1ce391b4eb4bde27ff3381037ae78c2e75aa436a278afc41194cc6",
    "tiny/global/cold/audit/sink": "509cd2bbab5b5c592b3c7e0f6206b5df507f1f90e6674daf651352a2bde107ce",
    "tiny/global/cold/audit/nosink": "57ad287fc4ae26b14ca3ccbc62234c4e041798ca81d5f360c169647167d8dacd",
    "tiny/global/cold/plain/sink": "9d0970e553c84dda346f43db325e1d27ecd4f1eb31acf814f4161d345492109e",
    "tiny/global/cold/plain/nosink": "2685bb7dd1bd63efc888c9f1853fd4cf5eb3b77328ba0bd295b2603c467748e4",
    "tiny/global/warm/audit/sink": "46b5790e277c687920c0741691ef973d366efbd95486647bac8aa76042b3403e",
    "tiny/global/warm/audit/nosink": "c72adb16e71953402057501e07b953dd0e0478e15ae12eadef30955e9f5fe3c8",
    "tiny/global/warm/plain/sink": "2a644c56fe912faed3b3a68d6bb2d703f018052dce927b2d3595f03fe49ba6bb",
    "tiny/global/warm/plain/nosink": "9ccc7c7bd43d1e8c3a75c73c010ea89f4aec97677f2be295175dd9391b2a446c",
    "tiny/first-price/cold/audit/sink": "dae1eff3665dec4070b58fac1c4cf30eaf6d5ebc77a31c07a669f535e1d7ebe0",
    "tiny/first-price/cold/audit/nosink": "b9eaa00c44880a56673f60a7c521eb53f54ec44750dedbf47d19a6c13f75c017",
    "tiny/first-price/cold/plain/sink": "424a7f3cd5cc4384a47e917d6909843c42b766155d7610c27ae817a919b43fe9",
    "tiny/first-price/cold/plain/nosink": "5507d87dfde019a974b8765fa12c1d94a41980c9e8be7807d6d352afa8ff0318",
    "tiny/first-price/warm/audit/sink": "8fdea7930b9b6f772d56ba8841552b650995affa3548df04f1d8b55f7d65ae9f",
    "tiny/first-price/warm/audit/nosink": "e57f020eec596d18b8268dc7b1842a1a4b5f4dbe57a74166b87ab123c5555e27",
    "tiny/first-price/warm/plain/sink": "4322a6ffdc76dc1189c607fadd7529c83f0b7022902f7216ee0d657a37605bd0",
    "tiny/first-price/warm/plain/nosink": "a6a8f4726935a3af9fbea1687417e3c7fd574a79ff7071799c34470254578ebe",
    "tiny/projection/cold/audit/sink": "bcbfc764e6c71d9b403916a0f6119c506ad4d83ba9fcc1541186ab35663180ae",
    "tiny/projection/cold/audit/nosink": "d45661e2d82f6e6e322b44c601b82a7a457ed0edc4e2bac48390381066b5852d",
    "tiny/projection/cold/plain/sink": "7f7a45ef74927d5f08128f6e8c7a2ecdc9a618fcff25b89210aa01d555b96a79",
    "tiny/projection/cold/plain/nosink": "1f820abb6ce2a7804bb62fd0819f5f02f2417e5e6c81fc50c5d458ed6474bd2b",
    "tiny/projection/warm/audit/sink": "047b8ed811f5479a99e243c485ea60b7ccab2258a05a19629ab34b1cd7cc2bc0",
    "tiny/projection/warm/audit/nosink": "1f10d0ef1706f951f79fef7ad3fe29a3aad08b512182ade314235e8788812fc1",
    "tiny/projection/warm/plain/sink": "12d0b51f14922183e3059a4bb04ffc233665879f9c1e22fb112c5fd7e4e741f4",
    "tiny/projection/warm/plain/nosink": "dcba70ae1e1ce391b4eb4bde27ff3381037ae78c2e75aa436a278afc41194cc6",
    "tiny/inflation/cold/audit/sink": "08d6bfe89705f080e066bcc132b8885aaf617ca285e22b1527e0d9620f34d462",
    "tiny/inflation/cold/audit/nosink": "f8d6c1231690866ebad1bf23619cfc2cc9b9510b24ce26ff9a2957edcf244771",
    "tiny/inflation/cold/plain/sink": "0aa78b421b96d00294f5661e11996d89d555eae234621ac8194581fbb5b88ab1",
    "tiny/inflation/cold/plain/nosink": "58d1af5a7e711659bc53659daa2f1c564f58e09d3f58378ec18e7a811b4bc2ee",
    "tiny/inflation/warm/audit/sink": "c1b3a6806d14c9f5b77d7fd2e410ce6521a7f02cd330d120e4021c4f30b44935",
    "tiny/inflation/warm/audit/nosink": "64fc7125f7a47d6bf82b5303ebd1da8ca08f14a976e2ad6e7269f24acba9eec1",
    "tiny/inflation/warm/plain/sink": "8869af5327bbd2bb846d25111f30c37db4618ab52edb0add3d814dfc79eca888",
    "tiny/inflation/warm/plain/nosink": "2ab535cee6c1f833b2fad20ad067263ae0c745b692ce30f5a15e1f6eaf7be0c4",
    "tiny/max-rounds/cold/audit/sink": "6bfc160a70c093ac44020c7e4d637b3f563e59457f1e7ddcad5b7e88d3f9f93e",
    "tiny/max-rounds/cold/audit/nosink": "276ff50a8eb6403ce891f2b1a7c8da5820f4f9edad769717e92b4749e0a57714",
    "tiny/max-rounds/cold/plain/sink": "743a2a60253c8004f2c2d5bba95340f10c6fd3b591d1ce67fc554d6ed66a5e6a",
    "tiny/max-rounds/cold/plain/nosink": "13724cdb18327bd9b8403b818ddae790fb1277bab08e9f82d8350b4a43782669",
    "tiny/max-rounds/warm/audit/sink": "d2b40271ac3fd2bdce572ea9c23e5fca77049b3289335280ca61ba19068fbf19",
    "tiny/max-rounds/warm/audit/nosink": "87dcc0c9339e4bbcd7606178a603cfa366fed8f69181905a3aedb0a76b4d6ef5",
    "tiny/max-rounds/warm/plain/sink": "bc29118b0ee1e4bcdcd876db9edc8ab9688afa87ee8bc42f84d5642a3be87ddf",
    "tiny/max-rounds/warm/plain/nosink": "0a2a2085c1cad804c96440ed84830e0f30ec8363aa009575ee420ac65857410f",
    "tiny/batched/cold/audit/sink": "9e6d93867c20f699a11b99ad1dc63120fd0ae110fa6404094cdce7b09fd3acf5",
    "tiny/batched/cold/audit/nosink": "bdb5741a6486f66e371805b01adfe55907180e779c52303920c70571d29360ed",
    "tiny/batched/cold/plain/sink": "c6bf88e653043f2f79e222a9db71bc2227efa8b856e94ee6c1065cc107e9e104",
    "tiny/batched/cold/plain/nosink": "ada64f166acf1204c7c30c3094bfa5edc1ac555142bf51fced6f9b894c4c1ffd",
    "tiny/batched/warm/audit/sink": "ce56fd575320ef91c5b81c91a9a8fa4f4364d726e21c2cff2efc036c88dbab1e",
    "tiny/batched/warm/audit/nosink": "d6e826fd33fc6298f22fec9872b95a14bc6af6182a19f5fc026012b757171685",
    "tiny/batched/warm/plain/sink": "9e832c893491825592a47543ef573469f472434c66e1800528f25ad57d44fb23",
    "tiny/batched/warm/plain/nosink": "4f7c831ecb61b5970e19d7fc01b3d9c0d197c75fdd613671b21a9210a7b585a5",
    "small/default/cold/audit/sink": "bb6fe62502c024c0c638d41ecd4d1a21a166fdeb21a7bc86edda14ece603ccf0",
    "small/default/cold/audit/nosink": "c796c91779231f02414e6b05aefee0a4902608b813996050fad1ab50b1885bcd",
    "small/default/cold/plain/sink": "9610621f580ccd54845109db094a744aba0037599da331395b453980fd1862ca",
    "small/default/cold/plain/nosink": "f09f9e9821449f6c9dd4b905bb95302298ad02006ab44325739758e1338d0f86",
    "small/default/warm/audit/sink": "f5a94804e2e285f60f054227a69c6357bef8f672015490a3ad0d17da6e0f3c42",
    "small/default/warm/audit/nosink": "983aed895da4f871f3808b4052a0f35c6ac2de6dbc4ca8e21b65e5a220e227b4",
    "small/default/warm/plain/sink": "e2d8faeab4bb01a25483f8d049e0a2a38b98ec8cde9c472ec5a230e964f5348a",
    "small/default/warm/plain/nosink": "7fc77b99009aed837918cbdabf489b990b1c80d8a7d40a85f1e2ad1b3e976838",
    "small/naive/cold/audit/sink": "bb6fe62502c024c0c638d41ecd4d1a21a166fdeb21a7bc86edda14ece603ccf0",
    "small/naive/cold/audit/nosink": "c796c91779231f02414e6b05aefee0a4902608b813996050fad1ab50b1885bcd",
    "small/naive/cold/plain/sink": "9610621f580ccd54845109db094a744aba0037599da331395b453980fd1862ca",
    "small/naive/cold/plain/nosink": "f09f9e9821449f6c9dd4b905bb95302298ad02006ab44325739758e1338d0f86",
    "small/naive/warm/audit/sink": "f5a94804e2e285f60f054227a69c6357bef8f672015490a3ad0d17da6e0f3c42",
    "small/naive/warm/audit/nosink": "983aed895da4f871f3808b4052a0f35c6ac2de6dbc4ca8e21b65e5a220e227b4",
    "small/naive/warm/plain/sink": "e2d8faeab4bb01a25483f8d049e0a2a38b98ec8cde9c472ec5a230e964f5348a",
    "small/naive/warm/plain/nosink": "7fc77b99009aed837918cbdabf489b990b1c80d8a7d40a85f1e2ad1b3e976838",
    "small/projection/cold/audit/sink": "d88aa3b32bb2980048095ca1b4f3d05a020e32ccf4870f979adc218d15834c4b",
    "small/projection/cold/audit/nosink": "07b9975f165e345b79d6448f230c9a1cebdaf70d53aa4270dacce607e6179c41",
    "small/projection/cold/plain/sink": "26a5ec6c5be35d53a10241bcd7d7de52d6c48800f0d5a4bbe3c6341e9705844e",
    "small/projection/cold/plain/nosink": "f09f9e9821449f6c9dd4b905bb95302298ad02006ab44325739758e1338d0f86",
    "small/projection/warm/audit/sink": "fb170ee0f2c24e67e4b544a7a3d1543a09c280fb34028deac35c04ed74844f13",
    "small/projection/warm/audit/nosink": "2948bf8e242583a7eb5069fcb3431c12cb3752ba5b3d9b6098a233ae7a93b0c4",
    "small/projection/warm/plain/sink": "59368253a7775b3f14496b07e68feaffd45cc67dea78d039eaa8b1555055dc19",
    "small/projection/warm/plain/nosink": "7fc77b99009aed837918cbdabf489b990b1c80d8a7d40a85f1e2ad1b3e976838",
}


@pytest.fixture(scope="module")
def setups():
    """Per scale: the instance and its warm start state (built once)."""
    out = {}
    for scale in SCALE_CONFIGS:
        instance = paper_instance(bench_config(scale))
        rounds = AGTRam().run(instance).rounds
        warm = AGTRam(max_rounds=rounds // 2).run(instance).state
        out[scale] = (instance, warm)
    return out


def _record_digest(result, events) -> str:
    h = hashlib.sha256()
    extra = result.extra
    for arr in (result.state.x, extra["payments"], extra["utilities"]):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((float(result.otc).hex(), result.rounds)).encode())
    for event in events:
        h.update(json.dumps(event.to_dict(), sort_keys=True).encode())
    audit = extra.get("audit")
    for rec in audit.rounds if audit is not None else ():
        for arr in (rec.reported, rec.objects):
            h.update(arr.dtype.str.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(
            repr(
                (
                    int(rec.winner),
                    int(rec.obj),
                    float(rec.payment).hex(),
                    float(rec.true_value).hex(),
                )
            ).encode()
        )
    series = extra.get("round_series")
    if series is not None:
        h.update(json.dumps(series.to_dict()).encode())
    return h.hexdigest()


def _run(instance, warm, config, start, audit, sink, traced):
    mech = AGTRam(**CONFIGS[config])
    kwargs = {"record_audit": audit == "audit"}
    if start == "warm":
        kwargs["initial_state"] = warm.copy()
    with ev.logical_time(), obs.capture(obs.Tracer(enabled=traced)):
        if sink == "sink":
            with ev.capture(ev.ColumnarSink()) as columnar:
                result = mech.run(instance, **kwargs)
            events = list(columnar.iter_events())
        else:
            result = mech.run(instance, **kwargs)
            events = []
    return result, events


class TestPinnedMechanismOutput:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "scale,config,start,audit,sink", CASES, ids=["/".join(c) for c in CASES]
    )
    def test_run_is_pinned(self, setups, scale, config, start, audit, sink, traced):
        instance, warm = setups[scale]
        result, events = _run(instance, warm, config, start, audit, sink, traced)
        key = "/".join((scale, config, start, audit, sink))
        assert _record_digest(result, events) == PINNED[key]

    def test_warm_start_recommits_a_warm_object(self, setups):
        # At small the second half of the game never returns to a warm
        # object; tiny's does, so its warm digests cover the seeding.
        instance, warm = setups["tiny"]
        result, _ = _run(instance, warm, "default", "warm", "audit", "sink", False)
        warm_extra = warm.x.copy()
        warm_extra[instance.primaries, np.arange(instance.n_objects)] = False
        committed = [r.obj for r in result.extra["audit"].rounds if r.winner >= 0]
        assert committed
        assert warm_extra[:, committed].any(axis=0).any()
