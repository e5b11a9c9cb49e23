"""The lean replication state and delta engine against the ones they replaced.

``tests/_drp_reference.py`` keeps the state with its ``nn_server`` table
and the engine with its stored eligibility mask and full-sweep start.
Both versions run the same operations on the same small instances —
integer-weight ones too, where replicas and reports tie — and must agree
bit for bit after every step: the scheme, the NN distances, the storage,
the broadcast's dirty mask, the replica count and every agent's dominant
report.  Replays price the same reads, a cached engine start equals a
full sweep, and ``check_state`` names the same fault as the loop it
replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _drp_reference as ref
from repro.core.agt_ram import run_agt_ram
from repro.drp import feasibility
from repro.drp.delta import DeltaBenefitEngine
from repro.drp.feasibility import check_state
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import InfeasibleInstanceError
from repro.runtime.replay import replay_requests


@st.composite
def lean_instances(draw):
    """Small instances; with ``integer`` costs and demand, ties abound."""
    m = draw(st.integers(min_value=2, max_value=20))
    n = draw(st.integers(min_value=1, max_value=8))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if integer:
        raw = rng.integers(1, 4, size=(m, m)).astype(np.float64)
    else:
        raw = rng.uniform(1.0, 10.0, size=(m, m))
    cost = np.triu(raw, 1)
    cost = cost + cost.T
    reads = rng.integers(0, 6 if integer else 20, size=(m, n))
    writes = rng.integers(0, 3 if integer else 6, size=(m, n))
    sizes = rng.integers(1, 2 if integer else 4, size=n)
    primaries = rng.integers(0, m, size=n)
    primary_load = np.zeros(m, dtype=np.int64)
    np.add.at(primary_load, primaries, sizes)
    headroom = rng.integers(0, 2 + int(sizes.sum()), size=m)
    return DRPInstance(
        cost=cost,
        reads=reads,
        writes=writes,
        sizes=sizes,
        capacities=primary_load + headroom,
        primaries=primaries,
    )


def _assert_same(lean, old, engine, old_engine) -> None:
    assert np.array_equal(lean.x, old.x)
    assert lean.nn_dist.tobytes() == old.nn_dist.tobytes()
    assert np.array_equal(lean.used, old.used)
    assert np.array_equal(lean.last_nn_changed, old.last_nn_changed)
    assert lean.n_replicas_added == old.n_replicas_added
    vals, objs = engine.best_per_server()
    old_vals, old_objs = old_engine.best_per_server()
    assert vals.tobytes() == old_vals.tobytes()
    assert np.array_equal(objs, old_objs)


def _pick_host(rng, state) -> tuple[int, int] | None:
    """A random (server, object) the state can take, or None."""
    cells = [
        (i, k)
        for i in range(state.instance.n_servers)
        for k in range(state.instance.n_objects)
        if state.can_host(i, k)
    ]
    return cells[int(rng.integers(len(cells)))] if cells else None


def _bulk_columns(rng, state, ks) -> np.ndarray:
    """New X columns for ``ks`` (primaries kept) that fit every server."""
    inst = state.instance
    cols = rng.random((inst.n_servers, len(ks))) < 0.3
    cols[inst.primaries[ks], np.arange(len(ks))] = True
    sizes = inst.sizes[ks]
    used = state.used - state.x[:, ks] @ sizes + cols @ sizes
    if (used > inst.capacities).any():
        cols = np.zeros_like(cols)  # primaries only always fit
        cols[inst.primaries[ks], np.arange(len(ks))] = True
    return cols


OPS = ("commit", "winner", "refresh_object", "refresh_server", "bulk",
       "recompute", "copy", "resync", "restart")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    inst=lean_instances(),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_same_operations_same_bits(inst, ops, seed):
    rng = np.random.default_rng(seed)
    lean, old = ReplicationState(inst), ref.ReplicationState(inst)
    engine, old_engine = DeltaBenefitEngine(inst, lean), ref.DeltaBenefitEngine(inst, old)
    _assert_same(lean, old, engine, old_engine)
    for op in ops:
        if op in ("commit", "winner"):
            if op == "winner":  # the mechanism's commit: the best report
                vals, objs = engine.best_per_server()
                w = int(vals.argmax())
                cell = (w, int(objs[w])) if np.isfinite(vals[w]) else None
            else:  # any allocation keeps the dirty-set argument exact
                cell = _pick_host(rng, lean)
            if cell is None:
                continue
            for state, eng in ((lean, engine), (old, old_engine)):
                state.add_replica(*cell)
                eng.notify_allocation(*cell)
        elif op == "refresh_object":
            k = int(rng.integers(inst.n_objects))
            engine.refresh_object(k)
            old_engine.refresh_object(k)
        elif op == "refresh_server":
            i = int(rng.integers(inst.n_servers))
            engine.refresh_server(i)
            old_engine.refresh_server(i)
        elif op in ("bulk", "recompute"):
            # A bulk edit changes the state under the engine; the
            # protocols resync it before anything else reads it.
            if op == "bulk":
                ks = np.flatnonzero(rng.random(inst.n_objects) < 0.5)
                cols = _bulk_columns(rng, lean, ks)
                lean.replace_columns(ks, cols)
                old.replace_columns(ks, cols)
            else:
                lean.recompute_nn()
                old.recompute_nn()
            engine.resync()
            old_engine.resync()
        elif op == "copy":
            lean, old = lean.copy(), old.copy()
            engine = DeltaBenefitEngine(inst, lean)
            old_engine = ref.DeltaBenefitEngine(inst, old)
        elif op == "resync":
            engine.resync()
            old_engine.resync()
        else:  # a fresh engine over the live state: cached or swept start
            engine = DeltaBenefitEngine(inst, lean)
        _assert_same(lean, old, engine, old_engine)

    check_state(lean)
    servers = rng.integers(inst.n_servers, size=50)
    objects = rng.integers(inst.n_objects, size=50)
    is_read = rng.random(50) < 0.7
    assert replay_requests(inst, lean, servers, objects, is_read) == (
        ref.replay_requests(inst, old, servers, objects, is_read)
    )


@settings(max_examples=40, deadline=None)
@given(inst=lean_instances())
def test_cached_start_equals_a_full_sweep(inst):
    first = DeltaBenefitEngine(inst, ReplicationState(inst))  # sweeps, caches
    cached = DeltaBenefitEngine(inst, ReplicationState(inst))  # copies
    swept = DeltaBenefitEngine(inst, ReplicationState(inst))
    swept._sweep()
    old = ref.DeltaBenefitEngine(inst, ref.ReplicationState(inst))
    want_vals, want_objs = old.best_per_server()
    for engine in (first, cached, swept):
        vals, objs = engine.best_per_server()
        assert vals.tobytes() == want_vals.tobytes()
        assert np.array_equal(objs, want_objs)
    # The cache is the instance's, not an engine's: repairs leave it be.
    vals, objs = cached.best_per_server()
    w = int(vals.argmax())
    if np.isfinite(vals[w]):
        cached.state.add_replica(w, int(objs[w]))
        cached.notify_allocation(w, int(objs[w]))
    again = DeltaBenefitEngine(inst, ReplicationState(inst)).best_per_server()
    assert again[0].tobytes() == want_vals.tobytes()


def test_mechanism_run_matches_the_reference_pair(tiny_instance):
    """Figure 2's loop on both pairs commits the same replicas in order."""
    lean = ReplicationState(tiny_instance)
    old = ref.ReplicationState(tiny_instance)
    engine = DeltaBenefitEngine(tiny_instance, lean)
    old_engine = ref.DeltaBenefitEngine(tiny_instance, old)
    while True:
        vals, objs = engine.best_per_server()
        w = int(vals.argmax())
        if not np.isfinite(vals[w]) or vals[w] <= 0.0:
            break
        for state, eng in ((lean, engine), (old, old_engine)):
            state.add_replica(w, int(objs[w]))
            eng.notify_allocation(w, int(objs[w]))
        _assert_same(lean, old, engine, old_engine)
    assert lean.n_replicas_added > 0
    assert np.array_equal(run_agt_ram(tiny_instance).state.x, lean.x)


# -- check_state against the per-object loop ---------------------------------


def _tampered(kind: str, instance: DRPInstance, k: int) -> ReplicationState:
    """A placed scheme with one fault of ``kind`` (on object ``k``)."""
    state = run_agt_ram(instance).state.copy()
    inst = state.instance
    if kind == "missing-primary":
        state.x[inst.primaries[k], k] = False
    elif kind == "used-drift":
        state.used[int(inst.primaries[k])] += 1
    elif kind == "stale-nn":
        state.nn_dist[:, k] += 1.0
    elif kind == "overload":
        i = int(inst.primaries[k])
        extra = np.flatnonzero(~state.x[i])
        state.x[i, extra] = True
        state.used[i] = int(state.x[i] @ inst.sizes)
    return state


def _message(check, state) -> str | None:
    try:
        check(state)
    except InfeasibleInstanceError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cells", [None, 1, 700])
@pytest.mark.parametrize(
    "kind", ["clean", "missing-primary", "used-drift", "stale-nn", "overload"]
)
def test_check_state_names_the_fault_the_loop_names(
    kind, cells, tiny_instance, monkeypatch
):
    if cells is not None:  # one object per block, or several
        monkeypatch.setattr(feasibility, "_NN_CHECK_CELLS", cells)
    n = tiny_instance.n_objects
    for k in (0, n // 2, n - 1):
        state = _tampered(kind, tiny_instance, k)
        want = _message(ref.check_state, state)
        assert _message(check_state, state) == want
        assert (want is None) == (kind == "clean")


@settings(max_examples=40, deadline=None)
@given(
    inst=lean_instances(),
    stale=st.sets(st.integers(min_value=0, max_value=7), max_size=3),
    cells=st.sampled_from([1, 5, 40, 1 << 20]),
)
def test_check_state_names_the_first_stale_object(inst, stale, cells):
    state = run_agt_ram(inst).state.copy()
    for k in stale:
        if k < inst.n_objects:
            state.nn_dist[0, k] += 0.5
    old = feasibility._NN_CHECK_CELLS
    feasibility._NN_CHECK_CELLS = cells
    try:
        got = _message(check_state, state)
    finally:
        feasibility._NN_CHECK_CELLS = old
    assert got == _message(ref.check_state, state)
