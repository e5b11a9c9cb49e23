"""The record contract of the dataclasses the hot paths build.

Events, protocol messages, serving requests and the per-round records of
the central body, the sharded central and the sharded audit are built
once per bid, round or request and never changed afterwards.  They are
plain dataclasses, so their generated ``__init__`` stores each field as
an ordinary attribute; everything else a frozen record had is pinned
here: equality and hashing by field values, field order, the JSON form
and its parser, pickle bytes and the ``__post_init__`` coercions.  That
no consumer changes an emitted event is checked by
``tests/test_obs_log_integrity.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drp.cost import OTCBreakdown
from repro.drp.instance import DRPInstance
from repro.obs import events as ev
from repro.obs.audit import _ShardCommit
from repro.runtime import messages
from repro.runtime.adversary import AdversarySpec
from repro.runtime.central import Decision, RoundOutcome
from repro.runtime.faults import Checkpoint, FaultPlan, FaultSchedule
from repro.runtime.invariants import InvariantConfig
from repro.runtime.scenario import (
    AdversaryPlane,
    FaultPlane,
    PartitionPlane,
    Scenario,
)
from repro.runtime.shard import PartitionWindow, ShardAllocation
from repro.serving.loop import ServeConfig
from repro.serving.streams import ServeRequest

EVENTS = (ev.Event, *ev.EVENT_TYPES.values())
MESSAGES = (
    messages.Message,
    messages.BidMessage,
    messages.AllocateMessage,
    messages.PaymentMessage,
    messages.NNUpdateMessage,
    messages.NNResyncMessage,
    messages.StateSyncMessage,
    messages.ElectionMessage,
)
#: Every class a hot path builds once per bid, round or request.
RECORDS = (
    *EVENTS,
    *MESSAGES,
    ServeRequest,
    RoundOutcome,
    ShardAllocation,
    _ShardCommit,
)
#: Built once per run or used as configuration: these keep their guard.
CONFIGS = (
    DRPInstance,
    Scenario,
    FaultPlane,
    AdversaryPlane,
    PartitionPlane,
    FaultSchedule,
    FaultPlan,
    ServeConfig,
    InvariantConfig,
    Checkpoint,
    OTCBreakdown,
    PartitionWindow,
    AdversarySpec,
)
#: The fields ``__post_init__`` turns into (nested) tuples.
COERCED = {
    ev.TimeoutEvent: ("agents",),
    ev.ServeStart: ("primaries", "replicas"),
    ev.ReauctionEvent: ("objects", "added", "removed"),
    ev.PartitionEvent: ("islands",),
    ev.HealEvent: ("islands",),
    ev.ReconcileEvent: ("conflicts", "kept", "revoked", "reauctioned"),
    messages.NNResyncMessage: ("objs",),
    messages.StateSyncMessage: ("objs",),
}

_ints = st.integers(-(2**40), 2**40)
#: One strategy per field annotation the records use.  NaN is left out:
#: a NaN field makes a record unequal to itself, frozen or not.
_FIELD_VALUES = {
    "int": _ints,
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=8),
    "bool": st.booleans(),
    "tuple[int, ...]": st.lists(_ints, max_size=4).map(tuple),
    "tuple[tuple[int, int], ...]": st.lists(
        st.tuples(_ints, _ints), max_size=4
    ).map(tuple),
    "Decision": st.sampled_from(Decision),
}


def _names(cls: type) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _values(cls: type) -> st.SearchStrategy[tuple]:
    """One value per field of ``cls``, in declaration order."""
    return st.tuples(*(_FIELD_VALUES[f.type] for f in dataclasses.fields(cls)))


def _field_tuple(record: object) -> tuple:
    return tuple(getattr(record, name) for name in _names(type(record)))


def _ids(cls: type) -> str:
    return cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
class TestRecordContract:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_equal_fields_give_equal_records_and_hashes(self, cls, data):
        values = data.draw(_values(cls))
        a = cls(*values)
        b = cls(**dict(zip(_names(cls), values)))
        assert a == b
        assert _field_tuple(a) == values
        assert hash(a) == hash(b) == hash(values)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_replace_round_trips(self, cls, data):
        values = data.draw(_values(cls))
        other = data.draw(_values(cls))
        record = cls(*values)
        assert dataclasses.replace(record) == record
        changed = dataclasses.replace(record, **dict(zip(_names(cls), other)))
        assert changed == cls(*other)
        back = dataclasses.replace(changed, **dict(zip(_names(cls), values)))
        assert back == record and hash(back) == hash(record)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_pickle_round_trip(self, cls, data):
        record = cls(*data.draw(_values(cls)))
        back = pickle.loads(pickle.dumps(record, protocol=5))
        assert type(back) is cls
        assert back == record and hash(back) == hash(record)


@pytest.mark.parametrize("cls", EVENTS, ids=_ids)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_to_dict_is_the_fields_in_order_plus_type(cls, data):
    event = cls(*data.draw(_values(cls)))
    d = event.to_dict()
    assert list(d) == [*_names(cls), "type"]
    assert d["type"] == cls.type
    assert tuple(d[name] for name in _names(cls)) == _field_tuple(event)


@pytest.mark.parametrize("cls", list(ev.EVENT_TYPES.values()), ids=_ids)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_parse_event_inverts_to_dict(cls, data):
    event = cls(*data.draw(_values(cls)))
    assert ev.parse_event(event.to_dict()) == event
    # The JSONL form turns tuples into lists; parsing restores them.
    assert ev.parse_event(json.loads(json.dumps(event.to_dict()))) == event


def _as_lists(value: tuple) -> list:
    return [list(v) if isinstance(v, tuple) else v for v in value]


@pytest.mark.parametrize("cls", list(COERCED), ids=_ids)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_list_inputs_become_tuples(cls, data):
    tuple_fields = {
        f.name for f in dataclasses.fields(cls) if f.type.startswith("tuple")
    }
    assert set(COERCED[cls]) == tuple_fields
    values = data.draw(_values(cls))
    listed = [
        _as_lists(v) if name in tuple_fields else v
        for name, v in zip(_names(cls), values)
    ]
    record = cls(*listed)
    assert record == cls(*values)
    assert hash(record) == hash(values)
    for name in COERCED[cls]:
        value = getattr(record, name)
        assert type(value) is tuple
        assert all(type(v) in (int, tuple) for v in value)


class TestFrozenness:
    def test_records_store_plain_attributes(self):
        for cls in RECORDS:
            assert not cls.__dataclass_params__.frozen, cls
            # No per-field object.__setattr__ in the generated __init__.
            assert cls.__setattr__ is object.__setattr__, cls

    def test_configs_stay_frozen(self):
        for cls in CONFIGS:
            assert cls.__dataclass_params__.frozen, cls

    def test_frozen_subclass_of_a_record_is_rejected(self):
        with pytest.raises(TypeError):

            @dataclasses.dataclass(frozen=True)
            class FrozenBid(ev.BidEvent):
                pass


def _sample_records() -> list:
    """One record of every class in :data:`RECORDS`, fixed field values."""
    fixed = {
        "int": lambda i: 7 * i - 3,
        "float": lambda i: i + 0.25,
        "str": lambda i: f"s{i}",
        "bool": lambda i: i % 2 == 0,
        "tuple[int, ...]": lambda i: (i, i + 1),
        "tuple[tuple[int, int], ...]": lambda i: ((i, i + 1), (i + 2, i)),
        "Decision": lambda i: Decision(i % 2),
    }
    return [
        cls(*(fixed[f.type](i) for i, f in enumerate(dataclasses.fields(cls))))
        for cls in RECORDS
    ]


#: sha256 of ``pickle.dumps(_sample_records(), protocol=5)``, recorded
#: while every class in RECORDS was still a frozen dataclass.
SAMPLE_PICKLE_SHA256 = (
    "5e931f246ddf6c489abc0b225a941d2f8aa8656df702131e94d9eac7ba6e9359"
)


def test_pickle_bytes_are_pinned():
    data = pickle.dumps(_sample_records(), protocol=5)
    assert hashlib.sha256(data).hexdigest() == SAMPLE_PICKLE_SHA256
