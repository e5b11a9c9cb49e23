"""Columnar pipeline tests: binary codec round-trips, JSONL rotation,
windowed/streaming audit equivalence and emission identity.

The contracts under test (docs/observability.md):

* the ``REVB`` binary codec decodes back to the *same typed events* for
  every registered kind and any field values (property-based);
* a rotated JSONL log is a set of self-contained chunks whose
  concatenated replay equals the unrotated stream, re-discoverable from
  the logical path alone;
* windowing the audit never changes its verdicts — only when partial
  reports surface;
* a real mechanism run's columnar stream is byte-equivalent to the
  stream its own audit transcript implies (one event object per
  decision, replayed on a fresh state).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as ev
from repro.obs import export
from repro.obs.audit import audit_events, audit_files, audit_stream
from repro.obs.events import (
    EVENT_TYPES,
    BidEvent,
    ColumnarRoundBuffer,
    PartitionEvent,
    PaymentEvent,
    RoundStart,
    ServeStart,
    WinnerEvent,
    iter_block_events,
)
from _export_reference import SegmentCodec
from repro.obs.export import (
    BINARY_MAGIC,
    RotatingJsonlWriter,
    chunk_path,
    event_log_chunks,
    iter_events_binary,
    open_event_stream,
    read_events_binary,
    read_events_jsonl,
    write_events_binary,
    write_events_jsonl,
)


@pytest.fixture(scope="module")
def tiny_events():
    """The event stream of one real tiny-preset AGT-RAM run."""
    from repro.core.agt_ram import AGTRam
    from repro.experiments.instances import paper_instance
    from repro.obs.report import bench_config

    instance = paper_instance(bench_config("tiny"))
    with ev.logical_time():
        with ev.capture(ev.ColumnarSink()) as sink:
            AGTRam(engine="vectorized").run(instance)
    return list(sink.iter_events())


# -- binary codec ------------------------------------------------------------

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Object/agent indices: ReauctionEvent coerces them through int(), so
# keep them in a realistic range rather than the full i64 span.
_INDEX = st.integers(min_value=-1, max_value=10_000)

#: One strategy per field-annotation shape the codec supports; every
#: event field resolves through this table, so a new field shape fails
#: loudly here before it can fail silently in the codec.
_FIELD_STRATEGIES: dict[str, st.SearchStrategy] = {
    "float": st.floats(allow_nan=False, width=64),
    "int": _INT64,
    "bool": st.booleans(),
    "str": st.text(max_size=30),
    "tuple[int, ...]": st.lists(_INDEX, max_size=6).map(tuple),
    "tuple[tuple[int, int], ...]": st.lists(
        st.tuples(_INDEX, _INDEX), max_size=6
    ).map(tuple),
}


def _event_strategy(cls) -> st.SearchStrategy:
    return st.builds(
        cls, **{f.name: _FIELD_STRATEGIES[f.type] for f in fields(cls)}
    )


arbitrary_events = st.lists(
    st.one_of([_event_strategy(cls) for cls in EVENT_TYPES.values()]),
    max_size=12,
)


class TestBinaryCodec:
    def test_every_registered_kind_round_trips(self, tmp_path):
        events = [cls(t=0.25) for cls in EVENT_TYPES.values()]
        path = write_events_binary(events, tmp_path / "defaults.rev")
        assert read_events_binary(path) == events

    @given(events=arbitrary_events)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_lossless(self, events, tmp_path_factory):
        path = tmp_path_factory.mktemp("rev") / "log.rev"
        write_events_binary(events, path)
        decoded = read_events_binary(path)
        assert decoded == events
        # Not just equal: same concrete kinds, same serialized form.
        assert [e.to_dict() for e in decoded] == [e.to_dict() for e in events]

    def test_real_run_round_trips_and_beats_jsonl(self, tiny_events, tmp_path):
        jsonl = write_events_jsonl(tiny_events, tmp_path / "run.jsonl")
        binary = write_events_binary(tiny_events, tmp_path / "run.rev")
        assert read_events_binary(binary) == tiny_events
        assert read_events_jsonl(jsonl) == tiny_events
        assert binary.stat().st_size < jsonl.stat().st_size

    def test_open_event_stream_sniffs_both_formats(self, tiny_events, tmp_path):
        jsonl = write_events_jsonl(tiny_events, tmp_path / "run.jsonl")
        binary = write_events_binary(tiny_events, tmp_path / "run.rev")
        assert list(open_event_stream(binary)) == tiny_events
        assert list(open_event_stream(jsonl)) == tiny_events

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bogus.rev"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="binary event log"):
            list(iter_events_binary(p))

    def test_newer_container_version_rejected(self, tmp_path):
        p = tmp_path / "future.rev"
        p.write_bytes(BINARY_MAGIC + bytes([99]) + b"\x00\x00")
        with pytest.raises(ValueError, match="newer than supported"):
            list(iter_events_binary(p))

    def test_unknown_kind_tag_rejected(self, tmp_path):
        p = tmp_path / "alien.rev"
        tag = b"martian"
        p.write_bytes(
            BINARY_MAGIC + bytes([1]) + b"\x01\x00" + bytes([len(tag)]) + tag
        )
        with pytest.raises(ValueError, match="unknown event kind"):
            list(iter_events_binary(p))

    def test_truncated_record_rejected(self, tmp_path, tiny_events):
        full = write_events_binary(tiny_events, tmp_path / "full.rev")
        cut = tmp_path / "cut.rev"
        cut.write_bytes(full.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            list(iter_events_binary(cut))

    def test_payload_shorter_than_fields_rejected(self, tmp_path):
        # A BidEvent record declaring (and holding) 40 of its 48 bytes.
        head, record = _one_record_log(BidEvent(t=1.0, agent=2, obj=3), tmp_path)
        assert struct.unpack_from("<I", record, 1)[0] == 48
        short = record[:1] + struct.pack("<I", 40) + record[5:45]
        p = tmp_path / "short.rev"
        p.write_bytes(head + short)
        with pytest.raises(ValueError, match="record payload length mismatch"):
            list(iter_events_binary(p))

    def test_tuple_count_overrunning_payload_rejected(self, tmp_path):
        # t + round + u32 count + two i64 islands = a 36-byte payload.
        event = PartitionEvent(t=0.0, round=4, islands=(0, 1))
        head, record = _one_record_log(event, tmp_path)
        assert struct.unpack_from("<I", record, 1)[0] == 36
        claims_nine = record[:21] + struct.pack("<I", 9) + record[25:]
        p = tmp_path / "overrun.rev"
        p.write_bytes(head + claims_nine)
        with pytest.raises(ValueError, match="record payload length mismatch"):
            list(iter_events_binary(p))

    def test_overlong_payload_rejected(self, tmp_path):
        head, record = _one_record_log(RoundStart(t=0.0, round=1), tmp_path)
        size = struct.unpack_from("<I", record, 1)[0]
        padded = record[:1] + struct.pack("<I", size + 8) + record[5:] + bytes(8)
        p = tmp_path / "long.rev"
        p.write_bytes(head + padded)
        with pytest.raises(ValueError, match="24 decoded of 32"):
            list(iter_events_binary(p))


#: sha256 of the REVB v1 files below, recorded with the field-by-field
#: encoder the compiled codec replaced; any byte drift fails here even
#: if the encoder and decoder drift together.
PINNED_SHA256 = "81ab7c0c8bb7d283faa27f783c2bc7ed92d5a5540e9efeeba22564bbe5be3749"
TINY_RUN_SHA256 = "6535b4967ee8a9239e9d334b83d61e38a76e02f4223ad3298c09a05c7068662d"

#: Values the pinned events cycle through, per field shape.
_PIN_VALUES = {
    "float": (-0.0, math.inf, -2.5, 1e-300, -math.inf, 3.0e15 + 0.125),
    "int": (-1, -(2**63), 2**63 - 1, 7, -42, 123_456_789),
    "bool": (True, False),
    "str": ("ünïcødé", "", "区域-7", "rule/second_price", "émoji \U0001f680"),
    "tuple[int, ...]": ((3, -1, 2**40), (), (0,)),
    "tuple[tuple[int, int], ...]": (((0, 1), (-5, 2**33)), (), ((9, -9),)),
}


def _pinned_events() -> list:
    """One event of every registered kind, each field taking the next
    value of its shape's cycle in :data:`_PIN_VALUES`."""
    used = dict.fromkeys(_PIN_VALUES, 0)
    out = []
    for cls in EVENT_TYPES.values():
        kwargs = {}
        for f in fields(cls):
            pool = _PIN_VALUES[f.type]
            kwargs[f.name] = pool[used[f.type] % len(pool)]
            used[f.type] += 1
        out.append(cls(**kwargs))
    return out


def _reference_records(events) -> tuple[bytes, list[bytes]]:
    """REVB v1 encoded field by field, straight from the format spec in
    docs/observability.md: ``(file header, one record per event)``."""
    tags = list(EVENT_TYPES)
    head = BINARY_MAGIC + struct.pack("<BH", 1, len(tags))
    for tag in tags:
        raw = tag.encode("utf-8")
        head += struct.pack("<B", len(raw)) + raw
    records = []
    for event in events:
        payload = b""
        for f in fields(event):
            v = getattr(event, f.name)
            if f.type == "float":
                payload += struct.pack("<d", v)
            elif f.type == "int":
                payload += struct.pack("<q", v)
            elif f.type == "bool":
                payload += b"\x01" if v else b"\x00"
            elif f.type == "str":
                raw = v.encode("utf-8")
                payload += struct.pack("<I", len(raw)) + raw
            elif f.type == "tuple[int, ...]":
                payload += struct.pack(f"<I{len(v)}q", len(v), *v)
            else:
                flat = [x for pair in v for x in pair]
                payload += struct.pack(f"<I{len(flat)}q", len(v), *flat)
        records.append(
            struct.pack("<BI", tags.index(event.type), len(payload)) + payload
        )
    return head, records


def _one_record_log(event, tmp_path) -> tuple[bytes, bytes]:
    """``(file header, the event's record)`` as the writer emits them."""
    data = write_events_binary([event], tmp_path / "one.rev").read_bytes()
    head, _ = _reference_records([])
    assert data[: len(head)] == head
    return head, data[len(head) :]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: Field values for the two-codec comparison: empty and non-ASCII
#: strings and long tuples, on top of :data:`_FIELD_STRATEGIES`.
_CODEC_FIELDS = {
    **_FIELD_STRATEGIES,
    "str": st.sampled_from(["", "ünïcødé", "区域-7", "émoji \U0001f680"])
    | st.text(max_size=40),
    "tuple[int, ...]": st.lists(_INDEX, max_size=4).map(tuple)
    | st.lists(_INDEX, min_size=100, max_size=300).map(tuple),
    "tuple[tuple[int, int], ...]": st.lists(
        st.tuples(_INDEX, _INDEX), max_size=4
    ).map(tuple)
    | st.lists(st.tuples(_INDEX, _INDEX), min_size=100, max_size=200).map(tuple),
}


def _outcome(decode, *args) -> tuple:
    """What decoding gives: the event, or the ``ValueError`` raised."""
    try:
        return ("event", decode(*args))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


def _count_offsets(ref: SegmentCodec, record: bytes) -> list[int]:
    """Where each variable-width field's u32 count sits in ``record``."""
    pos, out = 5, []
    for _, ann, run in ref.segments:
        if run is not None:
            pos += run.size
            continue
        count = struct.unpack_from("<I", record, pos)[0]
        out.append(pos)
        pos += 4 + count * {"str": 1, "tuple[int, ...]": 8}.get(ann, 16)
    return out


@pytest.mark.parametrize("cls", list(EVENT_TYPES.values()), ids=lambda c: c.type)
class TestCompiledCodec:
    """Each kind's compiled codec against the segment codec it replaced
    (``tests/_export_reference.py``): the same bytes, the same events,
    the same ``ValueError`` texts."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bytes_and_decodes_equal_the_segment_codec(self, cls, data):
        event = data.draw(
            st.builds(cls, **{f.name: _CODEC_FIELDS[f.type] for f in fields(cls)})
        )
        codec, ref = export._CODECS[cls], SegmentCodec(cls)
        record = codec.encode(event)
        assert record == ref.pack(event)
        pad = data.draw(st.binary(max_size=9))
        buf = pad + record + data.draw(st.binary(max_size=9))
        rec, end = len(pad), len(pad) + len(record)
        assert codec.decode(buf, rec, end) == ref.decode(buf, rec + 5, end) == event

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_malformed_payloads_raise_the_segment_codecs_errors(self, cls, data):
        event = data.draw(
            st.builds(cls, **{f.name: _CODEC_FIELDS[f.type] for f in fields(cls)})
        )
        codec, ref = export._CODECS[cls], SegmentCodec(cls)
        record = codec.encode(event)
        cases = []  # (buf, end): every case but a grown count must raise
        # Cut anywhere in the payload, a count prefix included.
        cut = data.draw(st.integers(5, len(record) - 1))
        cases.append((record[:cut], cut))
        # Trailing bytes past the fields.
        extra = data.draw(st.binary(min_size=1, max_size=24))
        cases.append((record + extra, len(record) + len(extra)))
        # A count running past the payload.
        offsets = _count_offsets(ref, record)
        if offsets:
            at = data.draw(st.sampled_from(offsets))
            count = struct.unpack_from("<I", record, at)[0]
            grown = data.draw(st.integers(count + 1, 2**32 - 1))
            bad = record[:at] + struct.pack("<I", grown) + record[at + 4 :]
            cases.append((bad, len(bad)))
        for i, (buf, end) in enumerate(cases):
            got = _outcome(codec.decode, buf, 0, end)
            assert got == _outcome(ref.decode, buf, 5, end)
            # A grown count may still leave a well-formed record.
            assert got[0] == "error" or i == 2


class TestBinaryBytesPinned:
    def test_every_kind_with_edge_values_is_pinned(self, tmp_path):
        events = _pinned_events()
        assert {e.type for e in events} == set(EVENT_TYPES)
        values = [getattr(e, f.name) for e in events for f in fields(e)]
        assert {v for v in values if type(v) is bool} == {True, False}
        assert any(math.copysign(1.0, v) < 0 for v in values if v == 0.0)
        assert math.inf in values and -(2**63) in values
        assert any(not s.isascii() for s in values if type(s) is str)
        assert () in values and (3, -1, 2**40) in values
        assert ((0, 1), (-5, 2**33)) in values
        path = write_events_binary(events, tmp_path / "pinned.rev")
        assert _sha256(path) == PINNED_SHA256
        assert read_events_binary(path) == events

    def test_tiny_run_log_is_pinned(self, tiny_events, tmp_path):
        path = write_events_binary(tiny_events, tmp_path / "tiny.rev")
        assert _sha256(path) == TINY_RUN_SHA256

    @given(events=arbitrary_events)
    @settings(max_examples=60, deadline=None)
    def test_compiled_encoder_matches_reference(self, events, tmp_path_factory):
        path = tmp_path_factory.mktemp("rev") / "log.rev"
        head, records = _reference_records(events)
        assert write_events_binary(events, path).read_bytes() == head + b"".join(
            records
        )


class TestChunkedReader:
    def test_kind_index_out_of_range_rejected(self, tmp_path):
        head, _ = _reference_records([])
        p = tmp_path / "kind.rev"
        p.write_bytes(head + struct.pack("<BI", len(EVENT_TYPES), 0))
        with pytest.raises(ValueError, match="out of range"):
            list(iter_events_binary(p))

    @pytest.mark.parametrize(
        "keep", [1, 3, 5 + 20], ids=["header-kind-only", "header-mid-length", "payload"]
    )
    def test_truncation_in_header_or_payload_rejected(self, tmp_path, keep):
        # keep=1 and 3 cut the 5-byte record header, 25 cuts the payload.
        head, record = _one_record_log(BidEvent(t=2.0, round=1), tmp_path)
        p = tmp_path / "cut.rev"
        p.write_bytes(head + record + record[:keep])
        with pytest.raises(ValueError, match="truncated"):
            list(iter_events_binary(p))

    def test_header_only_log_is_empty(self, tmp_path):
        path = write_events_binary([], tmp_path / "empty.rev")
        assert path.read_bytes() == _reference_records([])[0]
        assert read_events_binary(path) == []

    def test_records_straddling_every_chunk_boundary_round_trip(self, tmp_path):
        # Fixed-width and variable-width records of varying length, a few
        # read chunks long; every chunk boundary must fall inside a record.
        events = []
        for i in range(3000):
            events.append(RoundStart(t=float(i), round=i))
            events.append(BidEvent(t=float(i), round=i, agent=i % 7, value=0.5 * i))
            events.append(PaymentEvent(t=float(i), round=i, rule="r" * (i % 11)))
        head, records = _reference_records(events)
        starts, pos = set(), len(head)
        for rec in records:
            starts.add(pos)
            pos += len(rec)
        chunk = export._IO_CHUNK
        boundaries = range(len(head) + chunk, pos, chunk)
        assert len(boundaries) >= 3
        assert all(b not in starts for b in boundaries)
        path = write_events_binary(events, tmp_path / "long.rev")
        assert path.read_bytes() == head + b"".join(records)
        assert read_events_binary(path) == events

    def test_record_longer_than_a_chunk_round_trips(self, tmp_path):
        pairs = tuple((i, i + 1) for i in range(export._IO_CHUNK // 16 + 5))
        events = [
            RoundStart(t=0.0, round=0),
            ServeStart(t=1.0, workload="wide", replicas=pairs),
            BidEvent(t=2.0, round=0, agent=1, obj=2, value=3.0),
        ]
        path = write_events_binary(events, tmp_path / "wide.rev")
        assert path.stat().st_size > export._IO_CHUNK
        assert read_events_binary(path) == events


# -- JSONL rotation ----------------------------------------------------------


class TestRotation:
    def test_chunk_naming(self):
        assert chunk_path("events.jsonl", 0).name == "events.part00000.jsonl"
        assert chunk_path("a/b/log.jsonl", 12).name == "log.part00012.jsonl"

    def test_no_limits_writes_single_file(self, tiny_events, tmp_path):
        logical = tmp_path / "plain.jsonl"
        with RotatingJsonlWriter(logical) as w:
            w.write_all(tiny_events)
        assert w.paths == [logical]
        assert event_log_chunks(logical) == [logical]
        assert read_events_jsonl(logical) == tiny_events

    def test_rotate_by_events(self, tiny_events, tmp_path):
        logical = tmp_path / "rot.jsonl"
        with RotatingJsonlWriter(logical, max_events=50) as w:
            w.write_all(tiny_events)
        assert len(w.paths) == math.ceil(len(tiny_events) / 50)
        # Each chunk is a self-contained log; concatenated replay is
        # the original stream; the chunk set is re-discoverable from
        # the logical path alone.
        replay = [e for p in w.paths for e in read_events_jsonl(p)]
        assert replay == tiny_events
        assert event_log_chunks(logical) == w.paths

    def test_rotate_by_bytes_never_splits_an_event(self, tiny_events, tmp_path):
        logical = tmp_path / "rotb.jsonl"
        with RotatingJsonlWriter(logical, max_bytes=4096) as w:
            w.write_all(tiny_events)
        assert len(w.paths) > 1
        replay = [e for p in event_log_chunks(logical) for e in read_events_jsonl(p)]
        assert replay == tiny_events

    def test_zero_events_yields_valid_empty_log(self, tmp_path):
        logical = tmp_path / "empty.jsonl"
        with RotatingJsonlWriter(logical):
            pass
        assert read_events_jsonl(logical) == []

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            event_log_chunks(tmp_path / "never.jsonl")


# -- windowed / streaming audit ----------------------------------------------


class TestWindowedAudit:
    def test_windowing_never_changes_the_verdict(self, tiny_events):
        whole = audit_events(tiny_events)
        assert whole.ok
        for window in (1, 5, 64, 10_000):
            assert audit_stream(iter(tiny_events), window=window) == whole

    def test_window_callback_streams_partial_reports(self, tiny_events):
        marks = []
        report = audit_stream(
            iter(tiny_events),
            window=4,
            on_window=lambda rounds, rep: marks.append((rounds, rep.ok)),
        )
        assert marks, "windowed audit fired no callbacks"
        assert [m[0] for m in marks] == sorted(m[0] for m in marks)
        assert marks[-1][0] <= report.rounds_audited

    def test_multi_chunk_audit_equals_whole_log(self, tiny_events, tmp_path):
        logical = tmp_path / "chunked.jsonl"
        with RotatingJsonlWriter(logical, max_events=40) as w:
            w.write_all(tiny_events)
        assert len(w.paths) > 2
        assert audit_files([logical], window=8) == audit_events(tiny_events)

    def test_mixed_format_chain(self, tiny_events, tmp_path):
        mid = len(tiny_events) // 2
        first = write_events_jsonl(tiny_events[:mid], tmp_path / "a.jsonl")
        second = write_events_binary(tiny_events[mid:], tmp_path / "b.rev")
        assert audit_files([first, second]) == audit_events(tiny_events)

    def test_corrupt_log_fails_windowed_and_whole_alike(self, tiny_events):
        tampered = [
            replace(e, value=e.value + 1.0) if isinstance(e, WinnerEvent) else e
            for e in tiny_events
        ]
        whole = audit_events(tampered)
        assert not whole.ok
        assert audit_stream(iter(tampered), window=3) == whole

    def test_negative_window_rejected(self, tiny_events):
        with pytest.raises(ValueError, match="window"):
            audit_stream(iter(tiny_events), window=-1)


# -- columnar stream vs transcript replay ------------------------------------


class TestEmissionIdentity:
    def test_same_seed_buffered_stream_is_byte_identical(self):
        from repro.core.agt_ram import AGTRam
        from repro.experiments.instances import paper_instance
        from repro.obs.overhead import replay_transcript
        from repro.obs.report import bench_config

        instance = paper_instance(bench_config("tiny"))
        with ev.logical_time():
            with ev.capture(ev.ColumnarSink()) as columnar:
                result = AGTRam(engine="vectorized").run(
                    instance, record_audit=True
                )
        reference, replayed = replay_transcript(instance, result.extra["audit"])
        assert [e.to_dict() for e in columnar.iter_events()] == [
            e.to_dict() for e in reference
        ]
        assert replayed.x.tobytes() == result.state.x.tobytes()

    def test_compare_emission_paths_identity(self):
        from repro.obs.overhead import compare_emission_paths

        cmp = compare_emission_paths("tiny", repeats=1)
        assert cmp.ok, cmp.mismatches
        assert cmp.n_events > 0 and cmp.rounds > 0
        assert cmp.configs == [
            "vectorized", "naive", "first-price", "strategies", "warm-start"
        ]


# -- the round ring ----------------------------------------------------------


def _stage_sample_rounds(buffer: ColumnarRoundBuffer) -> None:
    inf = math.inf
    buffer.stage([1.5, -inf, 2.5], [0, 0, 2])
    buffer.commit(winner=2, obj=2, residual_before=20, payment=1.5, otc=90.0)
    buffer.stage([0.5, 3.25, -inf], [1, 1, 0])
    buffer.commit(winner=1, obj=1, residual_before=13, payment=0.5, otc=84.0)
    buffer.stage([-inf, -inf, -inf], [0, 0, 0])
    buffer.close(otc=84.0)


def _expand_without_time(buffer: ColumnarRoundBuffer) -> list[dict]:
    block = buffer.flush()
    assert block is not None
    out = []
    for event in iter_block_events(block):
        d = event.to_dict()
        assert type(d.pop("t")) is float
        out.append(d)
    return out


class TestBufferBackends:
    SIZES = [5, 7, 9]

    def test_expansion_is_type_exact(self):
        buffer = ColumnarRoundBuffer(3, self.SIZES)
        _stage_sample_rounds(buffer)
        # Type-exact: ``1 == 1.0`` and numpy scalars would pass ``==``.
        for d in _expand_without_time(buffer):
            assert all(type(v) in (int, float, str) for v in d.values()), d

    def test_staged_n_bids_matches_flush_recount(self):
        recount = ColumnarRoundBuffer(3, self.SIZES)
        staged = ColumnarRoundBuffer(3, self.SIZES)
        _stage_sample_rounds(recount)
        _stage_sample_rounds(staged)
        # The hot loop fills n_bids itself and flips the flag; flush
        # must then trust the staged counts instead of recounting.
        staged.staged_n_bids = True
        for i, count in enumerate([2, 2, 0]):
            staged.n_bids[i] = count
        assert _expand_without_time(staged) == _expand_without_time(recount)

    def test_flush_rearms_and_advances_base_round(self):
        buffer = ColumnarRoundBuffer(3, self.SIZES, capacity=2)
        _stage_sample_rounds_first_two = [
            ([1.5, -math.inf, 2.5], (2, 2, 20, 1.5, 90.0)),
            ([0.5, 3.25, -math.inf], (1, 1, 13, 0.5, 84.0)),
        ]
        for vals, commit in _stage_sample_rounds_first_two:
            buffer.stage(vals, [0, 1, 2])
            buffer.commit(*commit)
        assert buffer.full
        first = _expand_without_time(buffer)
        buffer.stage([-math.inf] * 3, [0, 0, 0])
        buffer.close(otc=84.0)
        second = _expand_without_time(buffer)
        rounds = [d["round"] for d in first + second if d["type"] == "round_start"]
        assert rounds == [0, 1, 2]
        assert buffer.flush() is None

    def test_empty_flush_is_none(self):
        assert ColumnarRoundBuffer(2, [1, 1]).flush() is None


# -- bulk export: a sink's stream written from its blocks --------------------


@pytest.fixture(scope="module")
def bulk_setups():
    """Per scale: the instance and its warm start state, as
    tests/test_core_agt_ram_pinned.py builds them."""
    from repro.core.agt_ram import AGTRam
    from repro.experiments.instances import paper_instance
    from repro.obs.report import bench_config

    out = {}
    for scale in ("tiny", "small"):
        instance = paper_instance(bench_config(scale))
        rounds = AGTRam().run(instance).rounds
        warm = AGTRam(max_rounds=rounds // 2).run(instance).state
        out[scale] = (instance, warm)
    return out


def _bulk_cases() -> list[tuple[str, str, str]]:
    from test_core_agt_ram_pinned import CONFIGS

    cases = [("tiny", config, start) for config in CONFIGS for start in ("cold", "warm")]
    return cases + [("small", "default", start) for start in ("cold", "warm")]


def _stream_and_list_bytes(sink, tmp_path) -> tuple[bytes, bytes]:
    """``(sink.iter_events() written straight, its event list written)``."""
    bulk = write_events_binary(sink.iter_events(), tmp_path / "bulk.rev")
    ref = write_events_binary(list(sink.iter_events()), tmp_path / "ref.rev")
    return bulk.read_bytes(), ref.read_bytes()


class TestBulkExport:
    @pytest.mark.parametrize("clock", ["logical", "wall"])
    @pytest.mark.parametrize(
        "scale,config,start", _bulk_cases(), ids=["/".join(c) for c in _bulk_cases()]
    )
    def test_stream_writes_the_bytes_of_its_events(
        self, bulk_setups, scale, config, start, clock, tmp_path
    ):
        from contextlib import nullcontext

        from repro.core.agt_ram import AGTRam
        from test_core_agt_ram_pinned import CONFIGS

        instance, warm = bulk_setups[scale]
        kwargs = {"initial_state": warm.copy()} if start == "warm" else {}
        with ev.logical_time() if clock == "logical" else nullcontext():
            with ev.capture(ev.ColumnarSink()) as sink:
                AGTRam(**CONFIGS[config]).run(instance, **kwargs)
        bulk, ref = _stream_and_list_bytes(sink, tmp_path)
        assert bulk == ref

    def test_tiny_run_pin_holds_written_from_the_stream(self, tmp_path):
        from repro.core.agt_ram import AGTRam
        from repro.experiments.instances import paper_instance
        from repro.obs.report import bench_config

        instance = paper_instance(bench_config("tiny"))
        with ev.logical_time():
            with ev.capture(ev.ColumnarSink()) as sink:
                AGTRam(engine="vectorized").run(instance)
        assert sink.blocks(), "the run emitted no columnar block"
        path = write_events_binary(sink.iter_events(), tmp_path / "tiny.rev")
        assert _sha256(path) == TINY_RUN_SHA256

    def test_stream_is_consumed_once(self, tiny_events):
        sink = ev.ColumnarSink()
        for event in tiny_events[:3]:
            sink.emit(event)
        stream = sink.iter_events()
        assert next(stream) == tiny_events[0]
        assert stream.take_items() is None
        assert list(stream) == tiny_events[1:3]
        fresh = sink.iter_events()
        assert fresh.take_items() == tiny_events[:3]
        assert list(fresh) == []


#: Reports a bid row may hold: finite, ±inf, NaN and −0.0.
_REPORTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _sink_scripts(draw):
    """A script for a ColumnarSink: blocks staged through a
    ColumnarRoundBuffer (terminal and bid-less rows included), loose
    events between them, and arbitrary block clocks."""
    m = draw(st.integers(1, 5))
    script = {
        "m": m,
        "rule": draw(st.sampled_from(["second_price", "", "r", "区域-ü", "uniform" * 5])),
        "capacity": draw(st.integers(1, 6)),
        "base_round": draw(st.integers(0, 10_000)),
        "rows": [],
        "clocks": [],
        "loose": [],
    }
    for _ in range(draw(st.integers(1, 12))):
        vals = draw(st.lists(_REPORTS, min_size=m, max_size=m))
        objs = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
        if draw(st.booleans()):
            commit = (
                draw(st.integers(0, m - 1)),
                draw(st.integers(0, 5)),
                draw(st.integers(-(2**40), 2**40)),
                draw(st.floats()),
                draw(st.floats()),
            )
        else:
            commit = draw(st.floats())
        script["rows"].append((vals, objs, commit))
    n_blocks = -(-len(script["rows"]) // script["capacity"])
    for _ in range(n_blocks):
        script["clocks"].append((draw(st.floats()), draw(st.floats())))
    for _ in range(n_blocks + 1):
        script["loose"].append(draw(arbitrary_events.map(lambda e: e[:3])))
    return script


def _play(script) -> ev.ColumnarSink:
    """Emit ``script`` into a fresh ColumnarSink through the ring."""
    buffer = ColumnarRoundBuffer(
        script["m"],
        [3, 1, 4, 1, 5, 9],
        capacity=script["capacity"],
        base_round=script["base_round"],
        payment_rule=script["rule"],
    )
    blocks = []
    for vals, objs, commit in script["rows"]:
        buffer.stage(vals, objs)
        if isinstance(commit, tuple):
            buffer.commit(*commit)
        else:
            buffer.close(commit)
        if buffer.full:
            blocks.append(buffer.flush())
    if buffer.n:
        blocks.append(buffer.flush())
    sink = ev.ColumnarSink()
    for block, clock, loose in zip(blocks, script["clocks"], script["loose"]):
        for event in loose:
            sink.emit(event)
        sink.emit_block(replace(block, t0=clock[0], t_step=clock[1]))
    for event in script["loose"][-1]:
        sink.emit(event)
    return sink


class TestBulkExportProperties:
    @given(script=_sink_scripts(), encode_bids=st.integers(1, 8), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_blocks_encode_to_the_bytes_of_their_events(
        self, script, encode_bids, data, tmp_path_factory
    ):
        from unittest import mock

        tmp = tmp_path_factory.mktemp("bulk")
        sink = _play(script)
        assert sink.blocks()
        # Small encode steps split blocks, so the clock and the bid
        # records carry across steps.
        with mock.patch.object(export, "_ENCODE_BIDS", encode_bids):
            bulk, ref = _stream_and_list_bytes(sink, tmp)
            assert bulk == ref
            # A stream someone started writes only what is left.
            events = list(sink.iter_events())
            k = data.draw(st.integers(0, len(events)))
            stream = sink.iter_events()
            for _ in range(k):
                next(stream)
            rest = write_events_binary(stream, tmp / "rest.rev")
            whole = write_events_binary(events[k:], tmp / "whole.rev")
            assert rest.read_bytes() == whole.read_bytes()


# -- run-aware reader --------------------------------------------------------


def _straddling_events() -> list:
    """The log of test_records_straddling_every_chunk_boundary_round_trip."""
    events = []
    for i in range(3000):
        events.append(RoundStart(t=float(i), round=i))
        events.append(BidEvent(t=float(i), round=i, agent=i % 7, value=0.5 * i))
        events.append(PaymentEvent(t=float(i), round=i, rule="r" * (i % 11)))
    return events


def _bid_record(agent: int, tmp_path) -> tuple[bytes, bytes]:
    return _one_record_log(
        BidEvent(t=1.0, round=0, agent=agent, obj=3, value=2.0), tmp_path
    )


def _corrupt_logs(tmp_path, tiny_log: bytes) -> dict[str, tuple[bytes, str]]:
    """Every corruption of TestBinaryCodec/TestChunkedReader, plus a bid
    record with a wrong declared length in the middle of a bid run:
    ``name -> (file bytes, the error's pattern)``."""
    head, _ = _reference_records([])
    _, bid0 = _bid_record(0, tmp_path)
    _, bid1 = _bid_record(1, tmp_path)
    _, bid2 = _bid_record(2, tmp_path)
    _, partition = _one_record_log(
        PartitionEvent(t=0.0, round=4, islands=(0, 1)), tmp_path
    )
    _, start = _one_record_log(RoundStart(t=0.0, round=1), tmp_path)
    _, tail = _one_record_log(BidEvent(t=2.0, round=1), tmp_path)
    short = bid1[:1] + struct.pack("<I", 40) + bid1[5:45]
    long = bid1[:1] + struct.pack("<I", 56) + bid1[5:] + bytes(8)
    tag = b"martian"
    mismatch = "record payload length mismatch"
    return {
        "newer-version": (
            BINARY_MAGIC + bytes([99]) + b"\x00\x00",
            "newer than supported",
        ),
        "unknown-kind-tag": (
            BINARY_MAGIC + bytes([1]) + b"\x01\x00" + bytes([len(tag)]) + tag,
            "unknown event kind",
        ),
        "truncated-run": (tiny_log[:-3], "truncated"),
        "payload-short": (head + short, mismatch),
        "tuple-count-overrun": (
            head + partition[:21] + struct.pack("<I", 9) + partition[25:],
            mismatch,
        ),
        "payload-long": (
            head + start[:1] + struct.pack("<I", 24 + 8) + start[5:] + bytes(8),
            "24 decoded of 32",
        ),
        "kind-out-of-range": (
            head + struct.pack("<BI", len(EVENT_TYPES), 0),
            "out of range",
        ),
        "header-kind-only": (head + tail + tail[:1], "truncated"),
        "header-mid-length": (head + tail + tail[:3], "truncated"),
        "payload-cut": (head + tail + tail[:25], "truncated"),
        "mid-run-short": (head + bid0 + short + bid2, mismatch),
        "mid-run-long": (head + bid0 + long + bid2, "48 decoded of 56"),
    }


class TestRunReader:
    def test_straddling_log_audits_the_same(self, tmp_path):
        events = _straddling_events()
        path = write_events_binary(events, tmp_path / "long.rev")
        assert audit_files([path]) == audit_events(events)

    def test_bid_runs_expand_to_the_recorded_events(self, tiny_events, tmp_path):
        path = write_events_binary(tiny_events, tmp_path / "tiny.rev")
        items = list(export.open_record_stream(path))
        runs = [i for i in items if not isinstance(i, ev.Event)]
        assert runs and sum(len(r) for r in runs) == sum(
            isinstance(e, BidEvent) for e in tiny_events
        )
        assert read_events_binary(path) == tiny_events

    def test_every_corruption_raises_the_same_error_through_the_audit(
        self, tiny_events, tmp_path
    ):
        from unittest import mock

        from repro.obs.audit import audit_file, audit_sharded_file

        tiny_log = write_events_binary(tiny_events, tmp_path / "t.rev").read_bytes()
        corpus = _corrupt_logs(tmp_path, tiny_log)
        # Small read chunks put chunk boundaries inside the bid runs.
        for chunk in (export._IO_CHUNK, 97, 1000):
            with mock.patch.object(export, "_IO_CHUNK", chunk):
                for name, (data, pattern) in corpus.items():
                    p = tmp_path / f"{name}.rev"
                    p.write_bytes(data)
                    with pytest.raises(ValueError, match=pattern) as decoded:
                        list(iter_events_binary(p))
                    for audit in (audit_file, audit_sharded_file):
                        with pytest.raises(ValueError, match=pattern) as audited:
                            audit(p)
                        assert str(audited.value) == str(decoded.value), name

    @given(chunk=st.integers(16, 4096))
    @settings(max_examples=40, deadline=None)
    def test_every_bid_record_comes_inside_a_run(
        self, tiny_events, chunk, tmp_path_factory
    ):
        from unittest import mock

        import numpy as np

        path = tmp_path_factory.mktemp("chunks") / "tiny.rev"
        write_events_binary(tiny_events, path)
        with mock.patch.object(export, "_IO_CHUNK", chunk):
            items = list(export.open_record_stream(path))
            assert audit_files([path]) == audit_events(tiny_events)
        assert not any(isinstance(i, ev.Event) and i.type == "bid" for i in items)
        runs = [i for i in items if isinstance(i, np.ndarray)]
        expanded: list = []
        for item in items:
            if isinstance(item, np.ndarray):
                expanded += (BidEvent(*record[2:]) for record in item.tolist())
            else:
                expanded.append(item)
        assert expanded == tiny_events
        # A round's bids that fit in a read chunk come in one run; a
        # larger round's, in pieces of at least a chunk.
        step = runs[0].dtype.itemsize
        per_round: dict = {}
        for run in runs:
            per_round.setdefault(int(run["round"][0]), []).append(len(run))
        for sizes in per_round.values():
            if sum(sizes) * step < chunk:
                assert len(sizes) == 1
            else:
                assert all(n * step >= chunk for n in sizes[:-1])

    def test_file_without_the_magic_is_read_as_jsonl(self, tmp_path):
        from repro.obs.audit import audit_file

        p = tmp_path / "bogus.rev"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="binary event log"):
            list(iter_events_binary(p))
        with pytest.raises(ValueError):
            audit_file(p)


# -- sink accounting ---------------------------------------------------------


class TestSinkBytes:
    def test_loose_events_are_counted_at_the_bytes_they_keep(self):
        """A flash-crowd serving pass under crash and straggler faults,
        with drift re-auctions (serve-flashcrowd's mix at the small
        preset): ``nbytes`` is within 10% of what tracemalloc sees the
        pass keep allocated."""
        import math
        import tracemalloc

        from repro import serving
        from repro.core.agt_ram import run_agt_ram
        from repro.experiments.instances import paper_instance
        from repro.obs.report import bench_config
        from repro.runtime.faults import FaultSchedule

        n_requests, seed = 4000, 2007
        base = paper_instance(bench_config("small").with_(seed=seed))

        def traffic():
            return serving.make_traffic("flashcrowd", base, n_requests, seed=seed)

        instance = serving.with_demand(base, traffic())
        placement = run_agt_ram(instance)
        config = serving.ServeConfig()
        plan = FaultSchedule.random(
            n_agents=instance.n_servers,
            horizon=math.ceil(n_requests / config.requests_per_round),
            seed=seed, crash_rate=0.03, mean_outage=3.0, straggler_rate=0.03,
        )
        stream = traffic().stream
        sink = ev.ColumnarSink()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with ev.logical_time(), ev.capture(sink):
                rep = serving.serve(
                    instance, placement.state, stream, config=config,
                    faults=plan, seed=seed, n_requests=n_requests,
                )
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rep.reauctions and rep.failovers  # the mix under test
        assert not any(isinstance(i, ev.RoundBlock) for i in sink._items)
        assert abs(sink.nbytes / kept - 1.0) < 0.10

    def test_each_class_keeps_the_size_it_was_first_given(self):
        sink = ev.ColumnarSink()
        for i in range(100):
            sink.emit(BidEvent(float(i), i, 300 + i, 1000 + i, 2.5 * i, -1))
        first = sink.nbytes
        assert first % 100 == 0 and first // 100 > 100
        for i in range(10):
            sink.emit(BidEvent(float(i), 0, 0, 0, 0.0, -1))
        assert sink.nbytes == first + 10 * (first // 100)
        assert len(sink) == 110
