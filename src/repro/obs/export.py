"""Standard-format exporters for the ``repro.obs`` event stream.

Four targets:

* **JSONL event log** — one header line plus one JSON object per event;
  lossless (``read_events_jsonl`` parses back the same typed events),
  the input format of the offline audit (:mod:`repro.obs.audit`).
  :class:`RotatingJsonlWriter` streams the same format across size- or
  count-bounded ``.partNNNNN`` chunk files so a large campaign never
  holds its log in memory; :func:`event_log_chunks` re-discovers the
  chunk set and :func:`iter_events_jsonl` replays any one file lazily.
* **Binary event log** — a compact length-prefixed codec
  (:func:`write_events_binary` / :func:`iter_events_binary`) whose
  decode is a lossless round-trip back to the same typed events; about
  2x smaller than JSONL on mechanism logs (1.98x tiny, 2.10x small,
  2.26x on the ``showcase`` scenario) and decodable in bounded memory.
  Each kind's codec is compiled once per process, with one ``struct``
  layout per tuple of its variable field lengths.  Columnar round
  blocks are encoded straight from their arrays, packed runs of bid
  records are copied, and runs of bid records decode as packed record
  arrays; the bytes are the same either way.  Format spec in docs/observability.md.
* **Chrome trace-event JSON** — loadable in Perfetto / ``chrome://tracing``;
  runs and rounds become duration ("X") slices on the central track,
  bids/winners/payments become instant events on per-agent tracks.
* **OpenMetrics / Prometheus textfile** — a point-in-time snapshot of a
  bench document or a tracer snapshot, suitable for the node-exporter
  textfile collector.  :func:`lint_openmetrics` checks the invariants
  the exposition format requires.

:func:`open_event_stream` sniffs a file's magic and returns the right
lazy decoder, so consumers (the windowed audit, the CLI) accept either
log format interchangeably.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Callable,
    Iterable,
    Iterator,
    NoReturn,
    Optional,
    Sequence,
)

import numpy as np

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    AdversaryEvent,
    BidEvent,
    CapacityReject,
    CheckpointEvent,
    ElectionEvent,
    Event,
    EventStream,
    FailoverEvent,
    FaultEvent,
    HealEvent,
    HedgeEvent,
    InvariantEvent,
    ManipulationEvent,
    NNUpdateEvent,
    PartitionEvent,
    PaymentEvent,
    QuarantineEvent,
    ReauctionEvent,
    ReconcileEvent,
    RecoveryEvent,
    RequestEvent,
    RequestTimeout,
    RoundBlock,
    RoundEnd,
    RoundStart,
    RunEnd,
    RunStart,
    ServeEnd,
    ServeStart,
    ShedEvent,
    TimeoutEvent,
    ValidationEvent,
    WinnerEvent,
    iter_block_events,
    parse_event,
)

__all__ = [
    "EVENTS_KIND",
    "BINARY_MAGIC",
    "write_events_jsonl",
    "read_events_jsonl",
    "iter_events_jsonl",
    "RotatingJsonlWriter",
    "chunk_path",
    "event_log_chunks",
    "write_events_binary",
    "bid_run",
    "read_events_binary",
    "iter_events_binary",
    "open_event_stream",
    "events_to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "openmetrics_from_bench",
    "openmetrics_from_snapshot",
    "lint_openmetrics",
]

#: ``kind`` tag of the JSONL header line.
EVENTS_KIND = "repro-events"


# -- JSONL event log ---------------------------------------------------------


def write_events_jsonl(events: Iterable[Event], path: str | Path) -> Path:
    """Write the stream as JSON Lines: a header record, then one event
    per line.  Returns the path written."""
    out = Path(path)
    header = {"kind": EVENTS_KIND, "schema_version": EVENT_SCHEMA_VERSION}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(e.to_dict(), sort_keys=True) for e in events
    )
    out.write_text("\n".join(lines) + "\n")
    return out


def _check_jsonl_header(line: str) -> None:
    """Validate the JSONL header line; raises ``ValueError``."""
    header = json.loads(line)
    if not isinstance(header, dict) or header.get("kind") != EVENTS_KIND:
        raise ValueError(
            f"not a {EVENTS_KIND} log: header={header!r}"
        )
    version = header.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"bad event schema_version: {version!r}")
    if version > EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"event log schema_version {version} is newer than supported "
            f"{EVENT_SCHEMA_VERSION}; upgrade the library"
        )


def iter_events_jsonl(path: str | Path) -> Iterator[Event]:
    """Lazily parse a JSONL event log: one event per ``next()``, one
    line of the file in memory at a time.

    Raises ``ValueError`` on a missing/foreign header, a newer schema
    version than this library understands, or an unparseable record.
    """
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        if not first.strip():
            raise ValueError("empty event log")
        _check_jsonl_header(first)
        for i, line in enumerate(f, start=2):
            if not line.strip():
                continue
            record = json.loads(line)
            try:
                yield parse_event(record)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {i}: {exc}") from exc


def read_events_jsonl(path: str | Path) -> list[Event]:
    """Parse a whole JSONL event log back into typed events."""
    return list(iter_events_jsonl(path))


# -- chunked / rotating JSONL ------------------------------------------------


def chunk_path(path: str | Path, index: int) -> Path:
    """The ``index``-th rotation chunk of a logical log ``path``:
    ``events.jsonl`` -> ``events.part00000.jsonl``, ``events.part00001.jsonl``
    … (five digits, so lexicographic order is replay order up to 100k
    chunks)."""
    p = Path(path)
    return p.with_name(f"{p.stem}.part{index:05d}{p.suffix}")


def event_log_chunks(path: str | Path) -> list[Path]:
    """Resolve a logical log path to its ordered file list.

    A plain single-file log resolves to itself; a rotated log (the
    logical path does not exist but ``<stem>.partNNNNN<suffix>`` chunks
    do) resolves to the sorted chunk list.  Raises ``FileNotFoundError``
    when neither exists.
    """
    p = Path(path)
    if p.exists():
        return [p]
    chunks = sorted(p.parent.glob(f"{p.stem}.part[0-9][0-9][0-9][0-9][0-9]{p.suffix}"))
    if not chunks:
        raise FileNotFoundError(f"no event log at {p} and no {p.stem}.part* chunks")
    return chunks


class RotatingJsonlWriter:
    """Streaming JSONL writer with size/count-based rotation.

    Events are serialized as they arrive — nothing is buffered beyond
    the OS file buffer, so a multi-gigabyte campaign log never lives in
    memory.  With ``max_events``/``max_bytes`` set, the stream rotates
    into ``chunk_path(path, i)`` files, each a self-contained JSONL log
    (own header line); with neither set, everything goes to ``path``
    itself.  ``max_bytes`` is checked *before* each write, so a chunk
    may overshoot by at most one serialized event rather than ever
    splitting one.

    Use as a context manager::

        with RotatingJsonlWriter("log.jsonl", max_events=100_000) as w:
            for e in events:
                w.write(e)
        w.paths  # the chunk files written, in order
    """

    def __init__(
        self,
        path: str | Path,
        *,
        max_events: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self._logical = Path(path)
        self._rotating = max_events is not None or max_bytes is not None
        self.max_events = max_events
        self.max_bytes = max_bytes
        #: Chunk files opened so far, in write order.
        self.paths: list[Path] = []
        self.events_written = 0
        self._file: Optional[Any] = None
        self._chunk_events = 0
        self._chunk_bytes = 0

    def _open_next(self) -> None:
        if self._file is not None:
            self._file.close()
        target = (
            chunk_path(self._logical, len(self.paths))
            if self._rotating
            else self._logical
        )
        self._file = open(target, "w", encoding="utf-8")
        self.paths.append(target)
        header = json.dumps(
            {"kind": EVENTS_KIND, "schema_version": EVENT_SCHEMA_VERSION},
            sort_keys=True,
        )
        self._file.write(header + "\n")
        self._chunk_events = 0
        self._chunk_bytes = len(header) + 1

    def _should_rotate(self, incoming: int) -> bool:
        if not self._rotating or self._chunk_events == 0:
            return False
        if self.max_events is not None and self._chunk_events >= self.max_events:
            return True
        return (
            self.max_bytes is not None
            and self._chunk_bytes + incoming > self.max_bytes
        )

    def write(self, event: Event) -> None:
        line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
        if self._file is None or self._should_rotate(len(line)):
            self._open_next()
        assert self._file is not None
        self._file.write(line)
        self._chunk_events += 1
        self._chunk_bytes += len(line)
        self.events_written += 1

    def write_all(self, events: Iterable[Event]) -> None:
        for event in events:
            self.write(event)

    def close(self) -> None:
        if self._file is None:
            # Zero events still yields a valid (header-only) log.
            self._open_next()
        assert self._file is not None
        self._file.close()
        self._file = None

    def __enter__(self) -> "RotatingJsonlWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- binary event log --------------------------------------------------------

#: File magic of the length-prefixed binary event codec.
BINARY_MAGIC = b"REVB"
#: Binary container version (bumped only on incompatible layout change).
BINARY_VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: Record header: u8 kind index, u32 payload length.
_HEADER = struct.Struct("<BI")

#: The writer flushes its record buffer once it holds this many bytes;
#: the reader decodes from chunks of this size.
_IO_CHUNK = 1 << 16
#: Bid records a block is encoded in per step (~1.7 MB of records), so
#: the encoder's working set stays bounded however large a block is.
_ENCODE_BIDS = 1 << 15

#: ``struct`` code per fixed-width field annotation.  Annotations are
#: matched as strings (``from __future__ import annotations`` keeps
#: them so).
_FIXED_CODES = {"float": "d", "int": "q", "bool": "?"}
#: numpy type per ``struct`` code of a fixed-width record.
_NUMPY_CODES = {"B": "u1", "I": "<u4", "d": "<f8", "q": "<i8", "?": "?"}
#: The record header alone, as a numpy layout: a strided view of it over
#: consecutive records checks their kinds and lengths in one step.
_HEADER_DTYPE = np.dtype([("#kind", "u1"), ("#length", "<u4")])
#: Variable-width annotations -> ``(struct code, items per count)``: a
#: u32 count, then that many UTF-8 bytes, i64s or i64 pairs.  Every
#: event field is one of these six shapes; a new shape is a hard error
#: when the codec is compiled, not silent corruption.
_VAR_CODES = {
    "str": ("s", 1),
    "tuple[int, ...]": ("q", 1),
    "tuple[tuple[int, int], ...]": ("q", 2),
}
#: Layouts one kind keeps compiled; a kind that meets more (tuples of
#: many lengths) starts its cache over.
_MAX_LAYOUTS = 256


class _KindCodec:
    """One event kind's record codec, compiled from its dataclass fields
    once per process (see :data:`_CODECS`).

    A record — header, fixed-width fields, and each variable-width
    field's u32 count and items — is laid out by one
    :class:`struct.Struct` per tuple of the kind's variable field
    lengths (its *layout key*), compiled on first use and cached on the
    codec (:attr:`layouts`).  An all-fixed-width kind has one layout,
    :attr:`record`, also given as :attr:`dtype`, the record as a packed
    numpy layout for encoding and decoding many records at once.

    :meth:`encode` (an event's whole record) and :meth:`decode` (the
    event of the record at ``buf[rec:end]``, header included) are
    generated per kind as straight-line code: encoding is one ``pack``
    of the event's attributes, ``str`` fields UTF-8 encoded and pair
    tuples flattened; decoding reads the count prefixes, checks that
    their layout fills the payload exactly (else :meth:`_mismatch`
    raises), then is one ``unpack_from`` and the class's positional
    constructor.
    """

    def __init__(self, index: int, cls: type[Event]) -> None:
        self.cls = cls
        self.index = index
        #: Layout key (one count, or a tuple of them) -> its Struct.
        self.layouts: dict[Any, struct.Struct] = {}
        #: ``(name, item bytes, run bytes)`` per segment, for
        #: :meth:`_mismatch`: a run of fixed-width fields named by its
        #: first (``item`` 0), or one variable-width field.
        self._segments: list[tuple[str, int, int]] = []
        #: The layout format, one ``{}`` per variable-width field's
        #: item count, and its items per counted value.
        self._format = _HEADER.format
        self._per_count: list[int] = []
        pre: list[str] = []  # encode: statements before the pack
        args: list[str] = []  # encode: the pack's field arguments
        keys: list[str] = []  # encode: the layout key's terms
        reads: list[str] = []  # decode: the count prefixes' reads
        out: list[str] = []  # decode: the constructor's arguments
        at, shift = 2, ""  # unpacked index of the next value
        run, first = 0, ""  # the fixed-width run since the last count
        for f in fields(cls):
            if f.type in _FIXED_CODES:
                code = _FIXED_CODES[f.type]
                self._format += code
                args.append(f"e.{f.name}")
                out.append(f"v[{at}{shift}]")
                at += 1
                run, first = run + struct.calcsize(code), first or f.name
                continue
            if f.type not in _VAR_CODES:
                raise TypeError(
                    f"{cls.__name__} field annotation {f.type!r} has no "
                    "binary codec"
                )
            code, per = _VAR_CODES[f.type]
            item = struct.calcsize(code) * per
            if run:
                self._segments.append((first, 0, run))
            self._segments.append((f.name, item, 0))
            self._format += "I{}" + code
            self._per_count.append(per)
            j = len(keys)
            b, n = f"b{j}", f"n{j}"
            keys.append(f"len({b})")
            if f.type == "str":
                pre.append(f"{b} = e.{f.name}.encode('utf-8')")
                args += (f"len({b})", b)
                out.append(f"v[{at + 1}{shift}].decode('utf-8')")
                at += 2
            elif per == 1:
                pre.append(f"{b} = e.{f.name}")
                args += (f"len({b})", f"*{b}")
                out.append(f"v[{at + 1}{shift}:{at + 1}{shift} + {n}]")
                at += 1
                shift += f" + {n}"
            else:
                pre.append(f"{b} = e.{f.name}")
                pre.append(f"f{j} = [x for pair in {b} for x in pair]")
                args += (f"len({b})", f"*f{j}")
                lo, hi = f"{at + 1}{shift}", f"{at + 1}{shift} + 2 * {n}"
                out.append(f"tuple(zip(v[{lo}:{hi}:2], v[{lo} + 1:{hi}:2]))")
                at += 1
                shift += f" + 2 * {n}"
            reads += (
                f"q = rec + {_HEADER.size + run}" if j == 0 else f"q += {run}",
                "if q + 4 > end: mismatch(buf, rec, end)",
                f"{n} = u32(buf, q)[0]",
                f"q += 4 + {n}" + (f" * {item}" if item > 1 else ""),
            )
            run, first = 0, ""
        if run:
            self._segments.append((first, 0, run))
        #: Header + payload struct of an all-fixed-width kind, else None.
        self.record: Optional[struct.Struct] = None
        #: :attr:`record` as a packed numpy layout: ``#kind``,
        #: ``#length``, then the event's fields by name.
        self.dtype: Optional[np.dtype] = None
        self.payload_size = 0
        scope: dict[str, Any] = {
            "cls": cls,
            "u32": _U32.unpack_from,
            "mismatch": self._mismatch,
            "layouts": self.layouts,
            "layout": self._layout,
        }
        packed = ", ".join(args)
        if keys:

            def key(terms: list[str]) -> str:
                return terms[0] if len(terms) == 1 else f"({', '.join(terms)})"

            encode = [
                *pre,
                f"key = {key(keys)}",
                "s = layouts.get(key) or layout(key)",
                f"return s.pack({index}, s.size - {_HEADER.size}, {packed})",
            ]
            decode = [
                *reads,
                f"if q + {run} != end: mismatch(buf, rec, end)",
                f"key = {key([f'n{j}' for j in range(len(keys))])}",
                "v = (layouts.get(key) or layout(key)).unpack_from(buf, rec)",
            ]
        else:
            self.record = struct.Struct(self._format)
            self.payload_size = self.record.size - _HEADER.size
            names = ["#kind", "#length"] + [f.name for f in fields(cls)]
            self.dtype = np.dtype(
                [
                    (name, _NUMPY_CODES[c])
                    for name, c in zip(names, self._format[1:])
                ]
            )
            scope["pack"] = self.record.pack
            scope["unpack"] = self.record.unpack_from
            encode = [f"return pack({index}, {self.payload_size}, {packed})"]
            decode = [
                f"if end - rec != {self.record.size}: mismatch(buf, rec, end)",
                "v = unpack(buf, rec)",
            ]
        decode.append(f"return cls({', '.join(out)})")
        source = "\n".join(
            [
                "def encode(e):",
                *("    " + line for line in encode),
                "def decode(buf, rec, end):",
                *("    " + line for line in decode),
            ]
        )
        exec(source, scope)
        self.encode: Callable[[Event], bytes] = scope["encode"]
        self.decode: Callable[[bytes, int, int], Event] = scope["decode"]

    def _layout(self, key: Any) -> struct.Struct:
        """Compile (and cache) the layout of one tuple of counts."""
        counts = key if type(key) is tuple else (key,)
        if len(self.layouts) >= _MAX_LAYOUTS:
            self.layouts.clear()
        layout = self.layouts[key] = struct.Struct(
            self._format.format(
                *(n * per for n, per in zip(counts, self._per_count))
            )
        )
        return layout

    def _mismatch(self, buf: bytes, rec: int, end: int) -> NoReturn:
        """Raise the error of a record whose fields do not fill its
        payload ``buf[rec + 5:end]`` exactly, as reading it field by
        field meets it: a string that is not UTF-8, the first field
        that runs past the payload's end, else the bytes left over."""
        start = pos = rec + _HEADER.size
        for name, item, need in self._segments:
            if item:
                need = 4  # the u32 count, then its items
                if end - pos >= need:
                    need += _U32.unpack_from(buf, pos)[0] * item
            if end - pos < need:
                raise ValueError(
                    f"record payload length mismatch: {self.cls.type!r} "
                    f"field {name!r} overruns the {end - start}-byte payload"
                )
            if item == 1:  # a str: its bytes must decode
                buf[pos + 4 : pos + need].decode("utf-8")
            pos += need
        raise ValueError(
            f"record payload length mismatch: {pos - start} decoded of "
            f"{end - start}"
        )


#: Every registered kind's codec by class, compiled once per process.  A
#: kind's index is its position in :data:`EVENT_TYPES`, which is the
#: kind table :func:`write_events_binary` writes.
_CODECS: dict[type, _KindCodec] = {
    cls: _KindCodec(index, cls) for index, cls in enumerate(EVENT_TYPES.values())
}
_BY_TAG = {codec.cls.type: codec for codec in _CODECS.values()}
#: Magic, container version and the kind table, as every log starts.
_FILE_HEADER = b"".join(
    [BINARY_MAGIC, _U8.pack(BINARY_VERSION), _U16.pack(len(EVENT_TYPES))]
    + [_U8.pack(len(tag.encode())) + tag.encode() for tag in EVENT_TYPES]
)


def bid_run(
    t0: float,
    step: float,
    rnd: int,
    agents: Any,
    objs: Any,
    values: Any,
    region: int,
) -> np.ndarray:
    """One round's bids as a packed run of REVB bid records.

    Bid ``j`` is stamped ``t0 + step * j`` (the stamps
    :func:`~repro.obs.events.now_block` reserves for the run).  The run is
    what :func:`open_record_stream` yields for consecutive bid records,
    so sinks and the audits take it in place of its
    :class:`~repro.obs.events.BidEvent`\\ s and
    :func:`write_events_binary` copies its bytes.
    """
    bid = _CODECS[BidEvent]
    run = np.empty(len(agents), bid.dtype)
    run["#kind"] = bid.index
    run["#length"] = bid.payload_size
    run["t"] = t0 + step * np.arange(len(agents))
    run["round"] = rnd
    run["agent"] = agents
    run["obj"] = objs
    run["value"] = values
    run["region"] = region
    return run


def _block_records(block: RoundBlock) -> Iterator[bytearray]:
    """The v1 records of ``iter_block_events(block)``, in pieces.

    A block is encoded from its columns ``_ENCODE_BIDS`` bid records at
    a time: the step's bid records are filled in as one packed record
    array (the bid codec's ``dtype``), and the few other records per
    round are encoded one event at a time.  Timestamps follow the
    expansion's running sum ``t += t_step`` (``np.cumsum`` adds in the
    same order), never ``t0 + j * t_step``.  A block whose clock is not
    finite (which NaN an addition of two NaNs returns is the compiled
    code's choice) is encoded one expanded event at a time.
    """
    if not (math.isfinite(block.t0) and math.isfinite(block.t_step)):
        out = bytearray()
        for event in iter_block_events(block):
            out += _CODECS[type(event)].encode(event)
            if len(out) >= _IO_CHUNK:
                yield out
                out = bytearray()
        yield out
        return
    bid = _CODECS[BidEvent]
    assert bid.dtype is not None
    start, winner, payment, nn_update, end = (
        _CODECS[cls].encode
        for cls in (RoundStart, WinnerEvent, PaymentEvent, NNUpdateEvent, RoundEnd)
    )
    size = bid.dtype.itemsize
    m = block.n_agents
    rule = block.payment_rule
    step = block.t_step
    t = block.t0  # the next event's stamp
    span = max(1, _ENCODE_BIDS // m)
    for r0 in range(0, block.rounds, span):
        r1 = min(r0 + span, block.rounds)
        vals = block.bid_vals[r0:r1]
        finite = np.isfinite(vals)
        rows, agents = np.nonzero(finite)
        counts = np.count_nonzero(finite, axis=1)
        winners = np.asarray(block.winners[r0:r1])
        # Events per round: start, bids, winner/payment/nn_update, end.
        per_row = counts + 2 + 3 * (winners >= 0)
        firsts = np.cumsum(per_row) - per_row
        bid_firsts = np.cumsum(counts) - counts
        steps = np.full(int(per_row.sum()), step, dtype=np.float64)
        steps[0] = t
        with np.errstate(all="ignore"):  # overflow to inf, as floats do
            stamps = np.cumsum(steps)
            t = stamps[-1] + step
        bid_at = firsts[rows] + 1 + np.arange(len(rows)) - bid_firsts[rows]
        recs = np.empty(len(rows), dtype=bid.dtype)
        recs["#kind"] = bid.index
        recs["#length"] = bid.payload_size
        recs["t"] = stamps[bid_at]
        recs["round"] = block.base_round + r0 + rows
        recs["agent"] = agents
        recs["obj"] = block.bid_objs[r0:r1][finite]
        recs["value"] = vals[finite]
        recs["region"] = BidEvent.region
        bids = memoryview(recs.tobytes())
        others = np.ones(len(stamps), dtype=bool)
        others[bid_at] = False
        stamp = iter(stamps[others].tolist()).__next__

        out = bytearray()
        for i, (w, n, b) in enumerate(
            zip(winners.tolist(), counts.tolist(), bid_firsts.tolist())
        ):
            rnd = block.base_round + r0 + i
            out += start(RoundStart(stamp(), rnd))
            out += bids[b * size : (b + n) * size]
            j = r0 + i
            if w >= 0:
                obj = int(block.objs[j])
                value = float(vals[i, w])
                size_j, residual = int(block.obj_sizes[j]), int(block.residuals[j])
                out += winner(
                    WinnerEvent(stamp(), rnd, w, obj, value, size_j, residual)
                )
                amount = float(block.payments[j])
                out += payment(PaymentEvent(stamp(), rnd, w, amount, rule))
                out += nn_update(NNUpdateEvent(stamp(), rnd, obj, m))
            out += end(RoundEnd(stamp(), rnd, int(w >= 0), float(block.otcs[j])))
        yield out


def write_events_binary(events: Iterable[Event], path: str | Path) -> Path:
    """Write the stream in the length-prefixed binary format.

    Layout (all integers little-endian): magic ``REVB``, u8 container
    version, u16 kind count, then the kind table (u8 tag length + UTF-8
    ``type`` tag per kind — the table is self-describing, so a reader
    never depends on registry ordering), then one record per event:
    u8 kind index, u32 payload length, payload = the event's dataclass
    fields in declaration order under the per-annotation codecs.
    Records collect in a buffer written out every ~64 KiB.  Returns the
    path written.

    An :class:`~repro.obs.events.EventStream` that nobody has iterated
    yet is written from its raw items: each
    :class:`~repro.obs.events.RoundBlock` straight from its columns
    (:func:`_block_records`), and each packed run of bid records
    (:func:`bid_run`) as its bytes — the bytes their expanded events
    would give.  Any other iterable is encoded one event at a time.
    """
    out = Path(path)
    buf = bytearray(_FILE_HEADER)
    items = events.take_items() if isinstance(events, EventStream) else None
    with open(out, "wb") as f:
        for item in events if items is None else items:
            codec = _CODECS.get(type(item))
            if codec is not None:
                buf += codec.encode(item)
            elif isinstance(item, RoundBlock):
                f.write(buf)
                buf.clear()
                for records in _block_records(item):
                    f.write(records)
                continue
            elif isinstance(item, np.ndarray):
                buf += item.data
            else:
                buf += _BY_TAG[item.type].encode(item)
            if len(buf) >= _IO_CHUNK:
                f.write(buf)
                buf.clear()
        f.write(buf)
    return out


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated binary event log: short read in {what}")
    return raw


def _refill(
    f: BinaryIO, buf: bytes, off: int, need: int, what: str
) -> tuple[bytes, int, int]:
    """Carry ``buf[off:]`` into a new chunk of at least ``need`` bytes;
    returns ``(buf, off, end)`` of that chunk."""
    rest = buf[off:]
    buf = rest + f.read(max(_IO_CHUNK, need - len(rest)))
    if len(buf) < need:
        raise ValueError(f"truncated binary event log: short read in {what}")
    return buf, 0, len(buf)


def _iter_binary_records(path: str | Path, *, runs: bool) -> Iterator[Any]:
    """Lazily decode a binary event log in bounded memory, one event per
    record — except, with ``runs``, that each maximal run of consecutive
    bid records comes out as one packed record array (``np.frombuffer``
    with the bid codec's :attr:`_KindCodec.dtype`; fields ``t``,
    ``round``, ``agent``, ``obj``, ``value``, ``region``).

    A run holds only records whose kind byte and declared length are a
    well-formed bid's; any other record decodes one at a time.  A run
    that reaches the last whole record of the read chunk may go on past
    it, so it is carried into the next chunk and scanned again: a bid
    record straddling the chunk's end stays inside its run.  A run that
    fills a chunk comes out in pieces of at least a chunk each, so
    memory stays bounded.  Raises ``ValueError`` as
    :func:`iter_events_binary` documents.
    """
    with open(path, "rb") as f:
        if f.read(len(BINARY_MAGIC)) != BINARY_MAGIC:
            raise ValueError(f"{path}: not a {BINARY_MAGIC!r} binary event log")
        version = _U8.unpack(_read_exact(f, 1, "version"))[0]
        if version > BINARY_VERSION:
            raise ValueError(
                f"binary event log version {version} is newer than supported "
                f"{BINARY_VERSION}; upgrade the library"
            )
        n_kinds = _U16.unpack(_read_exact(f, 2, "kind table"))[0]
        # The file's kind indices name kinds by tag: the process's
        # codecs serve whatever order the table lists them in.
        codecs: list[_KindCodec] = []
        for _ in range(n_kinds):
            tag_len = _U8.unpack(_read_exact(f, 1, "kind table"))[0]
            tag = _read_exact(f, tag_len, "kind table").decode("utf-8")
            codec = _BY_TAG.get(tag)
            if codec is None:
                raise ValueError(f"unknown event kind {tag!r} in binary log")
            codecs.append(codec)
        # Per kind index: the all-fixed-width fast path (None: the
        # general path below) and the record size it expects.
        records = [c.record for c in codecs]
        sizes = [c.payload_size for c in codecs]
        lengths = [_HEADER.size + c.payload_size for c in codecs]
        classes = [c.cls for c in codecs]
        run_dtype = _CODECS[BidEvent].dtype
        bid_kind = -1  # -1: no kind index matches
        for index, c in enumerate(codecs):
            if runs and c.cls is BidEvent:
                bid_kind = index
        buf = f.read(_IO_CHUNK)
        off, end = 0, len(buf)
        while True:
            if off == end:
                buf = f.read(_IO_CHUNK)
                off, end = 0, len(buf)
                if not end:
                    return  # clean EOF at a record boundary
            kind = buf[off]
            if kind >= n_kinds:
                raise ValueError(f"record kind index {kind} out of range")
            if kind == bid_kind:
                step = lengths[kind]
                whole = (end - off) // step
                heads = np.ndarray((whole,), _HEADER_DTYPE, buf, off, (step,))
                ok = (heads["#kind"] == kind) & (heads["#length"] == sizes[kind])
                n = int(ok.argmin()) if not ok.all() else whole
                if n == whole and n * step < _IO_CHUNK:
                    # The run may go on past this chunk: carry it over.
                    more = f.read(_IO_CHUNK)
                    if more:
                        buf = buf[off:] + more
                        off, end = 0, len(buf)
                        continue
                if n:
                    yield np.frombuffer(buf, run_dtype, n, off)
                    off += n * step
                    continue
            record = records[kind]
            if record is not None and end - off >= lengths[kind]:
                values = record.unpack_from(buf, off)
                if values[1] == sizes[kind]:
                    off += lengths[kind]
                    yield classes[kind](*values[2:])
                    continue
            if end - off < _HEADER.size:
                buf, off, end = _refill(f, buf, off, _HEADER.size, "record header")
            size = _HEADER.size + _U32.unpack_from(buf, off + 1)[0]
            if end - off < size:
                buf, off, end = _refill(f, buf, off, size, "record payload")
            rec, off = off, off + size
            yield codecs[kind].decode(buf, rec, off)


def iter_events_binary(path: str | Path) -> Iterator[Event]:
    """Lazily decode a binary event log in bounded memory.

    The file is read in ~64 KiB chunks and decoded from an offset into
    the current chunk, so memory holds one chunk plus at most one record
    straddling its end (a record longer than a chunk is read whole).

    Raises ``ValueError`` on bad magic, an unsupported container
    version, an unknown kind tag, an out-of-range kind index, a record
    truncated in its header or payload, or a record whose declared
    payload length disagrees with its kind's fields (too short or too
    long).
    """
    return _iter_binary_records(path, runs=False)


def read_events_binary(path: str | Path) -> list[Event]:
    """Decode a whole binary event log back into typed events."""
    return list(iter_events_binary(path))


def _is_binary_log(path: str | Path) -> bool:
    with open(path, "rb") as f:
        return f.read(len(BINARY_MAGIC)) == BINARY_MAGIC


def open_event_stream(path: str | Path) -> Iterator[Event]:
    """Lazy event iterator over either log format, sniffed by magic:
    files starting with ``REVB`` decode as binary, anything else parses
    as JSONL."""
    if _is_binary_log(path):
        return iter_events_binary(path)
    return iter_events_jsonl(path)


def open_record_stream(path: str | Path) -> Iterator[Any]:
    """:func:`open_event_stream`, except that a binary log's runs of bid
    records come out as packed record arrays (see
    :func:`_iter_binary_records`) — the form the flat and the sharded
    mechanism audits consume, verifying each round on its bid columns
    with no :class:`BidEvent` per bid.  A consumer of events gains
    nothing from runs (expanding one costs what decoding its records
    does), so :func:`open_event_stream` decodes record by record."""
    if _is_binary_log(path):
        return _iter_binary_records(path, runs=True)
    return iter_events_jsonl(path)


# -- Chrome trace-event JSON -------------------------------------------------

#: Process id used for every trace event (one mechanism process).
_TRACE_PID = 1
#: Thread id of the central body's track; agent i uses ``i + 1``.
_CENTRAL_TID = 0


def _us(t: float, t0: float) -> float:
    """Rebased microseconds (the trace-event time unit)."""
    return (t - t0) * 1e6


def events_to_chrome_trace(events: Sequence[Event]) -> dict[str, Any]:
    """Convert an event stream to a Chrome trace-event document.

    Runs and rounds become complete ("X") slices on the central track —
    nested slices render as a flame graph in Perfetto; per-agent
    decisions (bid/winner/payment/capacity_reject) become instant ("i")
    events on that agent's own track.
    """
    if not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = events[0].t
    trace: list[dict[str, Any]] = []
    agents_seen: set[int] = set()
    run_stack: list[RunStart] = []
    round_open: dict[int, RoundStart] = {}
    serve_open: list[ServeStart] = []

    def instant(e: Event, name: str, tid: int, args: dict[str, Any]) -> None:
        trace.append(
            {
                "name": name,
                "ph": "i",
                "ts": _us(e.t, t0),
                "pid": _TRACE_PID,
                "tid": tid,
                "s": "t",
                "args": args,
            }
        )

    def complete(start: Event, end: Event, name: str, args: dict[str, Any]) -> None:
        trace.append(
            {
                "name": name,
                "ph": "X",
                "ts": _us(start.t, t0),
                "dur": max(0.0, _us(end.t, t0) - _us(start.t, t0)),
                "pid": _TRACE_PID,
                "tid": _CENTRAL_TID,
                "args": args,
            }
        )

    for e in events:
        if isinstance(e, RunStart):
            run_stack.append(e)
        elif isinstance(e, RunEnd):
            if run_stack:
                start = run_stack.pop()
                complete(
                    start,
                    e,
                    f"run {e.algorithm}",
                    {"otc": e.otc, "rounds": e.rounds},
                )
        elif isinstance(e, RoundStart):
            round_open[e.round] = e
        elif isinstance(e, RoundEnd):
            start = round_open.pop(e.round, None)
            if start is not None:
                complete(
                    start,
                    e,
                    f"round {e.round}",
                    {"committed": e.committed, "otc": e.otc},
                )
        elif isinstance(e, BidEvent):
            agents_seen.add(e.agent)
            instant(e, "bid", e.agent + 1, {"obj": e.obj, "value": e.value})
        elif isinstance(e, WinnerEvent):
            agents_seen.add(e.agent)
            instant(
                e,
                "winner",
                e.agent + 1,
                {"obj": e.obj, "value": e.value, "round": e.round},
            )
        elif isinstance(e, PaymentEvent):
            agents_seen.add(e.agent)
            instant(
                e,
                "payment",
                e.agent + 1,
                {"amount": e.amount, "rule": e.rule, "round": e.round},
            )
        elif isinstance(e, CapacityReject):
            agents_seen.add(e.agent)
            instant(
                e,
                "capacity_reject",
                e.agent + 1,
                {"obj": e.obj, "obj_size": e.obj_size, "residual": e.residual},
            )
        elif isinstance(e, NNUpdateEvent):
            instant(
                e,
                "nn_update",
                _CENTRAL_TID,
                {"obj": e.obj, "agents": e.agents, "round": e.round},
            )
        elif isinstance(e, FaultEvent):
            tid = _CENTRAL_TID if e.agent < 0 else e.agent + 1
            if e.agent >= 0:
                agents_seen.add(e.agent)
            instant(
                e,
                f"fault:{e.kind}",
                tid,
                {"target": e.target, "detail": e.detail, "round": e.round},
            )
        elif isinstance(e, TimeoutEvent):
            instant(
                e,
                "bid_timeout",
                _CENTRAL_TID,
                {
                    "agents": list(e.agents),
                    "expected": e.expected,
                    "received": e.received,
                    "quorum_met": e.quorum_met,
                    "round": e.round,
                },
            )
        elif isinstance(e, ElectionEvent):
            instant(
                e,
                "election",
                _CENTRAL_TID,
                {"candidate": e.candidate, "voters": e.voters, "round": e.round},
            )
        elif isinstance(e, CheckpointEvent):
            instant(
                e,
                "checkpoint",
                _CENTRAL_TID,
                {"allocations": e.allocations, "round": e.round},
            )
        elif isinstance(e, RecoveryEvent):
            tid = _CENTRAL_TID if e.agent < 0 else e.agent + 1
            if e.agent >= 0:
                agents_seen.add(e.agent)
            instant(
                e,
                f"recovery:{e.kind}",
                tid,
                {
                    "checkpoint_round": e.checkpoint_round,
                    "replayed": e.replayed,
                    "acting_central": e.acting_central,
                    "round": e.round,
                },
            )
        elif isinstance(e, ValidationEvent):
            tid = _CENTRAL_TID if e.agent < 0 else e.agent + 1
            if e.agent >= 0:
                agents_seen.add(e.agent)
            instant(
                e,
                f"validation:{e.kind}",
                tid,
                {"obj": e.obj, "value": e.value, "detail": e.detail,
                 "round": e.round},
            )
        elif isinstance(e, ManipulationEvent):
            agents_seen.add(e.agent)
            instant(
                e,
                f"manipulation:{e.kind}",
                e.agent + 1,
                {"obj": e.obj, "reported": e.reported,
                 "recomputed": e.recomputed, "round": e.round},
            )
        elif isinstance(e, QuarantineEvent):
            agents_seen.add(e.agent)
            instant(
                e,
                f"quarantine:{e.action}",
                e.agent + 1,
                {"strikes": e.strikes, "until_round": e.until_round,
                 "round": e.round},
            )
        elif isinstance(e, AdversaryEvent):
            agents_seen.add(e.agent)
            instant(
                e,
                f"adversary:{e.behavior}",
                e.agent + 1,
                {"obj": e.obj, "value": e.value, "detail": e.detail,
                 "round": e.round},
            )
        elif isinstance(e, ServeStart):
            serve_open.append(e)
        elif isinstance(e, ServeEnd):
            if serve_open:
                start = serve_open.pop()
                complete(
                    start,
                    e,
                    f"serve {start.workload}",
                    {
                        "served": e.served,
                        "shed": e.shed,
                        "failed": e.failed,
                        "availability": e.availability,
                        "p99": e.p99,
                    },
                )
        elif isinstance(e, RequestEvent):
            tid = _CENTRAL_TID if e.replica < 0 else e.replica + 1
            if e.replica >= 0:
                agents_seen.add(e.replica)
            instant(
                e,
                f"request:{e.outcome}",
                tid,
                {"obj": e.obj, "kind": e.kind, "latency": e.latency,
                 "attempts": e.attempts, "tick": e.tick},
            )
        elif isinstance(e, RequestTimeout):
            tid = _CENTRAL_TID if e.replica < 0 else e.replica + 1
            if e.replica >= 0:
                agents_seen.add(e.replica)
            instant(
                e,
                "request_timeout",
                tid,
                {"obj": e.obj, "attempt": e.attempt, "tick": e.tick},
            )
        elif isinstance(e, HedgeEvent):
            tid = _CENTRAL_TID if e.backup < 0 else e.backup + 1
            if e.backup >= 0:
                agents_seen.add(e.backup)
            instant(
                e,
                "hedge",
                tid,
                {"obj": e.obj, "primary": e.primary, "winner": e.winner,
                 "tick": e.tick},
            )
        elif isinstance(e, ShedEvent):
            instant(
                e,
                "shed",
                _CENTRAL_TID,
                {"obj": e.obj, "kind": e.kind, "tokens": e.tokens,
                 "tick": e.tick},
            )
        elif isinstance(e, FailoverEvent):
            tid = _CENTRAL_TID if e.to_server < 0 else e.to_server + 1
            if e.to_server >= 0:
                agents_seen.add(e.to_server)
            instant(
                e,
                f"failover:{e.reason}",
                tid,
                {"obj": e.obj, "from": e.from_server, "tick": e.tick},
            )
        elif isinstance(e, ReauctionEvent):
            instant(
                e,
                f"reauction:{e.trigger}",
                _CENTRAL_TID,
                {"objects": list(e.objects), "added": len(e.added),
                 "removed": len(e.removed), "otc_after": e.otc_after,
                 "tick": e.tick},
            )
        elif isinstance(e, PartitionEvent):
            instant(
                e,
                "partition",
                _CENTRAL_TID,
                {"islands": list(e.islands), "round": e.round},
            )
        elif isinstance(e, HealEvent):
            instant(
                e,
                "heal",
                _CENTRAL_TID,
                {"islands": list(e.islands), "divergent": e.divergent,
                 "round": e.round},
            )
        elif isinstance(e, ReconcileEvent):
            instant(
                e,
                "reconcile",
                _CENTRAL_TID,
                {"conflicts": list(e.conflicts), "kept": len(e.kept),
                 "revoked": len(e.revoked),
                 "refunded_capacity": e.refunded_capacity,
                 "round": e.round},
            )
        elif isinstance(e, InvariantEvent):
            tid = _CENTRAL_TID if e.agent < 0 else e.agent + 1
            if e.agent >= 0:
                agents_seen.add(e.agent)
            instant(
                e,
                f"invariant:{e.invariant}",
                tid,
                {"round": e.round, "tick": e.tick, "obj": e.obj,
                 "value": e.value, "bound": e.bound, "detail": e.detail},
            )

    # Track naming metadata: process + central + one track per agent.
    meta: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0.0,
            "pid": _TRACE_PID,
            "tid": _CENTRAL_TID,
            "args": {"name": "repro mechanism"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "ts": 0.0,
            "pid": _TRACE_PID,
            "tid": _CENTRAL_TID,
            "args": {"name": "central"},
        },
    ]
    for agent in sorted(agents_seen):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": _TRACE_PID,
                "tid": agent + 1,
                "args": {"name": f"agent {agent}"},
            }
        )
    trace.sort(key=lambda d: d["ts"])
    return {"traceEvents": meta + trace, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[Event], path: str | Path) -> Path:
    """Convert, validate and write a Chrome trace file."""
    doc = events_to_chrome_trace(events)
    validate_chrome_trace(doc)
    out = Path(path)
    out.write_text(json.dumps(doc) + "\n")
    return out


def validate_chrome_trace(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed trace document.

    Checks the JSON-object form, the required per-event keys, that "X"
    events carry a non-negative ``dur``, and that non-metadata ``ts``
    values are monotonically non-decreasing (our exporter sorts them).
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("trace document must be {'traceEvents': [...]}")
    last_ts: Optional[float] = None
    for i, e in enumerate(doc["traceEvents"]):
        if not isinstance(e, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in e:
                raise ValueError(f"traceEvents[{i}] missing required key {key!r}")
        if not isinstance(e["ts"], (int, float)) or e["ts"] < 0:
            raise ValueError(f"traceEvents[{i}].ts must be a non-negative number")
        if e["ph"] == "X":
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                raise ValueError(
                    f"traceEvents[{i}] ('X') needs a non-negative dur"
                )
        if e["ph"] == "M":
            continue
        if last_ts is not None and e["ts"] < last_ts:
            raise ValueError(
                f"traceEvents[{i}].ts={e['ts']} decreases (prev {last_ts})"
            )
        last_ts = e["ts"]


# -- OpenMetrics / Prometheus textfile ---------------------------------------


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sample(name: str, labels: dict[str, str], value: float) -> str:
    if labels:
        inner = ",".join(
            f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {value!r}"
    return f"{name} {value!r}"


def _render(families: list[tuple[str, str, str, list[tuple[dict, float]]]]) -> str:
    """Render ``(name, type, help, [(labels, value), ...])`` families."""
    lines: list[str] = []
    for name, mtype, help_text, samples in families:
        if not samples:
            continue
        # OpenMetrics declares the *family* name; counter samples carry
        # the `_total` suffix on top of it.
        family = (
            name[: -len("_total")]
            if mtype == "counter" and name.endswith("_total")
            else name
        )
        lines.append(f"# TYPE {family} {mtype}")
        lines.append(f"# HELP {family} {help_text}")
        for labels, value in samples:
            lines.append(_sample(name, labels, float(value)))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def openmetrics_from_snapshot(
    snapshot: dict[str, Any], labels: Optional[dict[str, str]] = None
) -> str:
    """OpenMetrics text from one :meth:`Tracer.snapshot` dict."""
    base = dict(labels or {})
    span_seconds: list[tuple[dict, float]] = []
    span_count: list[tuple[dict, float]] = []
    counter_samples: list[tuple[dict, float]] = []
    for path, stat in sorted(snapshot.get("spans", {}).items()):
        span_seconds.append(({**base, "path": path}, stat["total_s"]))
        span_count.append(({**base, "path": path}, stat["count"]))
    for path, value in sorted(snapshot.get("counters", {}).items()):
        counter_samples.append(({**base, "path": path}, value))
    return _render(
        [
            (
                "repro_span_seconds_total",
                "counter",
                "Total seconds recorded under each span path.",
                span_seconds,
            ),
            (
                "repro_span_count_total",
                "counter",
                "Number of entries recorded under each span path.",
                span_count,
            ),
            (
                "repro_counter_total",
                "counter",
                "repro.obs named counters.",
                counter_samples,
            ),
        ]
    )


def openmetrics_from_bench(doc: dict[str, Any]) -> str:
    """OpenMetrics text from one ``repro-bench`` JSON document.

    One gauge per headline metric, labeled by scenario/algorithm, plus
    the span totals of every record — a point-in-time snapshot suitable
    for the Prometheus textfile collector.
    """
    wall: list[tuple[dict, float]] = []
    savings: list[tuple[dict, float]] = []
    rounds: list[tuple[dict, float]] = []
    replicas: list[tuple[dict, float]] = []
    messages: list[tuple[dict, float]] = []
    bytes_: list[tuple[dict, float]] = []
    span_seconds: list[tuple[dict, float]] = []
    for record in doc.get("results", []):
        labels = {
            "scenario": record["scenario"],
            "algorithm": record["algorithm"],
            "scale": str(doc.get("scale", "")),
        }
        wall.append((labels, record["wall_s"]))
        if "savings_percent" in record:
            savings.append((labels, record["savings_percent"]))
        if "rounds" in record:
            rounds.append((labels, record["rounds"]))
        if "replicas" in record:
            replicas.append((labels, record["replicas"]))
        if "messages" in record:
            messages.append((labels, record["messages"]))
        if "bytes" in record:
            bytes_.append((labels, record["bytes"]))
        for path, stat in sorted(record.get("spans", {}).items()):
            span_seconds.append(({**labels, "path": path}, stat["total_s"]))
    return _render(
        [
            (
                "repro_bench_wall_seconds",
                "gauge",
                "Best wall time of each bench scenario.",
                wall,
            ),
            (
                "repro_bench_savings_percent",
                "gauge",
                "OTC savings vs the primaries-only scheme.",
                savings,
            ),
            (
                "repro_bench_rounds",
                "gauge",
                "Rounds/iterations of each bench scenario.",
                rounds,
            ),
            (
                "repro_bench_replicas",
                "gauge",
                "Replicas allocated by each bench scenario.",
                replicas,
            ),
            (
                "repro_bench_messages",
                "gauge",
                "Protocol messages (simulator scenario).",
                messages,
            ),
            (
                "repro_bench_bytes",
                "gauge",
                "Protocol bytes (simulator scenario).",
                bytes_,
            ),
            (
                "repro_span_seconds_total",
                "counter",
                "Total seconds recorded under each span path.",
                span_seconds,
            ),
        ]
    )


_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"


def lint_openmetrics(text: str) -> list[str]:
    """Check OpenMetrics exposition invariants; returns problems found.

    Enforced: the document ends with ``# EOF``; every sample line names
    a valid metric; every sampled metric has exactly one prior ``# TYPE``
    declaration; values parse as floats.
    """
    import re

    problems: list[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("document must end with '# EOF'")
    typed: set[str] = set()
    sample_re = re.compile(
        rf"^({_METRIC_NAME})(?:\{{.*\}})? (\S+)(?: \d+(?:\.\d+)?)?$"
    )
    for i, line in enumerate(lines, start=1):
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not re.fullmatch(_METRIC_NAME, parts[2]):
                problems.append(f"line {i}: malformed TYPE line")
            elif parts[2] in typed:
                problems.append(f"line {i}: duplicate TYPE for {parts[2]}")
            else:
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        m = sample_re.match(line)
        if not m:
            problems.append(f"line {i}: malformed sample line")
            continue
        name = m.group(1)
        family = name
        for suffix in ("_total", "_count", "_sum", "_bucket", "_created"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if name not in typed and family not in typed:
            problems.append(f"line {i}: sample for undeclared metric {name}")
        try:
            float(m.group(2))
        except ValueError:
            problems.append(f"line {i}: non-numeric value {m.group(2)!r}")
    return problems
