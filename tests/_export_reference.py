"""The REVB v1 segment codec, kept as the reference for the compiled one.

:class:`SegmentCodec` is the record codec ``repro.obs.export`` ran
before each kind's records were laid out by one ``struct.Struct`` per
tuple of its variable field lengths: the fields split into maximal runs
of fixed-width fields, one ``Struct`` per run, with each ``str`` or
tuple field packed and unpacked on its own in between.  Its bytes, its
decoded events and its ``ValueError`` texts are what the compiled codec
must reproduce.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from operator import attrgetter
from typing import Any, Optional

from repro.obs.events import EVENT_TYPES, Event

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<BI")
_FIXED_CODES = {"float": "d", "int": "q", "bool": "?"}
_VAR_ITEM_BYTES = {
    "str": 1,
    "tuple[int, ...]": 8,
    "tuple[tuple[int, int], ...]": 16,
}


class SegmentCodec:
    """One event kind's record codec, segment by segment.

    ``pack(event)`` is the whole record, header included, with the
    kind's index in :data:`EVENT_TYPES`; ``decode(buf, pos, end)`` reads
    the payload ``buf[pos:end]``.
    """

    def __init__(self, cls: type[Event]) -> None:
        self.cls = cls
        self.index = list(EVENT_TYPES.values()).index(cls)
        self.values = attrgetter(*(f.name for f in fields(cls)))
        #: ``(name, annotation, run)``: ``run`` is the Struct of a
        #: fixed-width run (``name`` its first field, annotation ``""``),
        #: or None for one variable-width field.
        self.segments: list[tuple[str, str, Optional[struct.Struct]]] = []
        run, first = "", ""
        for f in fields(cls):
            if f.type in _FIXED_CODES:
                run, first = run + _FIXED_CODES[f.type], first or f.name
                continue
            if run:
                self.segments.append((first, "", struct.Struct("<" + run)))
                run, first = "", ""
            self.segments.append((f.name, f.type, None))
        if run:
            self.segments.append((first, "", struct.Struct("<" + run)))

    def pack(self, event: Event) -> bytes:
        values = self.values(event)
        parts: list[bytes] = []
        i = 0
        for _, ann, run in self.segments:
            if run is not None:
                n = len(run.format) - 1  # "<" + one code per field
                parts.append(run.pack(*values[i : i + n]))
                i += n
                continue
            value = values[i]
            i += 1
            if ann == "str":
                raw = value.encode("utf-8")
                parts += (_U32.pack(len(raw)), raw)
            elif ann == "tuple[int, ...]":
                parts += (
                    _U32.pack(len(value)),
                    struct.pack(f"<{len(value)}q", *value),
                )
            else:
                flat = [x for pair in value for x in pair]
                parts += (
                    _U32.pack(len(value)),
                    struct.pack(f"<{len(flat)}q", *flat),
                )
        payload = b"".join(parts)
        return _HEADER.pack(self.index, len(payload)) + payload

    def decode(self, buf: bytes, pos: int, end: int) -> Event:
        """Decode the payload ``buf[pos:end]`` into an event.

        Raises ``ValueError`` unless the fields fill the payload
        exactly — a field running past its end included.
        """
        start = pos
        values: list[Any] = []
        for name, ann, run in self.segments:
            if run is not None:
                need = run.size
            else:
                need = 4  # the u32 count, then its items
                if end - pos >= need:
                    count = _U32.unpack_from(buf, pos)[0]
                    pos += 4
                    need = count * _VAR_ITEM_BYTES[ann]
            if end - pos < need:
                raise ValueError(
                    f"record payload length mismatch: {self.cls.type!r} "
                    f"field {name!r} overruns the {end - start}-byte payload"
                )
            if run is not None:
                values += run.unpack_from(buf, pos)
            elif ann == "str":
                values.append(buf[pos : pos + need].decode("utf-8"))
            elif ann == "tuple[int, ...]":
                values.append(struct.unpack_from(f"<{count}q", buf, pos))
            else:
                flat = struct.unpack_from(f"<{2 * count}q", buf, pos)
                values.append(tuple(zip(flat[::2], flat[1::2])))
            pos += need
        if pos != end:
            raise ValueError(
                f"record payload length mismatch: {pos - start} decoded of "
                f"{end - start}"
            )
        return self.cls(*values)
