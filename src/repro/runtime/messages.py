"""The mechanism's wire protocol with byte accounting.

Message sizes follow a compact binary encoding (8-byte float values,
4-byte integer ids, 1-byte tags) so the simulator can report protocol
overhead in bytes — the quantity a deployment engineer would budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(unsafe_hash=True)
class Message:
    """Base message: sender/receiver use -1 for the central body."""

    sender: int
    receiver: int

    #: wire size in bytes, excluding transport framing
    WIRE_BYTES = 1 + 4 + 4  # tag + sender + receiver

    def wire_bytes(self) -> int:
        return self.WIRE_BYTES


@dataclass(unsafe_hash=True)
class BidMessage(Message):
    """Agent → central: dominant valuation for a desired object
    (Figure 2 line 08).

    ``seq`` is the per-round transmission sequence number: 0 for the
    first send, incremented on every deadline-driven retransmission.
    The central body uses it (together with the bid content) to discard
    network-duplicated or retransmitted copies idempotently instead of
    treating them as protocol violations.
    """

    obj: int = -1
    value: float = 0.0
    seq: int = 0

    def wire_bytes(self) -> int:
        return Message.WIRE_BYTES + 4 + 8 + 4


@dataclass(unsafe_hash=True)
class AllocateMessage(Message):
    """Central → all agents: the OMAX broadcast (line 13) carrying the
    winning (server, object) pair so NN tables can be updated."""

    winner: int = -1
    obj: int = -1

    def wire_bytes(self) -> int:
        return Message.WIRE_BYTES + 4 + 4


@dataclass(unsafe_hash=True)
class PaymentMessage(Message):
    """Central → winner: the second-best payment (line 14)."""

    amount: float = 0.0

    def wire_bytes(self) -> int:
        return Message.WIRE_BYTES + 8


@dataclass(unsafe_hash=True)
class NNUpdateMessage(Message):
    """Agent-internal NN table refresh acknowledgement (lines 19–21).

    Modeled as a message so the accounting covers the full broadcast
    fan-out of a round.
    """

    obj: int = -1

    def wire_bytes(self) -> int:
        return Message.WIRE_BYTES + 4


@dataclass(unsafe_hash=True)
class NNResyncMessage(Message):
    """Periodic NN-table resync under the lazy update protocol.

    Where the eager protocol acknowledges one object per round
    (:class:`NNUpdateMessage`), the lazy protocol batches: every
    ``nn_update_period`` rounds each agent refreshes *all* objects
    allocated since the last broadcast.  ``objs`` is that stale set, and
    the wire size scales with it — the honest cost of the batched
    refresh (4 bytes per object id plus a 4-byte count).
    """

    objs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.objs = tuple(self.objs)

    def wire_bytes(self) -> int:
        return Message.WIRE_BYTES + 4 + 4 * len(self.objs)


@dataclass(unsafe_hash=True)
class StateSyncMessage(Message):
    """Agent → recovering central: the agent's current replica holdings.

    Sent during checkpoint recovery so the restored central body can
    rebuild the replica map for the rounds lost since its last
    checkpoint.  Carries one 4-byte object id per held replica plus a
    4-byte count.
    """

    objs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.objs = tuple(self.objs)

    def wire_bytes(self) -> int:
        return Message.WIRE_BYTES + 4 + 4 * len(self.objs)


@dataclass(unsafe_hash=True)
class ElectionMessage(Message):
    """Agent → agent: leader-election vote after a central-body failure
    (the §7 "self-repairing" behaviour).  Carries the proposed id."""

    candidate: int = -1

    def wire_bytes(self) -> int:
        return Message.WIRE_BYTES + 4


@dataclass
class MessageLog:
    """Counts and sizes per message type; optionally keeps the stream.

    ``counts`` stays per receiver when a fan-out is recorded at once
    (:meth:`record_fanout`): a broadcast to ``n`` agents counts ``n``
    messages and ``n`` times their wire size, exactly as ``n``
    :meth:`record` calls would.
    """

    keep_messages: bool = False
    counts: dict[str, int] = field(default_factory=dict)
    bytes_total: int = 0
    messages: list[Message] = field(default_factory=list)

    def record(self, message: Message) -> None:
        name = type(message).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        self.bytes_total += message.wire_bytes()
        if self.keep_messages:
            self.messages.append(message)

    def record_fanout(
        self, make: Callable[[int], Message], receivers: Sequence[int]
    ) -> None:
        """Record one broadcast: ``make(r)`` for every ``r`` in ``receivers``.

        A fan-out sends one payload, so every message has the type and
        wire size of the first; only that one is built unless the log
        keeps the stream.  No receivers, no messages (and no new key in
        ``counts``).
        """
        n = len(receivers)
        if n == 0:
            return
        if self.keep_messages:
            sent = [make(r) for r in receivers]
            self.messages.extend(sent)
            first = sent[0]
        else:
            first = make(receivers[0])
        name = type(first).__name__
        self.counts[name] = self.counts.get(name, 0) + n
        self.bytes_total += n * first.wire_bytes()

    def total_messages(self) -> int:
        return sum(self.counts.values())
