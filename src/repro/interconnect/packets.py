"""CXL.cache message and packet formats.

Only the fields that matter to the timing and functional simulation are
modelled: message type, cache-line address, payload size, and the reserved
header bit the paper repurposes to flag a DBA-compressed (32-byte) payload
(Section V-B: "the packet header has at least six unused bits").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "MessageType",
    "CacheLinePayload",
    "CXLPacket",
    "packet_wire_bytes",
    "CACHE_LINE_BYTES",
    "HEADER_BYTES",
]

#: Cache-line size used throughout (gem5-avx config, Table II).
CACHE_LINE_BYTES = 64

#: Modelled CXL.cache packet header size (flit slot header + CRC share).
HEADER_BYTES = 4


class MessageType(enum.Enum):
    """CXL.cache request/response opcodes used by the TECO protocol.

    The subset follows Figures 4 and 5: reads for ownership/sharing, the
    invalidation message of stock MESI, and the ``Go_Flush``/``FlushData``
    pair added by the update-protocol extension.
    """

    READ_OWN = enum.auto()  # RdOwn: gain Exclusive/Modified
    READ_SHARED = enum.auto()  # RdShared: gain Shared
    INVALIDATE = enum.auto()  # stock MESI invalidation probe
    GO_FLUSH = enum.auto()  # home agent approves immediate flush (update ext.)
    FLUSH_DATA = enum.auto()  # update-protocol data push (MESI-update msg)
    WRITEBACK = enum.auto()  # dirty eviction to home memory
    DATA = enum.auto()  # data response to a read
    ACK = enum.auto()  # completion without data

    @property
    def carries_data(self) -> bool:
        """Whether this opcode carries a data payload."""
        return self in (MessageType.FLUSH_DATA, MessageType.WRITEBACK, MessageType.DATA)


@dataclass(frozen=True)
class CacheLinePayload:
    """Payload of one cache line, possibly DBA-aggregated.

    ``dirty_bytes`` of 4 (or DBA inactive) means the full 64-byte line is
    carried; ``dirty_bytes=2`` means the Aggregator packed the low 2 bytes
    of each of the 16 FP32 words into a 32-byte payload.
    """

    address: int
    dirty_bytes: int = 4

    def __post_init__(self) -> None:
        # Deferred: repro.dba imports this module for CACHE_LINE_BYTES.
        from repro.dba.registers import check_dirty_bytes

        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.address % CACHE_LINE_BYTES:
            raise ValueError(
                f"address {self.address:#x} not {CACHE_LINE_BYTES}-byte aligned"
            )
        check_dirty_bytes(self.dirty_bytes)

    @property
    def size_bytes(self) -> int:
        """Bytes of payload on the wire for this line."""
        return CACHE_LINE_BYTES * self.dirty_bytes // 4

    @property
    def is_aggregated(self) -> bool:
        """Whether the payload is DBA-compressed (< full line)."""
        return self.dirty_bytes < 4


@dataclass(frozen=True)
class CXLPacket:
    """One CXL packet: a message plus zero or more line payloads.

    The link layer "combines one or multiple 32-byte payloads into one CXL
    packet depending on the CXL transfer size" (Section V-B); aggregation of
    two 32-byte payloads per 64-byte slot is what halves the wire volume.
    """

    message: MessageType
    payloads: tuple[CacheLinePayload, ...] = field(default_factory=tuple)
    dba_flag: bool = False

    def __post_init__(self) -> None:
        if self.message.carries_data and not self.payloads:
            raise ValueError(f"{self.message} requires at least one payload")
        if not self.message.carries_data and self.payloads:
            raise ValueError(f"{self.message} must not carry payloads")
        if self.dba_flag and any(not p.is_aggregated for p in self.payloads):
            raise ValueError("dba_flag set but payload is a full line")
        if not self.dba_flag and any(p.is_aggregated for p in self.payloads):
            raise ValueError("aggregated payload requires dba_flag")

    @property
    def payload_bytes(self) -> int:
        """Sum of the payload bytes of all carried lines."""
        return sum(p.size_bytes for p in self.payloads)

    @property
    def wire_bytes(self) -> int:
        """On-wire size including per-slot headers."""
        return packet_wire_bytes(self.payload_bytes)


def packet_wire_bytes(payload_bytes: int) -> int:
    """Total on-wire size of a packet with ``payload_bytes`` of data.

    Control-only packets cost one header; data packets cost a header per
    64-byte slot occupied (payloads are packed into slots back-to-back).
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    if payload_bytes == 0:
        return HEADER_BYTES
    slots = -(-payload_bytes // CACHE_LINE_BYTES)  # ceil division
    return payload_bytes + slots * HEADER_BYTES
