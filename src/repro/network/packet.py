"""Wire-level packet data types for the simulated network.

Sizes are in bytes and include protocol overhead, mirroring what NetEm and
Wireshark see on a real interface.  ``WIRE_HEADER_BYTES`` approximates the
Ethernet + IP + TCP header stack of the paper's Docker bridge network.
"""

from __future__ import annotations

from enum import Enum
from typing import Any

__all__ = ["PacketKind", "Packet", "WIRE_HEADER_BYTES", "ACK_PACKET_BYTES", "DEFAULT_MTU"]

#: Ethernet (14) + IPv4 (20) + TCP (32 incl. options) header bytes.
WIRE_HEADER_BYTES = 66

#: A bare TCP acknowledgement segment on the wire.
ACK_PACKET_BYTES = WIRE_HEADER_BYTES

#: Standard Ethernet MTU: maximum payload bytes per packet.
DEFAULT_MTU = 1500


class PacketKind(Enum):
    """What a packet carries."""

    DATA = "data"
    ACK = "ack"


class Packet:
    """A single simulated packet.

    A plain ``__slots__`` class: the transport builds one per segment and
    one per acknowledgement, so construction sits on the per-message path.

    Attributes
    ----------
    kind:
        Whether this is a data segment or a transport-level acknowledgement.
    size_bytes:
        Total on-the-wire size, including headers.
    message_id:
        Identifier of the transport-level message this segment belongs to.
    segment_index:
        Index of this segment within its message.
    payload:
        Opaque application object carried by the final segment of a message.
    attempt:
        Retransmission attempt number for this segment (0 = first try).
    """

    __slots__ = ("kind", "size_bytes", "message_id", "segment_index", "payload", "attempt")

    def __init__(
        self,
        kind: PacketKind,
        size_bytes: int,
        message_id: int,
        segment_index: int = 0,
        payload: Any = None,
        attempt: int = 0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.kind = kind
        self.size_bytes = size_bytes
        self.message_id = message_id
        self.segment_index = segment_index
        self.payload = payload
        self.attempt = attempt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.value}, {self.size_bytes} B, message {self.message_id}, "
            f"segment {self.segment_index}, attempt {self.attempt})"
        )

    def is_ack(self) -> bool:
        """True when this packet is a transport acknowledgement."""
        return self.kind is PacketKind.ACK
