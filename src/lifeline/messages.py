"""Emergency message model and the bit-exact wire codec.

Messages travel between nodes as small canonical XML documents: a fixed
element set in a fixed order with no optional whitespace, so that equal
messages always encode to identical bytes.  Decoding rejects every
document that is not canonical, so each accepted document is exactly the
encoding of the message it decodes to.

In custody only a message's priority and hop count change, so a node
that holds a message's encoding re-encodes it for the next hop by
splicing those two fields into the held bytes (`splice_hop`) instead of
formatting the whole document.  A run carries few addresses, so
`NodeId.__str__` remembers each address's text and decoding each text's
node id, both in bounded caches.
"""

from __future__ import annotations

import binascii
import functools
import operator
import re
from dataclasses import dataclass
from enum import Enum

WIRE_VERSION = "1"
MESSAGE_ROOT = "lifeline-msg"

MAX_PAYLOAD_BYTES = 255
PRIORITY_LEVELS = 5

ADDRESS_SPACE = 1 << 32
STATION_RANGE_SIZE = 256
# Top 256 addresses of the space are reserved for emergency stations.
STATION_RANGE_START = ADDRESS_SPACE - STATION_RANGE_SIZE

# Address texts that NodeId.__str__ and decode remember.  A run's
# messages name only its own nodes and station addresses, far fewer than
# this.
ADDRESS_CACHE_SIZE = 4096

_MESSAGE_FIELDS = (
    "msg_id", "src", "dst", "priority",
    "payload", "sender_load", "hop_count", "created_at",
)


class MalformedDocument(ValueError):
    """Bytes do not parse as a well-formed message document."""


class InvariantViolation(ValueError):
    """Document parsed but a field violates a message invariant."""


class NodeId(tuple):
    """Opaque 32-bit node address, rendered as dotted-quad text.

    A 1-tuple of the address, so hashing, equality and ordering run in C.
    It hashes, compares and sorts exactly as a frozen dataclass with the
    one field `address` would (`hash(NodeId(a)) == hash((a,))`), so sets
    and dicts of node ids keep their iteration order.  Unlike such a
    dataclass it compares equal to the plain tuple `(address,)`; no
    container in the package holds both.
    """

    __slots__ = ()

    def __new__(cls, address: int) -> "NodeId":
        if not 0 <= address < ADDRESS_SPACE:
            raise InvariantViolation(f"address out of range: {address}")
        return tuple.__new__(cls, (address,))

    def __getnewargs__(self) -> tuple[int]:
        # What copy, deepcopy and pickle pass back to __new__.
        return (self[0],)

    address = property(operator.itemgetter(0),
                       doc="The address as an integer in [0, 2**32).")

    def __repr__(self) -> str:
        return f"NodeId(address={self[0]})"

    @functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
    def __str__(self) -> str:
        """The dotted quad, remembered: a run names few addresses."""
        a = self[0]
        return f"{(a >> 24) & 0xFF}.{(a >> 16) & 0xFF}.{(a >> 8) & 0xFF}.{a & 0xFF}"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """Inverse of str(): only the canonical dotted quad parses."""
        if _ADDRESS_TEXT.fullmatch(text) is None:
            raise MalformedDocument(f"not a canonical dotted-quad address: {text!r}")
        a, b, c, d = map(int, text.split("."))
        return cls((a << 24) | (b << 16) | (c << 8) | d)

    @property
    def is_station_address(self) -> bool:
        return self[0] >= STATION_RANGE_START


def make_msg_id(src: NodeId, counter: int) -> int:
    """Collision-free 64-bit id: source address packed with a per-node counter."""
    return (src.address << 32) | (counter & 0xFFFFFFFF)


class PacketKind(Enum):
    EMERGENCY = "emergency"
    OTHER = "other"


@dataclass
class EmergencyMessage:
    """One unit of emergency traffic.

    priority runs 0 (most urgent) to 4; demotion saturates at 4.
    sender_load is the originating device's load percentage, attached at
    creation and never mutated in transit.
    """

    msg_id: int
    src: NodeId
    dst: NodeId
    priority: int
    payload: bytes
    sender_load: int
    hop_count: int = 0
    created_at: int = 0

    def validate(self) -> None:
        if not 0 <= self.msg_id < (1 << 64):
            raise InvariantViolation(f"msg_id out of range: {self.msg_id}")
        if not 0 <= self.priority < PRIORITY_LEVELS:
            raise InvariantViolation(f"priority out of range: {self.priority}")
        if not 1 <= len(self.payload) <= MAX_PAYLOAD_BYTES:
            raise InvariantViolation(f"payload length out of range: {len(self.payload)}")
        if not 0 <= self.sender_load <= 100:
            raise InvariantViolation(f"sender_load out of range: {self.sender_load}")
        if self.hop_count < 0:
            raise InvariantViolation(f"negative hop_count: {self.hop_count}")
        if self.created_at < 0:
            raise InvariantViolation(f"negative created_at: {self.created_at}")


# Field grammar of the canonical encoding: ASCII decimals without sign or
# leading zeros, and octets 0-255.  The payload is matched only up to its
# closing tag here: decode checks it is canonical base64 (alphabet,
# padding, zero unused bits) by re-encoding, since b2a_base64 writes only
# canonical text.
_INT = rb"(0|[1-9][0-9]*)"
_OCTET = rb"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_ADDRESS = rb"\.".join([_OCTET] * 4)
# NodeId.parse accepts exactly the address text this grammar accepts.
_ADDRESS_TEXT = re.compile(_ADDRESS.decode("ascii"))
_BASE64 = rb"([^<]*)"
# An address is one group, so decode reads its text whole.
_FIELD_GRAMMAR = {
    "msg_id": _INT, "src": b"(%s)" % _ADDRESS, "dst": b"(%s)" % _ADDRESS,
    "priority": _INT, "payload": _BASE64, "sender_load": _INT,
    "hop_count": _INT, "created_at": _INT,
}
_HEAD = f'<{MESSAGE_ROOT} v="{WIRE_VERSION}">'
_TAIL = f"</{MESSAGE_ROOT}>"
# The one canonical layout; encode fills it, decode matches nothing else.
_TEMPLATE = _HEAD + "".join(f"<{f}>%s</{f}>" for f in _MESSAGE_FIELDS) + _TAIL
_DOCUMENT = re.compile(
    re.escape(_HEAD.encode("ascii"))
    + b"".join(b"<%s>%s</%s>" % (f.encode("ascii"), _FIELD_GRAMMAR[f],
                                 f.encode("ascii"))
               for f in _MESSAGE_FIELDS)
    + re.escape(_TAIL.encode("ascii")))


# NodeId from a 1-tuple, without the range check: four octets the grammar
# matched always make an address in range.
_grammar_node_id = functools.partial(tuple.__new__, NodeId)

@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _address_node_id(text: bytes) -> NodeId:
    """The NodeId of address text the document grammar matched."""
    a, b, c, d = map(int, text.split(b"."))
    return _grammar_node_id(((a << 24) | (b << 16) | (c << 8) | d,))


def encode_message(msg: EmergencyMessage) -> bytes:
    """Canonical wire encoding; equal messages yield identical bytes."""
    msg.validate()
    return (_TEMPLATE % (
        msg.msg_id, msg.src, msg.dst,
        msg.priority,
        binascii.b2a_base64(msg.payload, newline=False).decode("ascii"),
        msg.sender_load, msg.hop_count, msg.created_at,
    )).encode("ascii")


_PRIORITY_OPEN = b"<priority>"
_HOP_OPEN = b"<hop_count>"
_HOP_CLOSE = b"</hop_count>"


def splice_hop(data: bytes, priority: int, hop_count: int) -> bytes:
    """encode_message of data's message with priority and hop_count replaced.

    data must be a canonical encoding, as decode_message accepts or
    encode_message returns.  Only the two fields' digits are rewritten:
    no field text holds a '<', so each tag is found by a plain search,
    and a canonical priority is always one digit.
    """
    if not 0 <= priority < PRIORITY_LEVELS:
        raise InvariantViolation(f"priority out of range: {priority}")
    if hop_count < 0:
        raise InvariantViolation(f"negative hop_count: {hop_count}")
    p = data.index(_PRIORITY_OPEN) + len(_PRIORITY_OPEN)
    h = data.index(_HOP_OPEN, p) + len(_HOP_OPEN)
    return b"%b%d%b%d%b" % (data[:p], priority, data[p + 1:h], hop_count,
                            data[data.index(_HOP_CLOSE, h):])


def decode_message(data: bytes) -> EmergencyMessage:
    """Decode wire bytes back into a message, enforcing all invariants.

    Only the canonical encoding decodes: every accepted document is
    exactly encode_message of the result.  Raises MalformedDocument for
    anything else, InvariantViolation for canonical documents with
    out-of-range fields.  Never raises anything else on arbitrary input.
    """
    match = _DOCUMENT.fullmatch(data)
    if match is None:
        raise MalformedDocument("not a canonical v1 message document")
    (msg_id, src, dst, priority, payload_b64,
     sender_load, hop_count, created_at) = match.groups()
    try:
        payload = binascii.a2b_base64(payload_b64)
    except binascii.Error:
        raise MalformedDocument("payload is not valid base64") from None
    if binascii.b2a_base64(payload, newline=False) != payload_b64:
        raise MalformedDocument("payload is not canonical base64")
    try:
        # Fields in _MESSAGE_FIELDS order.
        msg = EmergencyMessage(
            int(msg_id), _address_node_id(src), _address_node_id(dst),
            int(priority), payload, int(sender_load), int(hop_count),
            int(created_at))
    except ValueError:  # more digits than int() converts
        raise MalformedDocument("integer field too long") from None
    # The grammar has no sign, so hop_count, created_at and every lower
    # bound hold; these are the checks of validate() it leaves, in order.
    if msg.msg_id >= 1 << 64:
        raise InvariantViolation(f"msg_id out of range: {msg.msg_id}")
    if msg.priority >= PRIORITY_LEVELS:
        raise InvariantViolation(f"priority out of range: {msg.priority}")
    if not 1 <= len(payload) <= MAX_PAYLOAD_BYTES:
        raise InvariantViolation(f"payload length out of range: {len(payload)}")
    if msg.sender_load > 100:
        raise InvariantViolation(f"sender_load out of range: {msg.sender_load}")
    return msg


def classify_packet(data: bytes) -> PacketKind:
    """Total classification of arbitrary bytes; never raises."""
    try:
        decode_message(data)
    except (MalformedDocument, InvariantViolation):
        return PacketKind.OTHER
    return PacketKind.EMERGENCY
