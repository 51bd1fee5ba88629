import copy
import pickle
import random
from dataclasses import dataclass

import pytest

from lifeline.messages import (
    MAX_PAYLOAD_BYTES,
    STATION_RANGE_START,
    EmergencyMessage,
    InvariantViolation,
    MalformedDocument,
    NodeId,
    PacketKind,
    classify_packet,
    decode_message,
    encode_message,
    make_msg_id,
)


def make_msg(**overrides) -> EmergencyMessage:
    base = dict(
        msg_id=make_msg_id(NodeId(0x0A000001), 7),
        src=NodeId(0x0A000001),
        dst=NodeId(STATION_RANGE_START),
        priority=2,
        payload=b"help",
        sender_load=15,
        hop_count=0,
        created_at=1000,
    )
    base.update(overrides)
    return EmergencyMessage(**base)


def random_valid_message(rng: random.Random) -> EmergencyMessage:
    src = NodeId(rng.randrange(0, STATION_RANGE_START))
    return EmergencyMessage(
        msg_id=make_msg_id(src, rng.randrange(1 << 32)),
        src=src,
        dst=NodeId(rng.randrange(1 << 32)),
        priority=rng.randrange(5),
        payload=rng.randbytes(rng.randint(1, MAX_PAYLOAD_BYTES)),
        sender_load=rng.randint(0, 100),
        hop_count=rng.randint(0, 30),
        created_at=rng.randrange(10**9),
    )


def test_node_id_round_trip():
    n = NodeId(0xC0A80001)
    assert str(n) == "192.168.0.1"
    assert NodeId.parse("192.168.0.1") == n
    assert not n.is_station_address
    assert NodeId(STATION_RANGE_START).is_station_address
    assert str(NodeId(STATION_RANGE_START)) == "255.255.255.0"


@dataclass(frozen=True, order=True)
class DataclassNodeId:
    """NodeId as it was: a frozen, ordered dataclass of the address."""

    address: int


ADDRESS_SAMPLE = [0, 1, 2, 255, 256, 0x0A000001, 0x0A000002, 0xC0A80001,
                  STATION_RANGE_START, STATION_RANGE_START + 1, (1 << 32) - 1]


def test_node_id_hashes_compares_and_prints_like_the_dataclass():
    rng = random.Random(0x1D)
    addresses = ADDRESS_SAMPLE + [rng.randrange(1 << 32) for _ in range(200)]
    for a in addresses:
        n, old = NodeId(a), DataclassNodeId(a)
        assert hash(n) == hash(old) == hash((a,))
        assert n.address == a
        assert repr(n) == repr(old).replace("DataclassNodeId", "NodeId")
        assert str(n) == "{}.{}.{}.{}".format(*a.to_bytes(4, "big"))
        assert NodeId.parse(str(n)) == n
    for a, b in zip(addresses, addresses[1:]):
        assert (NodeId(a) == NodeId(b)) == (a == b)
        assert (NodeId(a) < NodeId(b)) == (a < b)
        assert (NodeId(a) >= NodeId(b)) == (a >= b)
    # Equal hashes and equality give sets and dicts the same order.
    assert [n.address for n in set(map(NodeId, addresses))] == [
        n.address for n in set(map(DataclassNodeId, addresses))]
    assert sorted(map(NodeId, addresses)) == [NodeId(a) for a in sorted(addresses)]


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda n: pickle.loads(pickle.dumps(n)),
    lambda n: pickle.loads(pickle.dumps(n, protocol=0)),
])
def test_node_id_copies_and_pickles_round_trip(clone):
    for a in ADDRESS_SAMPLE:
        twin = clone(NodeId(a))
        assert type(twin) is NodeId
        assert twin == NodeId(a) and twin.address == a
    nested = clone({NodeId(3): [NodeId(4)]})
    assert nested == {NodeId(3): [NodeId(4)]}
    assert type(next(iter(nested))) is NodeId


@pytest.mark.parametrize("address", [-1, 1 << 32, 1 << 40])
def test_node_id_rejects_out_of_range_addresses(address):
    with pytest.raises(InvariantViolation):
        NodeId(address)


def test_node_id_is_immutable():
    n = NodeId(7)
    with pytest.raises(AttributeError):
        n.address = 8
    with pytest.raises(AttributeError):
        n.other = 1


NON_CANONICAL_ADDRESSES = [
    "1_0.0.0.1",      # int() accepts digit-group underscores
    " +10.0.0.1 ",    # sign and surrounding whitespace
    "010.0.0.1",      # leading zero
    "10.0.0.1\n",
    "\u0661\u0660.0.0.1",  # Arabic-Indic digits
    "256.0.0.1",
    "10.0.0",
]


@pytest.mark.parametrize("text", NON_CANONICAL_ADDRESSES)
def test_node_id_parse_rejects_non_canonical(text):
    with pytest.raises(MalformedDocument):
        NodeId.parse(text)


def test_minimal_message_contains_priority_element():
    data = encode_message(make_msg(priority=0, payload=b"x"))
    assert b"<priority>0</priority>" in data


def test_full_payload_round_trip():
    msg = make_msg(payload=bytes(range(255)))
    decoded = decode_message(encode_message(msg))
    assert len(decoded.payload) == 255
    assert decoded.payload == msg.payload


def test_encode_decode_round_trip_randomized():
    rng = random.Random(0x11FE)
    for _ in range(1000):
        msg = random_valid_message(rng)
        wire = encode_message(msg)
        decoded = decode_message(wire)
        assert decoded == msg
        assert encode_message(decoded) == wire


def test_canonical_encoding_equal_messages():
    a = make_msg()
    b = make_msg()
    assert a is not b
    assert encode_message(a) == encode_message(b)


def test_decode_rejects_garbage():
    with pytest.raises(MalformedDocument):
        decode_message(b"hello")


def test_decode_rejects_out_of_range_priority():
    wire = encode_message(make_msg(priority=4)).replace(
        b"<priority>4</priority>", b"<priority>5</priority>")
    with pytest.raises(InvariantViolation):
        decode_message(wire)


def test_decode_rejects_missing_field():
    wire = encode_message(make_msg())
    broken = wire.replace(b"<hop_count>0</hop_count>", b"")
    with pytest.raises(MalformedDocument):
        decode_message(broken)


WIRE = encode_message(make_msg())


@pytest.mark.parametrize("old,new", [
    (b"<src>10.0.0.1</src>", b"<src>1_0.0.0.1</src>"),
    (b"<priority>2</priority>", b"<priority> +1 </priority>"),
    (b"<msg_id>%d</msg_id>" % make_msg().msg_id,
     "<msg_id>\u0661\u0662\u0663</msg_id>".encode("utf-8")),
    (b"<src>10.0.0.1</src>", b"<src>010.0.0.1</src>"),
    (b"<hop_count>0</hop_count>", b"<hop_count>00</hop_count>"),
    (b'<lifeline-msg v="1">', b'<lifeline-msg v="1" x="y">'),
    (b"</msg_id><src>", b"</msg_id> <src>"),
    (b"<payload>aGVscA==</payload>", b"<payload>QR==</payload>"),
    (b"<lifeline-msg ", b'<?xml version="1.0"?><lifeline-msg '),
], ids=["underscore-octet", "signed-padded-priority", "arabic-indic-msg-id",
        "leading-zero-octet", "leading-zero-integer", "extra-attribute",
        "whitespace-between-elements", "nonzero-base64-padding-bits",
        "xml-declaration"])
def test_decode_rejects_non_canonical(old, new):
    assert old in WIRE
    with pytest.raises(MalformedDocument):
        decode_message(WIRE.replace(old, new, 1))


def test_validate_rejects_bad_fields():
    for bad in (
        dict(priority=5),
        dict(priority=-1),
        dict(payload=b""),
        dict(payload=b"x" * 256),
        dict(sender_load=101),
        dict(hop_count=-1),
    ):
        with pytest.raises(InvariantViolation):
            make_msg(**bad).validate()


def test_classify_emergency():
    assert classify_packet(encode_message(make_msg())) is PacketKind.EMERGENCY


def test_classify_control():
    from lifeline.olsr import ControlKind, ControlPacket, encode_control
    tc = ControlPacket(ControlKind.TC, NodeId(1), 3, ())
    assert classify_packet(encode_control(tc)) is PacketKind.CONTROL


def test_classify_random_bytes_is_other():
    rng = random.Random(99)
    hits = sum(
        classify_packet(rng.randbytes(64)) is not PacketKind.OTHER
        for _ in range(1000)
    )
    assert hits == 0


def test_decode_never_crashes_on_fuzz():
    rng = random.Random(7)
    corpus = [rng.randbytes(rng.randint(0, 300)) for _ in range(500)]
    corpus += [encode_message(random_valid_message(rng))[:n] for n in (0, 5, 40)]
    corpus.append(b'<?xml version="1.0" encoding="bogus"?><lifeline-msg/>')
    corpus.append(WIRE.replace(b"<hop_count>0</hop_count>",
                               b"<hop_count>" + b"7" * 5000 + b"</hop_count>"))
    for data in corpus:
        try:
            decode_message(data)
        except (MalformedDocument, InvariantViolation):
            pass
    with pytest.raises(MalformedDocument):
        decode_message(corpus[-1])
