"""Property tests of the message codec: totality, canonicity and splicing."""

import binascii
import dataclasses
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lifeline import messages as codec
from lifeline.messages import (
    MAX_PAYLOAD_BYTES,
    PRIORITY_LEVELS,
    EmergencyMessage,
    InvariantViolation,
    MalformedDocument,
    NodeId,
    decode_message,
    encode_message,
    splice_hop,
)

CODEC_SETTINGS = settings(max_examples=300, deadline=None, database=None,
                          suppress_health_check=[HealthCheck.too_slow])


def digit_boundaries(limit: int) -> st.SearchStrategy[int]:
    """0, and each 10**k - 1 and 10**k below `limit`, plus any value."""
    edges = [0, limit - 1]
    k = 1
    while 10 ** k < limit:
        edges += [10 ** k - 1, 10 ** k]
        k += 1
    return st.one_of(st.sampled_from(edges), st.integers(0, limit - 1))


node_ids = st.builds(NodeId, st.integers(0, (1 << 32) - 1))

messages = st.builds(
    EmergencyMessage,
    msg_id=digit_boundaries(1 << 64),
    src=node_ids,
    dst=node_ids,
    priority=st.integers(0, PRIORITY_LEVELS - 1),
    payload=st.binary(min_size=1, max_size=MAX_PAYLOAD_BYTES),
    sender_load=st.integers(0, 100),
    hop_count=digit_boundaries(10 ** 40),
    created_at=digit_boundaries(10 ** 40),
)


@st.composite
def mutated_encodings(draw) -> bytes:
    """A valid encoding with one byte replaced, inserted or deleted."""
    wire = bytearray(encode_message(draw(messages)))
    i = draw(st.integers(0, len(wire) - 1))
    byte = draw(st.integers(0, 255))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "replace":
        wire[i] = byte
    elif edit == "insert":
        wire.insert(i, byte)
    else:
        del wire[i]
    return bytes(wire)


def check_total_and_canonical(data: bytes) -> None:
    try:
        msg = decode_message(data)
    except (MalformedDocument, InvariantViolation):
        return
    assert encode_message(msg) == data


@CODEC_SETTINGS
@given(st.binary(max_size=600))
def test_decode_arbitrary_bytes(data):
    check_total_and_canonical(data)


@CODEC_SETTINGS
@given(mutated_encodings())
def test_decode_single_byte_mutations(data):
    check_total_and_canonical(data)


@CODEC_SETTINGS
@given(messages)
def test_round_trip(msg):
    assert decode_message(encode_message(msg)) == msg


def held(hop_count: int, priority: int = 2) -> EmergencyMessage:
    return EmergencyMessage(7, NodeId(1), NodeId(2), priority, b"x", 0,
                            hop_count, 0)


# Messages whose fields the grammar matches, drawn on both sides of each
# bound validate() checks that the grammar does not: a msg_id of 2**64
# or more, a priority of PRIORITY_LEVELS or more, an empty or too long
# payload, a sender_load over 100.
grammar_messages = st.builds(
    EmergencyMessage,
    msg_id=st.one_of(digit_boundaries(1 << 64),
                     st.integers(1 << 64, 1 << 70)),
    src=node_ids,
    dst=node_ids,
    priority=st.integers(0, 3 * PRIORITY_LEVELS),
    payload=st.binary(max_size=MAX_PAYLOAD_BYTES + 20),
    sender_load=st.integers(0, 300),
    hop_count=digit_boundaries(10 ** 40),
    created_at=digit_boundaries(10 ** 40),
)


def document(msg: EmergencyMessage) -> bytes:
    """msg in the canonical layout, with no check of its fields."""
    return (codec._TEMPLATE % (
        msg.msg_id, msg.src, msg.dst, msg.priority,
        binascii.b2a_base64(msg.payload, newline=False).decode("ascii"),
        msg.sender_load, msg.hop_count, msg.created_at)).encode("ascii")


@CODEC_SETTINGS
@given(grammar_messages)
@example(dataclasses.replace(held(0), msg_id=1 << 64))
@example(dataclasses.replace(held(0), msg_id=(1 << 64) - 1))
@example(dataclasses.replace(held(0), priority=PRIORITY_LEVELS))
@example(dataclasses.replace(held(0), payload=b""))
@example(dataclasses.replace(held(0), payload=bytes(MAX_PAYLOAD_BYTES + 1)))
@example(dataclasses.replace(held(0), payload=bytes(MAX_PAYLOAD_BYTES)))
@example(dataclasses.replace(held(0), sender_load=101))
@example(dataclasses.replace(held(0), sender_load=100))
@example(dataclasses.replace(held(0), msg_id=1 << 64, priority=9,
                             payload=b"", sender_load=101))
def test_decode_raises_exactly_when_validate_would(msg):
    # Decode checks only the bounds the grammar leaves; on every document
    # the grammar matches it must raise what validate() raises, first
    # failing check first, and otherwise give the message back.
    data = document(msg)
    assert codec._DOCUMENT.fullmatch(data) is not None
    try:
        msg.validate()
    except InvariantViolation as error:
        with pytest.raises(InvariantViolation) as raised:
            decode_message(data)
        assert str(raised.value) == str(error)
    else:
        assert decode_message(data) == msg


@CODEC_SETTINGS
@given(messages, st.integers(0, PRIORITY_LEVELS - 1), digit_boundaries(10 ** 40))
@example(held(9), 0, 10)
@example(held(10, priority=4), 1, 9)
@example(held(99), 2, 100)
@example(held(0), 4, 0)
def test_splice_hop_matches_encoding(msg, priority, hop_count):
    # The spliced hop count may gain or lose a digit (9 -> 10, 10 -> 9):
    # the examples pin such pairs, and both counts are drawn at digit
    # boundaries.
    moved = dataclasses.replace(msg, priority=priority, hop_count=hop_count)
    assert splice_hop(encode_message(msg), priority, hop_count) == encode_message(moved)


# The document grammar with the payload matched by base64 alphabet and
# padding, as decode once matched it before re-encoding to check it.
ALPHABET_PAYLOAD = rb"([A-Za-z0-9+/]*={0,2})"
ALPHABET_DOCUMENT = re.compile(codec._DOCUMENT.pattern.replace(
    codec._BASE64, ALPHABET_PAYLOAD))

# Payload texts: mostly base64 characters, some padding, and bytes base64
# never writes (whitespace, '>', '-', '_', NUL, non-ASCII).
payload_texts = st.lists(
    st.sampled_from(b"ABQgwxyz09+/=== \n>-_\x00\xff"), max_size=12).map(bytes)


@CODEC_SETTINGS
@given(messages, payload_texts)
@example(held(0), b"QQ==")
@example(held(0), b"QR==")
@example(held(0), b"QQ")
@example(held(0), b"Q Q==")
@example(held(0), b"QQ==>")
def test_payload_grammar_accepts_and_rejects_as_the_alphabet_grammar(
        msg, payload_text):
    # Decode matches the payload only up to its closing tag; a text the
    # alphabet grammar rejects must still be rejected as malformed, and
    # any other text decodes exactly as before (the groups are the same).
    wire = encode_message(msg)
    start = wire.index(b"<payload>") + len(b"<payload>")
    data = wire[:start] + payload_text + wire[wire.index(b"</payload>"):]
    assert ALPHABET_DOCUMENT.pattern != codec._DOCUMENT.pattern
    if ALPHABET_DOCUMENT.fullmatch(data) is None:
        with pytest.raises(MalformedDocument):
            decode_message(data)
    else:
        # The same field texts reach the rest of decode, which is as it was.
        assert (codec._DOCUMENT.fullmatch(data).groups()
                == ALPHABET_DOCUMENT.fullmatch(data).groups())
        check_total_and_canonical(data)
