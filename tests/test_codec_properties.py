"""Property tests of the message codec: totality, canonicity and sizing."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lifeline.messages import (
    MAX_PAYLOAD_BYTES,
    PRIORITY_LEVELS,
    EmergencyMessage,
    InvariantViolation,
    MalformedDocument,
    NodeId,
    decode_message,
    encode_message,
    encoded_size,
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


@CODEC_SETTINGS
@given(messages)
def test_encoded_size_matches_encoding(msg):
    assert encoded_size(msg) == len(encode_message(msg))
