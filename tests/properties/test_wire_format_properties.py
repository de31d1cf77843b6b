"""Property-based tests for the live transport's wire format.

Whatever message the protocols can build from plain data comes back
from ``decode(encode(...))`` equal to what went in -- its billed
``size``, the written model of ``protocol/messages.py``, included --
and a datagram damaged anywhere never decodes to anything.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.ids import OperationId
from repro.common.timestamps import Tag
from repro.common.values import SizedValue, payload_size
from repro.protocol.messages import (
    FRAME_OVERHEAD,
    HEADER_SIZE,
    MuxBatch,
    ReadAck,
    ReadQuery,
    RegisterFrame,
    SnAck,
    SnQuery,
    WriteAck,
    WriteRequest,
)
from repro.runtime.transport import decode, encode

U32 = st.integers(min_value=0, max_value=2**32 - 1)
OPS = st.none() | st.builds(
    OperationId,
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**63 - 1),
)
TAGS = st.builds(Tag, st.integers(min_value=0, max_value=2**64 - 1), U32, U32)
# Lone surrogates (category Cs) drawn often: pickle carries them too.
CHARS = st.characters(blacklist_categories=()) | st.characters(
    whitelist_categories=("Cs",)
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**90), max_value=2**90)
    | st.floats(allow_nan=False)
    | st.text(CHARS, max_size=12)
    | st.binary(max_size=12)
)
KEYS = st.integers() | st.text(max_size=6) | st.binary(max_size=6)
PLAIN = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)
VALUES = (
    PLAIN
    # Over 255 UTF-8 bytes: pickled as BINUNICODE, not SHORT_BINUNICODE.
    | st.text(min_size=256, max_size=260)
    | st.builds(
        SizedValue, st.text(max_size=8), st.integers(min_value=0, max_value=2**40)
    )
)
PLAIN_MESSAGES = st.one_of(
    st.builds(SnQuery, OPS, U32),
    st.builds(SnAck, OPS, U32, TAGS),
    st.builds(WriteRequest, OPS, U32, TAGS, VALUES),
    st.builds(WriteAck, OPS, U32, TAGS),
    st.builds(ReadQuery, OPS, U32),
    st.builds(ReadAck, OPS, U32, TAGS, VALUES, st.none() | TAGS),
)
FRAMES = st.builds(RegisterFrame, st.text(max_size=10), U32, PLAIN_MESSAGES)
MESSAGES = PLAIN_MESSAGES | st.builds(
    MuxBatch, OPS, U32, st.lists(FRAMES, max_size=4).map(tuple)
)
SRCS = st.integers(min_value=0, max_value=2**16 - 1)


@settings(max_examples=300, deadline=None)
@given(SRCS, U32, MESSAGES)
def test_decode_inverts_encode(src, depth, message):
    decoded_src, decoded_depth, decoded = decode(encode(src, depth, message))
    assert (decoded_src, decoded_depth, decoded) == (src, depth, message)
    assert type(decoded) is type(message)
    assert type(decoded_depth) is int
    assert_fields_keep_their_classes(decoded)
    # SizedValue compares by label alone; the billed size travels too.
    value = getattr(message, "value", None)
    if isinstance(value, SizedValue):
        assert decoded.value.size == value.size


def assert_fields_keep_their_classes(message):
    """Ids and tags arrive as the classes they are, not as the plain tuples
    they equal; so do the frames of a batch and the messages inside them."""
    assert message.op is None or type(message.op) is OperationId
    for name in ("tag", "durable_tag"):
        field = getattr(message, name, None)
        assert field is None or type(field) is Tag
    for frame in getattr(message, "frames", ()):
        assert type(frame) is RegisterFrame
        assert_fields_keep_their_classes(frame.message)


def modelled_size(message):
    """The size model as written down, recomputed from the fields alone."""
    if type(message) is MuxBatch:
        return HEADER_SIZE + sum(
            FRAME_OVERHEAD + len(frame.register) + modelled_size(frame.message)
            for frame in message.frames
        )
    return HEADER_SIZE + payload_size(getattr(message, "value", None))


@settings(max_examples=300, deadline=None)
@given(st.builds(MuxBatch, OPS, U32, st.lists(FRAMES, max_size=8).map(tuple)))
def test_size_is_the_written_model_and_survives_the_wire(batch):
    assert batch.size == modelled_size(batch)
    (_, _, decoded) = decode(encode(0, 0, batch))
    assert decoded.size == batch.size
    for frame, arrived in zip(batch.frames, decoded.frames):
        inner = frame.message
        assert inner.size == modelled_size(inner)
        assert (arrived.size, arrived.message.size) == (frame.size, inner.size)
        # A message that travels bare is sized the same way.
        assert decode(encode(0, 0, inner))[2].size == inner.size


def test_a_nan_value_travels():
    (_, _, decoded) = decode(encode(0, 0, WriteRequest(None, 0, Tag(1, 0), math.nan)))
    assert math.isnan(decoded.value)


@settings(max_examples=200, deadline=None)
@given(SRCS, U32, MESSAGES, st.data())
def test_damage_anywhere_never_decodes(src, depth, message, data):
    good = encode(src, depth, message)
    at = data.draw(st.integers(min_value=0, max_value=len(good) - 1))
    damaged = bytearray(good)
    damaged[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    for bad in (bytes(damaged), good[:at], good + good[at:]):
        with pytest.raises(Exception):
            decode(bad)
