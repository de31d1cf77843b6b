"""Unit tests for wire messages."""

import pickle

import pytest

from repro.common.ids import OperationId, make_operation_id
from repro.common.timestamps import Tag
from repro.protocol.messages import (
    FRAME_OVERHEAD,
    HEADER_SIZE,
    Message,
    MuxBatch,
    ReadAck,
    ReadQuery,
    RegisterFrame,
    SnAck,
    SnQuery,
    WriteAck,
    WriteRequest,
)


class TestMessageSizes:
    def test_queries_cost_only_the_header(self):
        op = make_operation_id(0)
        assert SnQuery(op=op, round_no=1).size == HEADER_SIZE
        assert ReadQuery(op=op, round_no=1).size == HEADER_SIZE
        assert SnAck(op=op, round_no=1, tag=Tag(1, 0)).size == HEADER_SIZE
        assert WriteAck(op=op, round_no=1, tag=Tag(1, 0)).size == HEADER_SIZE

    def test_value_carrying_messages_bill_the_payload(self):
        op = make_operation_id(0)
        w = WriteRequest(op=op, round_no=1, tag=Tag(1, 0), value=b"x" * 100)
        assert w.size == HEADER_SIZE + 100
        r = ReadAck(op=op, round_no=1, tag=Tag(1, 0), value=b"y" * 50)
        assert r.size == HEADER_SIZE + 50

    def test_bottom_value_is_free(self):
        op = make_operation_id(0)
        w = WriteRequest(op=op, round_no=1, tag=Tag(0, 0), value=None)
        assert w.size == HEADER_SIZE


class TestMessageIdentity:
    def test_kind_names_match_class(self):
        op = make_operation_id(0)
        assert SnQuery(op=op, round_no=1).kind == "SnQuery"
        assert WriteRequest(op=op, round_no=1, tag=Tag(1, 0), value=1).kind == (
            "WriteRequest"
        )

    def test_messages_are_immutable_and_comparable(self):
        op = make_operation_id(0)
        a = SnAck(op=op, round_no=2, tag=Tag(3, 1))
        b = SnAck(op=op, round_no=2, tag=Tag(3, 1))
        assert a == b

    def test_recovery_messages_carry_no_operation(self):
        w = WriteRequest(op=None, round_no=1, tag=Tag(1, 0), value="v")
        assert w.op is None


OP = OperationId(pid=1, seq=2)
TAG = Tag(3, 1)
OP_TEXT, TAG_TEXT = "OperationId(pid=1, seq=2)", "Tag(sn=3, pid=1, rec=0)"
FRAME = RegisterFrame(register="k01", depth=2, message=SnQuery(OP, 4))
FRAME_TEXT = f"RegisterFrame(register='k01', depth=2, message=SnQuery(op={OP_TEXT}, round_no=4), size=43)"

#: One instance of each wire class built by keyword, its positional
#: twin, its ``repr`` and its billed size.
WIRE = [
    (SnQuery(op=OP, round_no=4), SnQuery(OP, 4), f"SnQuery(op={OP_TEXT}, round_no=4)", 32),
    (
        SnAck(op=OP, round_no=4, tag=TAG),
        SnAck(OP, 4, TAG),
        f"SnAck(op={OP_TEXT}, round_no=4, tag={TAG_TEXT})",
        32,
    ),
    (
        WriteRequest(op=None, round_no=4, tag=TAG, value="abc"),
        WriteRequest(None, 4, TAG, "abc"),
        f"WriteRequest(op=None, round_no=4, tag={TAG_TEXT}, value='abc')",
        35,
    ),
    (
        WriteAck(op=OP, round_no=4, tag=TAG),
        WriteAck(OP, 4, TAG),
        f"WriteAck(op={OP_TEXT}, round_no=4, tag={TAG_TEXT})",
        32,
    ),
    (ReadQuery(op=OP, round_no=4), ReadQuery(OP, 4), f"ReadQuery(op={OP_TEXT}, round_no=4)", 32),
    (
        ReadAck(op=OP, round_no=4, tag=TAG, value=b"12345", durable_tag=TAG),
        ReadAck(OP, 4, TAG, b"12345", TAG),
        f"ReadAck(op={OP_TEXT}, round_no=4, tag={TAG_TEXT}, value=b'12345', "
        f"durable_tag={TAG_TEXT})",
        37,
    ),
    (FRAME, RegisterFrame("k01", 2, SnQuery(OP, 4)), FRAME_TEXT, 43),
    (
        MuxBatch(op=None, round_no=0, frames=(FRAME, FRAME)),
        MuxBatch(None, 0, (FRAME, FRAME)),
        f"MuxBatch(op=None, round_no=0, frames=({FRAME_TEXT}, {FRAME_TEXT}), size=118)",
        118,
    ),
]
IDS = [type(wire).__name__ for wire, *_ in WIRE]


@pytest.mark.parametrize("wire, twin, text, size", WIRE, ids=IDS)
class TestEveryWireClass:
    def test_is_printed_with_its_fields_and_sized_when_built(self, wire, twin, text, size):
        assert isinstance(wire, Message) == (type(wire) is not RegisterFrame)
        assert repr(wire) == text
        assert wire.size == size

    def test_keyword_and_positional_construction_agree(self, wire, twin, text, size):
        assert wire == twin and not wire != twin
        assert hash(wire) == hash(twin)
        assert tuple(wire) == tuple(twin) and twin.size == size

    def test_is_immutable_and_carries_no_dict(self, wire, twin, text, size):
        assert not hasattr(wire, "__dict__")
        for name in wire._fields + ("size", "is_ack", "extra"):
            with pytest.raises(AttributeError):
                setattr(wire, name, None)

    def test_pickle_round_trip(self, wire, twin, text, size):
        clone = pickle.loads(pickle.dumps(wire))
        assert clone == wire and type(clone) is type(wire)
        assert clone.size == size


def test_read_ack_durable_tag_and_batch_frames_default():
    assert ReadAck(OP, 1, TAG, "v") == ReadAck(OP, 1, TAG, "v", durable_tag=None)
    assert MuxBatch(None, 0) == MuxBatch(None, 0, frames=())
    assert MuxBatch(None, 0).size == HEADER_SIZE


def test_size_cannot_be_passed_in():
    with pytest.raises(TypeError):
        WriteRequest(OP, 1, TAG, "v", 1)
    with pytest.raises(TypeError):
        RegisterFrame("k", 0, SnQuery(OP, 1), size=1)


def test_a_value_carrier_reads_its_own_size_not_the_class_constant():
    # ``Message.size`` is the header-only constant; a carrier that did
    # not override it would bill 32 bytes for anything.
    for cls in (WriteRequest, ReadAck):
        assert cls(OP, 1, TAG, b"x" * 1000).size == HEADER_SIZE + 1000
    frame = RegisterFrame("key", 0, WriteRequest(OP, 1, TAG, b"x" * 1000))
    assert frame.size == FRAME_OVERHEAD + 3 + HEADER_SIZE + 1000
    assert MuxBatch(None, 0, (frame, frame)).size == HEADER_SIZE + 2 * frame.size
    assert Message.size == SnQuery.size == WriteAck.size == HEADER_SIZE


def test_messages_of_different_classes_are_never_equal():
    # The decision, pinned: unlike the effects (plain named tuples),
    # messages kept the class-aware equality they had as dataclasses.
    assert SnQuery(OP, 1) != ReadQuery(OP, 1) and not SnQuery(OP, 1) == ReadQuery(OP, 1)
    assert SnAck(OP, 1, TAG) != WriteAck(OP, 1, TAG)
    assert SnQuery(OP, 1) != (OP, 1) and (OP, 1) != SnQuery(OP, 1)
    assert len({SnQuery(OP, 1), ReadQuery(OP, 1), SnQuery(OP, 1)}) == 2
    assert SnQuery(OP, 1) not in [ReadQuery(OP, 1)]
    assert [m.is_ack for m, *_ in WIRE if isinstance(m, Message)] == [
        False, True, False, True, False, True, False,
    ]
    # A frame is not a message and compares as the tuple it is.
    assert FRAME == ("k01", 2, SnQuery(OP, 4), 43)
    assert FRAME != ("k01", 2, ReadQuery(OP, 4), 43)
