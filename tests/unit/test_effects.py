"""Unit tests for the effect values of the protocol/environment contract."""

import pickle

import pytest

from repro.common.ids import OperationId
from repro.common.timestamps import Tag
from repro.protocol.base import (
    Broadcast,
    CancelTimer,
    Checkpoint,
    Effect,
    RecoveryComplete,
    Reply,
    Send,
    SetTimer,
    Store,
)
from repro.protocol.messages import SnQuery

OP = OperationId(pid=1, seq=2)
MESSAGE = SnQuery(op=OP, round_no=1)

#: One instance of each effect, built by keyword, with its ``repr``.
EFFECTS = [
    (Send(dst=2, message=MESSAGE), f"Send(dst=2, message={MESSAGE!r})"),
    (Broadcast(message=MESSAGE), f"Broadcast(message={MESSAGE!r})"),
    (
        Store(key="written", record=((1, 0, 0), "v"), size=17, token=("written", 1)),
        "Store(key='written', record=((1, 0, 0), 'v'), size=17, token=('written', 1))",
    ),
    (
        Reply(op=OP, result="v", tag=Tag(1, 0)),
        "Reply(op=OperationId(pid=1, seq=2), result='v', tag=Tag(sn=1, pid=0, rec=0))",
    ),
    (SetTimer(delay=2e-3, token=("retry", 1)), "SetTimer(delay=0.002, token=('retry', 1))"),
    (CancelTimer(token=("retry", 1)), "CancelTimer(token=('retry', 1))"),
    (RecoveryComplete(), "RecoveryComplete()"),
    (Checkpoint(), "Checkpoint()"),
]
IDS = [type(effect).__name__ for effect, _ in EFFECTS]


@pytest.mark.parametrize("effect, text", EFFECTS, ids=IDS)
class TestEveryEffect:
    def test_is_an_effect_printed_with_its_fields(self, effect, text):
        assert isinstance(effect, Effect)
        assert repr(effect) == text

    def test_equality_and_hash_are_structural(self, effect, text):
        twin = type(effect)(*effect)
        assert twin == effect and hash(twin) == hash(effect)

    def test_is_immutable_and_carries_no_dict(self, effect, text):
        assert not hasattr(effect, "__dict__")
        for name in effect._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(effect, name, None)

    def test_pickle_round_trip(self, effect, text):
        clone = pickle.loads(pickle.dumps(effect))
        assert clone == effect and type(clone) is type(effect)


def test_reply_result_and_tag_default_to_none():
    assert Reply(OP) == Reply(op=OP, result=None, tag=None)


def test_positional_and_keyword_construction_agree():
    assert Send(2, MESSAGE) == Send(dst=2, message=MESSAGE)
    assert Store("k", (1,), 3, "t") == Store(key="k", record=(1,), size=3, token="t")


def test_effects_holding_equal_fields_are_equal_across_classes():
    # Pinned, not wished for: named tuples compare as the tuples they
    # are, so ``==`` / ``in`` / dict keys cannot tell effect classes
    # apart and code must look at the class (see ``Effect``).
    assert RecoveryComplete() == Checkpoint() == ()
    assert not RecoveryComplete() and not Checkpoint()
    assert CancelTimer("t") == Broadcast("t") == ("t",)
    assert hash(CancelTimer("t")) == hash(Broadcast("t"))
    assert SetTimer(2, MESSAGE) == Send(2, MESSAGE)
    assert Checkpoint() in [RecoveryComplete()]
    assert [type(effect) for effect in (RecoveryComplete(), Checkpoint())] == [
        RecoveryComplete,
        Checkpoint,
    ]
