"""Unit tests for the white-box (tag-based) atomicity checker."""

from repro.common.ids import OperationId
from repro.common.timestamps import Tag, bottom_tag
from repro.history import recorder as recorder_module
from repro.history.recorder import HistoryRecorder
from repro.history.register_checker import check_tagged_history

_SEQ = [0]


def _op(pid):
    _SEQ[0] += 1
    return OperationId(pid=pid, seq=_SEQ[0])


class TaggedBuilder:
    """Builds a history plus the recorder holding per-op tags."""

    def __init__(self):
        self.time = 0.0
        self.recorder = HistoryRecorder(clock=lambda: self.time)

    def _tick(self):
        self.time += 1.0

    @property
    def history(self):
        return self.recorder.history

    def write(self, pid, value, tag):
        op = _op(pid)
        self._tick()
        self.recorder.record_invoke(op, pid, "write", value)
        self._tick()
        self.recorder.record_reply(op, pid, "write")
        self.recorder.record_tag(op, tag)
        return op

    def read(self, pid, result, tag):
        op = _op(pid)
        self._tick()
        self.recorder.record_invoke(op, pid, "read")
        self._tick()
        self.recorder.record_reply(op, pid, "read", result)
        self.recorder.record_tag(op, tag)
        return op

    def pending_write(self, pid, value, tag=None):
        op = _op(pid)
        self._tick()
        self.recorder.record_invoke(op, pid, "write", value)
        if tag is not None:
            self.recorder.record_tag(op, tag)
        return op

    def crash(self, pid):
        self._tick()
        self.recorder.record_crash(pid)

    def recover(self, pid):
        self._tick()
        self.recorder.record_recovery(pid)


class TestHappyPaths:
    def test_clean_sequential_run_passes(self):
        b = TaggedBuilder()
        b.write(0, "a", Tag(1, 0))
        b.read(1, "a", Tag(1, 0))
        b.write(0, "b", Tag(2, 0))
        b.read(2, "b", Tag(2, 0))
        result = check_tagged_history(b.history, b.recorder)
        assert result.ok, result.violations

    def test_initial_value_read_with_bottom_tag(self):
        b = TaggedBuilder()
        b.read(1, None, bottom_tag())
        assert check_tagged_history(b.history, b.recorder).ok

    def test_pending_write_value_readable_with_its_tag(self):
        b = TaggedBuilder()
        b.write(0, "a", Tag(1, 0))
        b.pending_write(0, "b", Tag(2, 0))
        b.crash(0)
        b.read(1, "b", Tag(2, 0))
        result = check_tagged_history(b.history, b.recorder)
        assert result.ok, result.violations


class TestViolations:
    def test_duplicate_write_tags_flagged(self):
        b = TaggedBuilder()
        b.write(0, "a", Tag(1, 0))
        b.write(0, "b", Tag(1, 0))
        result = check_tagged_history(b.history, b.recorder)
        assert not result.ok
        assert any("duplicate write tag" in v for v in result.violations)

    def test_tag_regression_across_precedence_flagged(self):
        b = TaggedBuilder()
        b.write(0, "a", Tag(2, 0))
        b.write(0, "b", Tag(1, 0))  # later write, smaller tag
        result = check_tagged_history(b.history, b.recorder)
        assert not result.ok
        assert any("precedence violated" in v for v in result.violations)

    def test_read_tag_below_preceding_write_flagged(self):
        b = TaggedBuilder()
        b.write(0, "a", Tag(1, 0))
        b.write(0, "b", Tag(2, 0))
        b.read(1, "a", Tag(1, 0))  # stale
        result = check_tagged_history(b.history, b.recorder)
        assert not result.ok

    def test_read_value_not_matching_tagged_write_flagged(self):
        b = TaggedBuilder()
        b.write(0, "a", Tag(1, 0))
        b.read(1, "other", Tag(1, 0))
        result = check_tagged_history(b.history, b.recorder)
        assert not result.ok
        assert any("was written with" in v for v in result.violations)

    def test_missing_tag_on_completed_operation_flagged(self):
        b = TaggedBuilder()
        op = _op(0)
        b._tick()
        b.recorder.record_invoke(op, 0, "write", "a")
        b._tick()
        b.recorder.record_reply(op, 0, "write")
        result = check_tagged_history(b.history, b.recorder)
        assert not result.ok
        assert any("no tag" in v for v in result.violations)

    def test_equal_tags_between_sequential_writes_flagged(self):
        # Lemma 1(ii): a write must carry a strictly larger tag than
        # any operation that precedes it.
        b = TaggedBuilder()
        b.read(1, "a", Tag(3, 0))
        b.write(0, "a2", Tag(3, 0))
        result = check_tagged_history(b.history, b.recorder)
        assert not result.ok


class TestPersistentDeadline:
    def test_orphan_value_after_deadline_flagged(self):
        # A pending write surfaces via a read, but a *later* completed
        # write carries a smaller tag: the orphan escaped its window.
        b = TaggedBuilder()
        b.write(0, "v1", Tag(1, 0))
        b.pending_write(0, "v2", Tag(3, 0))
        b.crash(0)
        b.recover(0)
        b.write(0, "v3", Tag(2, 0))  # invoked after the deadline
        b.read(1, "v2", Tag(3, 0))
        result = check_tagged_history(b.history, b.recorder, criterion="persistent")
        assert not result.ok
        assert any("orphan value" in v for v in result.violations)

    def test_same_history_allowed_under_transient(self):
        b = TaggedBuilder()
        b.write(0, "v1", Tag(1, 0))
        b.pending_write(0, "v2", Tag(3, 0))
        b.crash(0)
        b.recover(0)
        b.write(0, "v3", Tag(2, 0))
        b.read(1, "v2", Tag(3, 0))
        result = check_tagged_history(b.history, b.recorder, criterion="transient")
        assert result.ok, result.violations

    def test_invisible_pending_write_is_unconstrained(self):
        b = TaggedBuilder()
        b.write(0, "v1", Tag(1, 0))
        b.pending_write(0, "v2")  # no tag recorded, value never read
        b.crash(0)
        b.recover(0)
        b.write(0, "v3", Tag(2, 0))
        b.read(1, "v3", Tag(2, 0))
        result = check_tagged_history(b.history, b.recorder, criterion="persistent")
        assert result.ok, result.violations


class _FalsyTag(Tag):
    """A tag whose truth value is false (like a bottom singleton)."""

    def __bool__(self):
        return False


class _OneShotRecorder:
    """Hands each operation's tag out exactly once.

    A checker that treats a falsy tag as missing goes back to the
    recorder for a second lookup and gets nothing -- which is how the
    old ``tags.get(op) or recorder.tag_of(op)`` pattern degraded.
    """

    def __init__(self, recorder):
        self._recorder = recorder
        self._given = set()

    def tag_of(self, op):
        if op in self._given:
            return None
        self._given.add(op)
        return self._recorder.tag_of(op)


class TestFalsyTagRegression:
    def test_clean_history_with_falsy_tags_passes(self):
        b = TaggedBuilder()
        b.write(0, "a", _FalsyTag(1, 0))
        b.read(1, "a", _FalsyTag(1, 0))
        result = check_tagged_history(b.history, b.recorder)
        assert result.ok, result.violations

    def test_falsy_tag_is_not_treated_as_missing(self):
        # Regression for the `tags.get(op) or recorder.tag_of(op)`
        # pattern: a falsy tag fell through to a second recorder
        # lookup, and with a consumable side channel the write's tag
        # never made it into the tag->value index -- downgrading the
        # precise mismatch diagnostic to the weaker no-write fallback.
        b = TaggedBuilder()
        b.write(0, "a", _FalsyTag(1, 0))
        b.read(1, "other", _FalsyTag(1, 0))
        result = check_tagged_history(b.history, _OneShotRecorder(b.recorder))
        assert not result.ok
        assert any("was written with" in v for v in result.violations)

    def test_duplicate_falsy_write_tags_flagged(self):
        b = TaggedBuilder()
        b.write(0, "a", _FalsyTag(1, 0))
        b.write(1, "b", _FalsyTag(1, 0))
        result = check_tagged_history(b.history, b.recorder)
        assert not result.ok
        assert any("duplicate write tag" in v for v in result.violations)


class TestScale:
    def test_thousand_operation_history_checks_quickly(self):
        b = TaggedBuilder()
        for i in range(1, 500):
            b.write(0, f"v{i}", Tag(i, 0))
            b.read(1, f"v{i}", Tag(i, 0))
        result = check_tagged_history(b.history, b.recorder)
        assert result.ok
        assert result.operations == 998


class TestRecorderMetadata:
    def test_each_operation_builds_one_metadata_record(self, monkeypatch):
        """Attaching facts finds the record; it builds no throwaway one."""
        built = []

        class Counted(recorder_module.OperationMeta):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(recorder_module, "OperationMeta", Counted)
        recorder = HistoryRecorder(clock=lambda: 0.0)
        op = _op(0)
        recorder.record_invoke(op, 0, "write", "a")
        recorder.record_register(op, "k")
        recorder.record_reply(op, 0, "write")
        recorder.record_causal_logs(op, 2)
        recorder.record_tag(op, Tag(1, 0))
        assert built == [recorder.meta[op]]
        assert (recorder.causal_logs(op), recorder.tag_of(op), recorder.register_of(op)) == (
            2, Tag(1, 0), "k"
        )
        orphan = _op(1)
        recorder.record_tag(orphan, Tag(2, 1))  # an op never invoked gets one too
        assert len(built) == 2 and recorder.tag_of(orphan) == Tag(2, 1)
