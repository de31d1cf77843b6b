"""Unit tests for lexicographic tags."""

import pickle

import pytest

from repro.common.timestamps import Tag, bottom_tag, max_tag


class TestTagOrdering:
    def test_orders_by_sequence_number_first(self):
        assert Tag(1, 5) < Tag(2, 0)

    def test_breaks_sequence_ties_by_pid(self):
        assert Tag(3, 1) < Tag(3, 2)

    def test_breaks_pid_ties_by_recovery_count(self):
        assert Tag(3, 1, 0) < Tag(3, 1, 4)

    def test_equal_tags(self):
        assert Tag(2, 1) == Tag(2, 1, 0)
        assert not Tag(2, 1) < Tag(2, 1)

    def test_total_order_on_mixed_sample(self):
        tags = [Tag(2, 0), Tag(1, 9), Tag(2, 0, 1), Tag(0, 0), Tag(2, 1)]
        ordered = sorted(tags)
        assert ordered == [Tag(0, 0), Tag(1, 9), Tag(2, 0), Tag(2, 0, 1), Tag(2, 1)]

    def test_comparison_against_non_tag_raises(self):
        with pytest.raises(TypeError):
            Tag(1, 0) < 5  # noqa: B015

    def test_hashable_and_usable_in_sets(self):
        assert len({Tag(1, 0), Tag(1, 0, 0), Tag(1, 1)}) == 2


class TestTagValidation:
    def test_rejects_negative_sequence_number(self):
        with pytest.raises(ValueError):
            Tag(-1, 0)

    def test_rejects_negative_pid(self):
        with pytest.raises(ValueError):
            Tag(0, -2)

    def test_rejects_negative_recovery_count(self):
        with pytest.raises(ValueError):
            Tag(0, 0, -1)


class TestSerialization:
    def test_round_trip(self):
        tag = Tag(7, 3, 2)
        assert Tag.from_tuple(tag.as_tuple()) == tag

    def test_accepts_legacy_pairs(self):
        assert Tag.from_tuple((4, 1)) == Tag(4, 1, 0)

    def test_str_hides_zero_rec(self):
        assert str(Tag(4, 1)) == "[4,1]"
        assert str(Tag(4, 1, 2)) == "[4,1,r2]"

    def test_repr_names_the_fields(self):
        assert repr(Tag(4, 1)) == "Tag(sn=4, pid=1, rec=0)"

    def test_keyword_construction(self):
        assert Tag(sn=4, pid=1, rec=2) == Tag(4, 1, 2)
        assert Tag(sn=4, pid=1) == Tag(4, 1, 0)

    def test_pickle_round_trip(self):
        tag = Tag(7, 3, 2)
        clone = pickle.loads(pickle.dumps(tag))
        assert clone == tag and type(clone) is Tag

    def test_is_the_triple_it_holds(self):
        tag = Tag(7, 3, 2)
        assert tag == (7, 3, 2) and hash(tag) == hash((7, 3, 2))
        assert type(tag.as_tuple()) is tuple
        assert not hasattr(tag, "__dict__")
        with pytest.raises(AttributeError):
            tag.sn = 8

    def test_replace_and_make_validate_like_construction(self):
        assert Tag(7, 3)._replace(sn=8) == Tag(8, 3) and Tag._make([1, 2]) == Tag(1, 2)
        assert type(Tag(7, 3)._replace(rec=1)) is Tag
        with pytest.raises(ValueError):
            Tag(7, 3)._replace(sn=-1)
        with pytest.raises(ValueError):
            Tag._make((1, -2, 0))


class TestHelpers:
    def test_bottom_tag_is_minimal(self):
        assert bottom_tag() <= Tag(0, 0)
        assert bottom_tag() < Tag(0, 1)
        assert bottom_tag() < Tag(1, 0)

    def test_max_tag_of_empty_is_none(self):
        assert max_tag([]) is None

    def test_max_tag_picks_lexicographic_maximum(self):
        assert max_tag([Tag(1, 2), Tag(2, 0), Tag(1, 9)]) == Tag(2, 0)

    def test_max_tag_single_element(self):
        assert max_tag([Tag(3, 3)]) == Tag(3, 3)
