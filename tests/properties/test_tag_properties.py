"""Property-based tests for tags (total order, serialization)."""

from hypothesis import given, strategies as st

from repro.common.timestamps import Tag, bottom_tag, max_tag

tags = st.builds(
    Tag,
    sn=st.integers(min_value=0, max_value=1_000_000),
    pid=st.integers(min_value=0, max_value=64),
    rec=st.integers(min_value=0, max_value=64),
)


@given(tags, tags)
def test_order_is_total(a, b):
    assert (a < b) or (b < a) or (a == b)


@given(tags, tags)
def test_order_is_antisymmetric(a, b):
    assert not ((a < b) and (b < a))


@given(tags, tags, tags)
def test_order_is_transitive(a, b, c):
    if a < b and b < c:
        assert a < c


@given(tags, tags)
def test_order_matches_tuple_order(a, b):
    assert (a < b) == (a.as_tuple() < b.as_tuple())


@given(tags)
def test_bottom_is_a_global_minimum(tag):
    assert bottom_tag() <= tag


@given(tags)
def test_serialization_round_trips(tag):
    assert Tag.from_tuple(tag.as_tuple()) == tag


@given(st.lists(tags, min_size=1))
def test_max_tag_is_an_upper_bound_from_the_list(sample):
    top = max_tag(sample)
    assert top in sample
    assert all(tag <= top for tag in sample)


@given(st.lists(tags, min_size=1), st.lists(tags, min_size=1))
def test_max_tag_is_monotone_under_union(xs, ys):
    assert max_tag(xs + ys) == max(max_tag(xs), max_tag(ys))
