"""Level-sequence encoding: construction, navigation, parentheses."""
import pytest
from hypothesis import given, strategies as st

from treegray import (
    InvalidLevelSequence,
    OrderedTree,
    decode_parens,
    encode_parens,
    enumerate_all,
    parse_tree,
)


def test_single_vertex():
    t = OrderedTree([1])
    assert t.size == 1
    assert t.rpl == 0
    assert t.levels == (1,)


def test_basic_properties():
    t = OrderedTree([1, 2, 3, 2])
    assert t.size == 4
    assert t.rpl == 1
    assert len(t) == 4


@pytest.mark.parametrize(
    "levels",
    [
        [],
        [2],
        [0],
        [1, 1],
        [1, 3],
        [1, 2, 4],
        [1, 2, 2, 5],
    ],
)
def test_invalid_sequences_rejected(levels):
    with pytest.raises(InvalidLevelSequence):
        OrderedTree(levels)


def test_invalid_entry_message_is_one_based():
    with pytest.raises(InvalidLevelSequence, match="entry 3"):
        OrderedTree([1, 2, 4])


def test_non_integer_entries_rejected():
    with pytest.raises(InvalidLevelSequence):
        OrderedTree([1, 2.0])
    with pytest.raises(InvalidLevelSequence):
        OrderedTree([1, True])
    with pytest.raises(InvalidLevelSequence):
        OrderedTree([True, 2])
    with pytest.raises(InvalidLevelSequence):
        OrderedTree(["1", "2"])


def test_immutable():
    t = OrderedTree([1, 2])
    with pytest.raises(AttributeError):
        t.levels = (1,)


def test_parent_drops_last_entry():
    t = OrderedTree([1, 2, 3, 2])
    assert t.parent() == OrderedTree([1, 2, 3])
    with pytest.raises(ValueError):
        OrderedTree([1]).parent()


def test_child_indices_span_rpl_plus_one():
    t = OrderedTree([1, 2, 3])  # rpl 2
    assert t.child(1) == OrderedTree([1, 2, 3, 2])
    assert t.child(2) == OrderedTree([1, 2, 3, 3])
    assert t.child(3) == OrderedTree([1, 2, 3, 4])
    assert t.children() == [t.child(1), t.child(2), t.child(3)]
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            t.child(bad)


def test_child_rpl_equals_index():
    for t in enumerate_all(6):
        for i in range(1, t.rpl + 2):
            c = t.child(i)
            assert c.rpl == i
            assert c.parent() == t


def test_equality_and_hash():
    a = OrderedTree([1, 2, 2])
    b = OrderedTree((1, 2, 2))
    c = OrderedTree([1, 2, 3])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != (1, 2, 2)
    assert len({a, b, c}) == 2


def test_repr_and_str():
    t = OrderedTree([1, 2, 2])
    assert repr(t) == "OrderedTree([1, 2, 2])"
    assert str(t) == "1,2,2"


@pytest.mark.parametrize(
    "levels,parens",
    [
        ([1], "()"),
        ([1, 2], "(())"),
        ([1, 2, 2], "(()())"),
        ([1, 2, 3], "((()))"),
        ([1, 2, 3, 2], "((())())"),
    ],
)
def test_parens_encoding(levels, parens):
    t = OrderedTree(levels)
    assert encode_parens(t) == parens
    assert decode_parens(parens) == t


def test_parens_round_trip_exhaustive():
    for n in range(1, 10):
        for t in enumerate_all(n):
            assert decode_parens(encode_parens(t)) == t


@pytest.mark.parametrize("text", ["", "(", ")(", "(()", "(a)", "(() ())", "()()"])
def test_decode_parens_rejects_garbage(text):
    # "()()" is a two-tree forest, not a single tree.
    with pytest.raises(ValueError):
        decode_parens(text)


def test_parse_tree_both_formats():
    assert parse_tree("1,2,3") == OrderedTree([1, 2, 3])
    assert parse_tree(" ((())) ") == OrderedTree([1, 2, 3])
    with pytest.raises(ValueError):
        parse_tree("1,2,x")
    with pytest.raises(ValueError):
        parse_tree("")


def test_enumerate_all_three_vertices():
    trees = list(enumerate_all(3))
    assert all(t.size == 3 for t in trees)
    assert len(set(trees)) == len(trees) == 2
    assert OrderedTree([1, 2, 2]) in trees


@st.composite
def level_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    seq = [1]
    for _ in range(n - 1):
        seq.append(draw(st.integers(min_value=2, max_value=seq[-1] + 1)))
    return seq


@given(level_sequences())
def test_valid_sequences_accepted_and_round_trip(seq):
    t = OrderedTree(seq)
    assert t.levels == tuple(seq)
    assert parse_tree(str(t)) == t
    assert decode_parens(encode_parens(t)) == t


@given(level_sequences(), st.integers(min_value=0, max_value=11))
def test_mutated_sequences_rejected(seq, pos):
    pos %= len(seq)
    bad = list(seq)
    bad[pos] = (bad[pos - 1] + 2) if pos else 2  # break the step rule
    with pytest.raises(InvalidLevelSequence):
        OrderedTree(bad)
