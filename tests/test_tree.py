"""Level-sequence encoding: construction, navigation, text formats."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from treegray import (
    InvalidLevelSequence,
    OrderedTree,
    decode_parens,
    encode_parens,
    enumerate_all,
    gray_code,
    parse_tree,
)
from treegray.cli import _gen_writes
from treegray.generator import _blocks
from treegray.tree import (
    Spliced,
    _level_ends,
    _nodes,
    child_lines,
    child_parens,
    level_piece,
    paren_piece,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def joined(tree):
    """The reference rendering of a level sequence, one str() per entry."""
    return ",".join(map(str, tree.levels))


def assert_lines_match(parent, order):
    # One block: the children of parent in the given child-index order.
    trees = [parent.child(i) for i in order]
    first, rest = child_lines(Spliced(level_piece)(*_nodes(parent)), tuple(order))
    assert first.count("\n") == 1 and rest.endswith("\n") == (len(order) > 1)
    lines = (first + rest).splitlines()
    assert lines == [str(t) for t in trees] == list(map(joined, trees))


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
    # Validated trees, and those child() and enumerate_all build through the
    # trusted constructor, alike.
    for t in (OrderedTree([1, 2]), OrderedTree([1, 2]).child(2), next(enumerate_all(3))):
        with pytest.raises(AttributeError, match="immutable"):
            t.levels = (1,)
        with pytest.raises(AttributeError, match="immutable"):
            t.other = 1
        # Deleting the one slot would leave a tree that cannot hash.
        with pytest.raises(AttributeError, match="immutable"):
            del t.levels
        assert hash(t) == hash(t.levels)
    assert OrderedTree([1, 2]).child(2).levels == (1, 2, 3)


def test_child_index_error_text():
    with pytest.raises(ValueError) as err:
        OrderedTree([1, 2, 2]).child(3)
    assert str(err.value) == "child index 3 outside 1..2 for 1,2,2"


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


@st.composite
def deep_level_sequences(draw):
    # Step up half the time, so that two-digit levels are drawn often.
    n = draw(st.integers(min_value=1, max_value=60))
    seq = [1]
    for _ in range(n - 1):
        up = draw(st.booleans())
        seq.append(
            seq[-1] + 1 if up else draw(st.integers(min_value=2, max_value=seq[-1] + 1))
        )
    return OrderedTree(seq)


@given(deep_level_sequences())
def test_str_matches_joined_entries(t):
    assert str(t) == joined(t)


@pytest.mark.parametrize("n", range(1, 11))
def test_level_lines_match_str_on_the_gray_code(n):
    # gen renders every block from its parent's text once.
    trees = list(gray_code(n, checked=False))
    lines = "".join(_gen_writes(n, "levels", False)).splitlines()
    assert lines == [str(t) for t in trees]
    assert [str(t) for t in trees] == list(map(joined, trees))


@given(st.lists(deep_level_sequences(), min_size=1, max_size=8))
def test_level_lines_match_str_on_drawn_trees(drawn):
    # Each drawn tree's block of siblings, in index order and reversed:
    # blocks of heads of other lengths and values, one after another.
    for t in drawn:
        if t.size > 1:
            parent = t.parent()
            order = range(1, parent.rpl + 2)
            assert_lines_match(parent, order)
            assert_lines_match(parent, order[::-1])


def test_level_lines_render_the_head_again_for_non_siblings():
    # Reverse lexicographic order lists each parent's children in a row, so
    # cutting it at each change of parent gives blocks of differing heads,
    # each spliced from the head before in one family tree.
    trees = list(enumerate_all(7))[::-1]
    blocks = [
        (OrderedTree(head), [t.levels[-1] - 1 for t in block])
        for head, block in itertools.groupby(trees, key=lambda t: t.levels[:-1])
    ]
    nodes = _nodes(*[parent for parent, _ in blocks])
    levels, parens = Spliced(level_piece), Spliced(paren_piece)
    lines, codes = [], []
    for node, (parent, order) in zip(nodes, blocks):
        lines += "".join(child_lines(levels(node), tuple(order))).splitlines()
        head = parens(node)
        assert head + ")" * node.last == encode_parens(parent)
        codes += "".join(child_parens(head, node.last, tuple(order))).splitlines()
    assert len(blocks) > 1
    assert lines == [str(t) for t in trees] == list(map(joined, trees))
    assert codes == list(map(encode_parens, trees))


@given(deep_level_sequences())
def test_parens_suffix_rule_on_drawn_trees(t):
    # Every child of a drawn tree, each from the tree's own encoding without
    # the closing parens of its rightmost path.
    order, last = tuple(range(1, t.rpl + 2)), t.levels[-1]
    first, rest = child_parens(encode_parens(t)[:-last], last, order)
    assert first.count("\n") == 1 and rest.endswith("\n") == (len(order) > 1)
    parens = (first + rest).splitlines()
    assert parens == [encode_parens(t.child(i)) for i in order]
    assert [decode_parens(p) for p in parens] == t.children()


def test_level_ends_cache_is_bounded_and_shares_equal_ends():
    # A 1,000-record prefix at n=2000 (30 orders), then every order of six
    # children (720): more orders than the cache keeps.  Each line end is one
    # string per value, whichever orders it was cached for.
    head, ends, records = Spliced(level_piece), [], 0
    for parent, order, _ in _blocks(2000, False, False, None):
        first, rest = child_lines(head(parent), order)
        assert (first + rest).splitlines() == [str(parent) + f",{i + 1}" for i in order]
        ends.append(_level_ends(order))
        records += len(order)
        if records >= 1000:
            break
    for order in itertools.permutations(range(1, 7)):
        child_lines("1,2,", order)
        ends.append(_level_ends(order))
    info = _level_ends.cache_info()
    assert info.maxsize == 256 and info.currsize == 256
    by_value = {}
    for first, rest in ends:
        assert rest[0] == ""
        for end in (first, *rest[1:]):
            by_value.setdefault(end, set()).add(id(end))
    most = max(len(rest) for _, rest in ends)  # the most children of a block
    assert set(by_value) == {f"{v}\n" for v in range(2, most + 2)}
    assert all(len(ids) == 1 for ids in by_value.values())


def test_level_lines_memory_stays_linear_in_n():
    # A fresh interpreter, so that no earlier test has rendered this size.
    # A template per length up to n=2000 would hold about 6 MB; rendering the
    # blocks of a 1,000-record prefix needs one head of about 4 kB at a time
    # and one template.
    code = """
import tracemalloc
from treegray.generator import _blocks
from treegray.tree import Spliced, child_lines, level_piece
blocks, records = [], 0
for parent, order, _ in _blocks(2000, False, False, None):
    blocks.append((parent, order))
    records += len(order)
    if records >= 1000:
        break
tracemalloc.start()
head = Spliced(level_piece)
for parent, order in blocks:
    for _ in child_lines(head(parent), order):
        pass
print(tracemalloc.get_traced_memory()[1])
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert int(proc.stdout) < 1_000_000
