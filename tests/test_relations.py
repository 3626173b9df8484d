"""Pony-tails, copying, adjacency, and delta encoding."""
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from treegray import (
    Delta,
    NotAdjacentError,
    OrderedTree,
    apply_delta,
    delta,
    delta_stream,
    enumerate_all,
    gray_code,
    has_pony_tail,
    is_adjacent,
    is_copying,
)
from treegray.relations import _sibling_move


T = lambda *levels: OrderedTree(levels)


# -- pony-tails ---------------------------------------------------------

@pytest.mark.parametrize(
    "levels,expected",
    [
        ((1,), False),
        ((1, 2), False),
        ((1, 2, 2), False),
        ((1, 2, 3), True),
        ((1, 2, 2, 3), True),
        ((1, 2, 3, 3), False),
        ((1, 2, 3, 4), False),
        ((1, 2, 3, 2, 3), True),
    ],
)
def test_pony_tail_examples(levels, expected):
    assert has_pony_tail(OrderedTree(levels)) is expected


def _pony_structural(t):
    # Rightmost child of the root has exactly one child, which is a leaf.
    # Its subtree is the suffix of the level sequence after the last level-2
    # entry, so the suffix must be exactly (2, 3).
    if t.size < 3:
        return False
    last2 = max(j for j, e in enumerate(t.levels) if e == 2)
    return t.levels[last2:] == (2, 3)


def test_pony_tail_matches_structural_walk():
    for n in range(1, 10):
        for t in enumerate_all(n):
            assert has_pony_tail(t) == _pony_structural(t), t


# -- copying ------------------------------------------------------------

def test_copying_examples():
    assert is_copying(T(1, 2, 2), T(1, 2, 3))
    assert is_copying(T(1, 2, 3), T(1, 2, 2))  # the relation can be mutual
    assert is_copying(T(1, 2, 2, 3), T(1, 2, 3, 3))
    assert not is_copying(T(1, 2, 2, 2), T(1, 2, 3, 4))  # rpl gap too big
    assert not is_copying(T(1, 2, 3, 4), T(1, 2, 2, 2))


def test_copying_needs_same_size_distinct_trees():
    with pytest.raises(ValueError):
        is_copying(T(1, 2), T(1, 2, 2))
    with pytest.raises(ValueError):
        is_copying(T(1, 2, 2), T(1, 2, 2))


def _removable(levels):
    m = len(levels)
    return [j for j in range(1, m) if j == m - 1 or levels[j + 1] <= levels[j]]


def _copying_dumb(t, u):
    # Definition: append a rightmost leaf at any level, then delete a leaf
    # other than the appended one.
    for v in range(2, t.rpl + 3):
        grown = t.levels + (v,)
        for j in _removable(grown):
            if j != len(grown) - 1 and grown[:j] + grown[j + 1 :] == u.levels:
                return True
    return False


def test_copying_matches_definition():
    for n in range(2, 7):
        trees = list(enumerate_all(n))
        for t in trees:
            for u in trees:
                if t != u:
                    assert is_copying(t, u) == _copying_dumb(t, u), (t, u)


def test_copying_implies_adjacent():
    for n in range(2, 8):
        trees = list(enumerate_all(n))
        for t in trees:
            for u in trees:
                if t != u and is_copying(t, u):
                    assert is_adjacent(t, u), (t, u)


# -- adjacency ----------------------------------------------------------

def _moves_dumb(t, u):
    # Ground truth: every 1-based (remove_at, insert_at, level) triple that
    # removes a leaf of t and inserts a leaf to give u.
    for j in _removable(t.levels):
        s = t.levels[:j] + t.levels[j + 1 :]
        m = len(s)
        for q in range(1, m + 1):
            for v in range(2, s[q - 1] + 2):
                if q < m and s[q] > v:
                    continue  # inserted vertex would swallow a subtree
                if s[:q] + (v,) + s[q:] == u.levels:
                    yield (j + 1, q + 1, v)


def test_adjacent_matches_triple_enumeration():
    for n in range(2, 7):
        trees = list(enumerate_all(n))
        for t in trees:
            for u in trees:
                if t != u:
                    expected = any(_moves_dumb(t, u))
                    assert is_adjacent(t, u) == expected, (t, u)


def test_delta_is_rightmost_removal_then_smallest_insertion():
    pairs = 0
    for n in range(2, 7):
        trees = list(enumerate_all(n))
        for t in trees:
            for u in trees:
                triples = list(_moves_dumb(t, u)) if t != u else []
                if triples:
                    pairs += 1
                    r, q, v = max(triples, key=lambda x: (x[0], -x[1]))
                    assert delta(t, u) == Delta(r, q, v), (t, u, triples)
    assert pairs == 592


@st.composite
def _level_tuples(draw, n):
    seq = [1]
    for _ in range(n - 1):
        seq.append(draw(st.integers(min_value=2, max_value=seq[-1] + 1)))
    return tuple(seq)


@st.composite
def _moved_pairs(draw):
    # A random tree of size 2..25 and the result of one random leaf-delete /
    # leaf-append move on it (possibly the same tree).
    t = draw(_level_tuples(draw(st.integers(min_value=2, max_value=25))))
    j = draw(st.sampled_from(_removable(t)))
    s = t[:j] + t[j + 1 :]
    q = draw(st.integers(min_value=1, max_value=len(s)))
    low = s[q] if q < len(s) else 2  # not shallower than its successor: a leaf
    v = draw(st.integers(min_value=low, max_value=s[q - 1] + 1))
    return OrderedTree(t), OrderedTree(s[:q] + (v,) + s[q:])


@st.composite
def _independent_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    return OrderedTree(draw(_level_tuples(n))), OrderedTree(draw(_level_tuples(n)))


@given(_moved_pairs())
def test_delta_matches_definition_on_random_moves(pair):
    t, u = pair
    triples = list(_moves_dumb(t, u)) if t != u else []
    if not triples:
        assert t == u and not is_adjacent(t, u)
        return
    d = delta(t, u)
    assert d == Delta(*max(triples, key=lambda x: (x[0], -x[1])))
    assert apply_delta(t, d) == u


@given(_independent_pairs())
def test_adjacent_matches_definition_on_random_pairs(pair):
    t, u = pair
    expected = t != u and any(_moves_dumb(t, u))
    assert is_adjacent(t, u) == expected


@pytest.mark.parametrize(
    "t,u,expected",
    [
        ((1, 2, 3), (1, 2, 2), Delta(3, 2, 2)),  # (A), q walked back below p
        ((1, 2, 2, 2), (1, 2, 3, 2), Delta(4, 3, 3)),  # (A), j > e
        ((1, 2, 2, 3), (1, 2, 3, 3), Delta(2, 3, 3)),  # (B), j < p
        ((1, 2, 3, 2, 2), (1, 2, 2, 2, 3), Delta(3, 5, 3)),  # (B), j = p < e
    ],
    ids=["A-q-below-p", "A-j-after-e", "B-j-before-p", "B-j-at-p"],
)
def test_delta_shape_examples(t, u, expected):
    assert delta(T(*t), T(*u)) == expected


def test_adjacent_is_irreflexive_and_symmetric():
    for n in range(2, 8):
        trees = list(enumerate_all(n))
        for t in trees:
            assert not is_adjacent(t, t)
            for u in trees:
                if t != u:
                    assert is_adjacent(t, u) == is_adjacent(u, t), (t, u)


def test_adjacent_requires_same_size():
    with pytest.raises(ValueError):
        is_adjacent(T(1, 2), T(1, 2, 2))


def test_adjacent_single_examples():
    assert is_adjacent(T(1, 2, 2), T(1, 2, 3))
    assert is_adjacent(T(1, 2, 2, 2), T(1, 2, 2, 3))
    assert not is_adjacent(T(1, 2), T(1, 2))


# -- deltas -------------------------------------------------------------

def test_delta_canonical_examples():
    assert delta(T(1, 2, 2), T(1, 2, 3)) == Delta(3, 3, 3)
    assert delta(T(1, 2, 2, 3), T(1, 2, 3, 3)) == Delta(2, 3, 3)
    assert delta(T(1, 2, 2, 2), T(1, 2, 2, 3)) == Delta(4, 4, 3)


def test_sibling_move_matches_delta():
    # Two children of one tree differ in the last entry only; the move
    # removes it and inserts the new level where its trailing run starts.
    assert _sibling_move((1, 2, 3, 3), 3) == (5, 3, 3)
    assert delta(T(1, 2, 3, 3, 2), T(1, 2, 3, 3, 3)) == Delta(5, 3, 3)
    pairs = 0
    for n in range(1, 8):
        for p in enumerate_all(n):
            kids = p.children()
            for a in kids:
                for b in kids:
                    if a != b:
                        assert Delta(*_sibling_move(p.levels, b.levels[-1])) == delta(a, b)
                        pairs += 1
    assert pairs == 1608


def test_delta_not_adjacent_raises():
    with pytest.raises(NotAdjacentError):
        delta(T(1, 2, 3, 4), T(1, 2, 2, 2))
    with pytest.raises(NotAdjacentError):
        delta(T(1, 2, 2), T(1, 2, 2))


def test_apply_delta_example():
    assert apply_delta(T(1, 2, 2), Delta(3, 3, 3)) == T(1, 2, 3)


def test_delta_round_trip_exhaustive():
    for n in range(2, 7):
        trees = list(enumerate_all(n))
        for t in trees:
            for u in trees:
                if t != u and is_adjacent(t, u):
                    d = delta(t, u)
                    assert apply_delta(t, d) == u, (t, u, d)


def test_long_delta_stream_replays_gray_code():
    trees = list(islice(gray_code(100, checked=True), 1001))
    t = trees[0]
    assert t == OrderedTree((1,) + (2,) * 99)
    replayed = [t]
    for d in islice(delta_stream(100), 1000):
        t = apply_delta(t, d)
        replayed.append(t)
    assert replayed == trees


def test_apply_delta_validates():
    t = T(1, 2, 3, 2)
    with pytest.raises(ValueError):
        apply_delta(t, Delta(1, 2, 2))  # cannot remove the root
    with pytest.raises(ValueError):
        apply_delta(t, Delta(5, 2, 2))  # remove index out of range
    with pytest.raises(ValueError):
        apply_delta(t, Delta(2, 2, 2))  # position 2 is not a leaf
    with pytest.raises(ValueError):
        apply_delta(t, Delta(4, 2, 5))  # level too deep for the spot
    with pytest.raises(ValueError):
        apply_delta(t, Delta(4, 3, 2))  # would capture the old subtree
    with pytest.raises(ValueError):
        apply_delta(t, Delta(4, 1, 2))  # cannot insert before the root


def test_delta_text_round_trip():
    d = Delta(4, 4, 3)
    assert str(d) == "4 4 3"
    assert Delta.parse("4 4 3") == d
    with pytest.raises(ValueError):
        Delta.parse("4 4")
    with pytest.raises(ValueError):
        Delta.parse("a b c")
