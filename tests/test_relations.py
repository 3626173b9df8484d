"""Pony-tails, copying, adjacency, and delta encoding."""
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

import treegray.relations
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
from treegray.relations import _sibling_move, _sibling_move_lines
from treegray.tree import _nodes


def node(levels):
    # The family-tree node of one tree, for the node forms of the relations.
    return _nodes(OrderedTree(levels))[0]


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


@given(st.one_of(_moved_pairs(), _independent_pairs()))
def test_copying_matches_definition_on_random_pairs(pair):
    t, u = pair
    if t != u:  # copying is defined for distinct trees only
        assert is_copying(t, u) == _copying_dumb(t, u)


def _valid(levels):
    return all(2 <= levels[x] <= levels[x - 1] + 1 for x in range(1, len(levels)))


@st.composite
def _star_like_pairs(draw):
    # A star, or a star hung below the root's one child, of size 3..300 with
    # a few entries moved one level, and a tree drawn from it by appending a
    # leaf, deleting an entry (a leaf or not) and perhaps moving one more
    # entry one level.  The changes sit within two places of a multiple of
    # 64 from the end, where is_copying's 64-entry comparisons meet, so long
    # equal runs end right there.
    n = draw(st.integers(min_value=3, max_value=300))

    def near():
        back = 64 * draw(st.integers(0, 4)) - draw(st.integers(-2, 2))
        return min(max(2, n - 1 - back), n - 1)

    def nudged(levels, i):
        out = levels[:i] + [levels[i] + draw(st.sampled_from((-1, 1)))] + levels[i + 1 :]
        return out if _valid(out) else levels

    t = [1, 2] + [draw(st.sampled_from((2, 3)))] * (n - 2)
    at = near()
    for i in [at] + [near() for _ in range(draw(st.integers(0, 3)))]:
        t = nudged(t, i)
    grown = t + [draw(st.integers(min_value=2, max_value=t[-1] + 1))]
    u = grown[:at] + grown[at + 1 :]
    assume(_valid(u))
    if draw(st.booleans()):
        u = nudged(u, near())
    assume(t != u)
    return OrderedTree(t), OrderedTree(u)


@given(_star_like_pairs())
@settings(max_examples=300)
def test_copying_matches_definition_across_chunk_boundaries(pair):
    t, u = pair
    assert is_copying(t, u) == _copying_dumb(t, u)


def _broom(n, two_at):
    # The root's one child holds n - 2 leaves; entry two_at is a 2 instead.
    levels = [1, 2] + [3] * (n - 2)
    levels[two_at] = 2
    return OrderedTree(levels)


@pytest.mark.parametrize(
    "n,two_at",
    [(130, 129), (100, 36)],
    ids=["chunk-start", "one-past-chunk-end"],
)
def test_copying_rejects_a_non_leaf_deletion_at_a_chunk_edge(n, two_at):
    # u deletes t's lone 2, which is not a leaf once a 3 is appended after
    # it; the scan from the right stops exactly there, at the first entry of
    # a 64-entry comparison or just below its last, with equal runs around.
    t = _broom(n, two_at)
    u = OrderedTree([1, 2] + [3] * (n - 2))
    assert not _copying_dumb(t, u)
    assert not is_copying(t, u)


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


def test_adjacent_is_false_when_the_move_does_not_replay(monkeypatch):
    # Only the replay of the searched move certifies a pair that are not
    # siblings: a move apply_delta rejects (here it removes the root) gives
    # False, even for a pair that are adjacent.
    t, u = T(1, 2, 2, 2), T(1, 2, 3, 2)
    assert is_adjacent(t, u)
    monkeypatch.setattr(treegray.relations, "_move", lambda t, u: Delta(1, 1, 2))
    assert is_adjacent(t, u) is False


# -- deltas -------------------------------------------------------------

def test_delta_canonical_examples():
    assert delta(T(1, 2, 2), T(1, 2, 3)) == Delta(3, 3, 3)
    assert delta(T(1, 2, 2, 3), T(1, 2, 3, 3)) == Delta(2, 3, 3)
    assert delta(T(1, 2, 2, 2), T(1, 2, 2, 3)) == Delta(4, 4, 3)


def test_sibling_move_matches_delta():
    # Two children of one tree differ in the last entry only; the move
    # removes it and inserts the new level where its trailing run starts.
    assert _sibling_move(node((1, 2, 3, 3)), 3) == (5, 3, 3)
    assert delta(T(1, 2, 3, 3, 2), T(1, 2, 3, 3, 3)) == Delta(5, 3, 3)
    pairs = 0
    for n in range(1, 8):
        for p in enumerate_all(n):
            kids = p.children()
            for a in kids:
                for b in kids:
                    if a != b:
                        assert _sibling_move(node(p.levels), b.levels[-1]) == delta(a, b)
                        pairs += 1
    assert pairs == 1608


def _sibling_move_dumb(parent, level):
    # The trailing run of `level` in parent + (level,), walked entry by entry.
    q = len(parent)
    while parent[q - 1] == level:
        q -= 1
    return Delta(len(parent) + 1, q + 1, level)


@st.composite
def _long_run_parents(draw):
    # A star, or a star hung below the root's one child, of size 3..300,
    # perhaps with one entry moved one level within two places of a multiple
    # of 64 from the end; and the level of a new last leaf.  The node's run
    # must give the walk's result for runs of any length.
    n = draw(st.integers(min_value=3, max_value=300))
    base = draw(st.sampled_from((2, 3)))
    levels = [1, 2] + [base] * (n - 2)
    if draw(st.booleans()):
        back = 64 * draw(st.integers(0, 4)) + draw(st.integers(-2, 2))
        at = min(max(2, n - 1 - back), n - 1)
        levels[at] += draw(st.sampled_from((-1, 1)))
        assume(_valid(levels))
    level = draw(st.sampled_from((base, levels[-1], 2, levels[-1] + 1)))
    return tuple(levels), level


@given(_long_run_parents())
@settings(max_examples=300)
def test_sibling_move_matches_the_walk_across_chunk_boundaries(drawn):
    parent, level = drawn
    assert _sibling_move(node(parent), level) == _sibling_move_dumb(parent, level)
    other = 2 if level != 2 else parent[-1] + 1
    if other != level:
        a, b = OrderedTree(parent + (other,)), OrderedTree(parent + (level,))
        assert _sibling_move(node(parent), level) == delta(a, b)


@pytest.mark.parametrize(
    "parent,want",
    [((1,) + (2,) * 64, (66, 2, 2)), ((1, 2) + (3,) * 64, (67, 3, 3))],
    ids=["run-to-the-root", "run-of-one-chunk"],
)
def test_sibling_move_stops_at_a_chunk_edge(parent, want):
    # The trailing run is 64 entries long and ends at the root, or at the
    # broom's lone 2 just before it.
    level = parent[-1]
    assert _sibling_move_dumb(parent, level) == want
    assert _sibling_move(node(parent), level) == want


def test_sibling_move_lines_match_str_of_sibling_moves():
    # The table holds the moves whose new leaf ends its trailing run alone.
    for n in range(2, 9):
        for p in enumerate_all(n - 1):
            order = range(1, p.rpl + 2)
            want = [str(_sibling_move(node(p.levels), i + 1)) for i in order]
            lines = _sibling_move_lines(node(p.levels), order)
            assert lines.endswith("\n") and lines.splitlines() == want


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
