"""Streaming generation, deltas, family tree, DOT export."""
import itertools

import pytest

from treegray import (
    AdjacencyViolationError,
    Delta,
    FamilyTree,
    OrderedTree,
    StreamStats,
    apply_delta,
    build_family_tree,
    catalan,
    delta,
    delta_stream,
    encode_parens,
    enumerate_all,
    export_dot,
    gray_code,
    is_adjacent,
)


T = lambda *levels: OrderedTree(levels)


def test_trivial_levels():
    assert list(gray_code(1)) == [T(1)]
    assert list(gray_code(2)) == [T(1, 2)]


def test_snapshot_n3():
    assert list(gray_code(3)) == [T(1, 2, 2), T(1, 2, 3)]


def test_snapshot_n4():
    assert list(gray_code(4)) == [
        T(1, 2, 2, 2),
        T(1, 2, 2, 3),
        T(1, 2, 3, 3),
        T(1, 2, 3, 4),
        T(1, 2, 3, 2),
    ]


def test_first_tree_is_star():
    for n in range(1, 12):
        first = next(gray_code(n))
        assert first.levels == (1,) + (2,) * (n - 1)


def test_complete_and_unique():
    for n in range(1, 10):
        trees = list(gray_code(n))
        assert len(trees) == catalan(n - 1)
        assert len(set(trees)) == len(trees)
        assert set(trees) == set(enumerate_all(n))


def test_gray_property():
    for n in range(2, 10):
        for prev, cur in itertools.pairwise(gray_code(n)):
            assert is_adjacent(prev, cur), (n, prev, cur)


def test_prefix_property():
    # Collapsing runs of equal level-k ancestors reproduces gray_code(k):
    # each smaller tree owns one contiguous block of descendants.
    for n in range(2, 9):
        for k in range(1, n):
            ancestors = []
            for t in gray_code(n):
                a = t
                while a.size > k:
                    a = a.parent()
                if not ancestors or ancestors[-1] != a:
                    ancestors.append(a)
            assert ancestors == list(gray_code(k)), (n, k)


def test_unchecked_output_identical():
    for n in range(1, 9):
        assert list(gray_code(n, checked=False)) == list(gray_code(n))


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "4"])
def test_gray_code_rejects_bad_n(bad):
    with pytest.raises(ValueError):
        gray_code(bad)


def test_delta_stream_examples():
    assert list(delta_stream(3)) == [Delta(3, 3, 3)]
    assert next(delta_stream(4)) == Delta(4, 4, 3)
    assert len(list(delta_stream(5))) == 13


def test_delta_stream_matches_delta_search():
    # The emitted moves equal the searched canonical moves on every step.
    for n in range(2, 13):
        searched = [delta(a, b) for a, b in itertools.pairwise(gray_code(n))]
        for checked in (True, False):
            assert list(delta_stream(n, checked=checked)) == searched, (n, checked)
    trees = itertools.islice(gray_code(100), 2001)
    searched = [delta(a, b) for a, b in itertools.pairwise(trees)]
    for checked in (True, False):
        emitted = itertools.islice(delta_stream(100, checked=checked), 2000)
        assert list(emitted) == searched, checked


def test_moves_start_with_the_first_tree():
    records = list(gray_code(4, moves=True))
    assert records[0] == T(1, 2, 2, 2)
    assert records[1:] == list(delta_stream(4))
    assert list(gray_code(1, moves=True)) == [T(1)]


def test_deep_prefix_has_no_recursion_limit():
    assert next(gray_code(5000, checked=False)).levels == (1,) + (2,) * 4999


def test_adjacency_violation_names_level_position_and_case(broken_next_leftmost):
    want = (
        "adjacency violation in case 2a1 at level 7 after position 3 of "
        "level 6: 1,2,2,2,3,2,3 vs 1,2,2,2,3,4,3"
    )
    with pytest.raises(AdjacencyViolationError) as exc:
        list(gray_code(7))
    assert str(exc.value) == want
    # Moves are proven whether or not the run is checked.
    for checked in (True, False):
        with pytest.raises(AdjacencyViolationError) as exc:
            list(gray_code(7, checked=checked, moves=True))
        assert str(exc.value) == want


def test_delta_stream_rejects_small_n():
    with pytest.raises(ValueError):
        delta_stream(1)


def test_delta_replay():
    for n in range(2, 10):
        trees = list(gray_code(n))
        replayed = [trees[0]]
        for d in delta_stream(n):
            replayed.append(apply_delta(replayed[-1], d))
        assert replayed == trees, n


def test_stats_counters():
    stats = StreamStats()
    total = sum(1 for _ in gray_code(8, stats=stats))
    assert total == catalan(7)
    for k in range(1, 9):
        assert stats.emitted[k] == catalan(k - 1)
    assert stats.total_emitted == sum(catalan(k - 1) for k in range(1, 9))
    # Between yields each level generator retains at most its current and
    # lookahead trees.
    assert all(held <= 2 for held in stats.max_held.values())
    assert sum(stats.case_counts.values()) > 0


def test_stats_vertex_writes_unchecked_is_one_tree_each():
    # Without boundary checks every tree across the stack is written once.
    stats = StreamStats()
    for _ in gray_code(8, checked=False, stats=stats):
        pass
    assert stats.vertex_writes == sum(k * catalan(k - 1) for k in range(1, 9))
    checked = StreamStats()
    for _ in gray_code(8, stats=checked):
        pass
    assert checked.vertex_writes > stats.vertex_writes


def test_stats_under_moves_count_records_and_boundary_trees():
    trees, moves = StreamStats(), StreamStats()
    for _ in gray_code(8, checked=False, stats=trees):
        pass
    for _ in gray_code(8, checked=False, stats=moves, moves=True):
        pass
    assert moves.emitted == trees.emitted
    assert moves.case_counts == trees.case_counts
    # Level 8 builds only its first tree and, at each of its catalan(6) - 1
    # block boundaries, the block's last child and the next block's first.
    below = sum(k * catalan(k - 1) for k in range(1, 8))
    assert moves.vertex_writes == below + 8 * (1 + 2 * (catalan(6) - 1))


def test_write_work_within_quadratic_envelope():
    # Fit the constant at n=8, then confirm larger runs stay inside
    # c * count * n^2.
    def writes_and_count(n):
        stats = StreamStats()
        count = sum(1 for _ in gray_code(n, checked=False, stats=stats))
        return stats.vertex_writes, count

    w8, c8 = writes_and_count(8)
    constant = w8 / (c8 * 8 * 8)
    for n in (10, 12):
        w, c = writes_and_count(n)
        assert w <= constant * c * n * n, n


def test_family_tree_chain_n2():
    ft = build_family_tree(2)
    assert ft.levels == ((T(1),), (T(1, 2),))
    assert ft.children[T(1)] == (T(1, 2),)
    assert ft.children[T(1, 2)] == ()


def test_family_tree_level_sizes():
    ft = build_family_tree(5)
    assert [len(level) for level in ft.levels] == [1, 1, 2, 5, 14]
    assert ft.node_count == 23


def test_family_tree_levels_match_stream():
    ft = build_family_tree(7)
    for k in range(1, 8):
        assert list(ft.level(k)) == list(gray_code(k)), k


def test_family_tree_child_counts():
    ft = build_family_tree(6)
    for k in range(1, 6):
        for t in ft.level(k):
            kids = ft.children[t]
            assert len(kids) == t.rpl + 1
            assert all(c.parent() == t for c in kids)
            assert set(kids) == set(t.children())


def test_family_tree_cap():
    with pytest.raises(ValueError, match="cap exceeded"):
        build_family_tree(40)
    with pytest.raises(ValueError, match="cap exceeded"):
        build_family_tree(5, cap=4)
    assert isinstance(build_family_tree(4, cap=4), FamilyTree)


def test_family_tree_level_range():
    ft = build_family_tree(3)
    with pytest.raises(ValueError):
        ft.level(0)
    with pytest.raises(ValueError):
        ft.level(4)


def test_export_dot_n2():
    text = export_dot(build_family_tree(2))
    assert '"()"' in text and '"(())"' in text
    assert text.count("->") == 1
    assert "ordering=out" in text


def test_export_dot_n5_counts():
    text = export_dot(build_family_tree(5))
    ids = {encode_parens(t) for n in range(1, 6) for t in enumerate_all(n)}
    assert len(ids) == 23
    for node in ids:
        assert f'"{node}"' in text
    assert text.count("->") == 23 - 1
    assert text.count("rank=same") == 5


def test_export_dot_deterministic():
    a = export_dot(build_family_tree(6))
    b = export_dot(build_family_tree(6))
    assert a == b
