"""Streaming generation, deltas, the family tree the per-level streams form,
and its streamed DOT export."""
import itertools
import tracemalloc
from collections import Counter, deque

import pytest

import treegray.generator
import treegray.relations
from treegray import (
    AdjacencyViolationError,
    Case,
    Delta,
    ForbiddenCaseError,
    OrderedTree,
    StreamStats,
    apply_delta,
    catalan,
    delta,
    delta_stream,
    encode_parens,
    enumerate_all,
    export_dot,
    gray_code,
    is_adjacent,
)
from treegray.generator import _blocks
from treegray.tree import Node


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


@pytest.mark.parametrize("n", range(3, 13))
def test_last_tree_has_a_closed_form(n):
    # 1,2,3 and then the first n-3 entries of 2,3,3,2,3,3,...  It is
    # adjacent to the star only for n <= 4, so the code is not cyclic above.
    (last,) = deque(gray_code(n, checked=False), maxlen=1)
    tail = itertools.islice(itertools.cycle((2, 3, 3)), n - 3)
    assert last.levels == (1, 2, 3, *tail)
    assert is_adjacent(last, next(gray_code(n))) == (n <= 4)


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


def test_generator_derives_moves_without_a_search(monkeypatch):
    # Every boundary move is derived from the move one level down
    # (docs/boundary-moves.md), so the O(n) search is not even bound.
    assert not hasattr(treegray.generator, "_move")
    runs = [(n, c, m) for n in range(1, 11) for c in (True, False) for m in (False, True)]
    before = {(n, c, m): list(gray_code(n, checked=c, moves=m)) for n, c, m in runs}

    def search(t, u):
        raise AssertionError("relations._move called")

    monkeypatch.setattr(treegray.relations, "_move", search)
    for (n, c, m), records in before.items():
        assert list(gray_code(n, checked=c, moves=m)) == records, (n, c, m)


@pytest.mark.parametrize("moves", [False, True], ids=["trees", "moves"])
@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
def test_blocks_flatten_to_the_gray_code(checked, moves):
    # Each block is the children of one parent in code order.  The top level
    # derives the move into a block's first child exactly where it proves the
    # boundary: every block but the first, when checked or for a move stream.
    proven = checked or moves
    for n in range(2, 10):
        flat = []
        for parent, order, move in _blocks(n, checked, moves, None):
            children = [OrderedTree(parent.levels).child(i) for i in order]
            if flat and proven:
                assert apply_delta(flat[-1], move) == children[0]
                assert move == delta(flat[-1], children[0])
            else:
                assert move is None
            flat += children
        assert flat == list(gray_code(n, checked=checked)), n


@pytest.mark.parametrize("moves", [False, True], ids=["trees", "moves"])
@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
def test_walk_builds_no_tree_of_size_n(monkeypatch, checked, moves):
    # The stack holds family-tree nodes and proves its boundaries on their
    # suffixes, so the walk that hands out the blocks builds no OrderedTree
    # at all, and one node per tree of sizes 2..n-1.
    real = Node.child
    sizes = Counter()

    def child(self, i):
        t = real(self, i)
        sizes[t.size] += 1
        return t

    def no_tree(*args):
        raise AssertionError("an OrderedTree was built")

    monkeypatch.setattr(Node, "child", child)
    monkeypatch.setattr(OrderedTree, "child", no_tree)
    monkeypatch.setattr(OrderedTree, "_trusted", no_tree)
    for n in range(2, 11):
        sizes.clear()
        for _ in _blocks(n, checked, moves, None):
            pass
        assert sizes[n] == 0, n
        for k in range(2, n):
            assert sizes[k] == catalan(k - 1), (n, k)


def test_deep_prefix_has_no_recursion_limit():
    assert next(gray_code(5000, checked=False)).levels == (1,) + (2,) * 4999


def _plans_per_block(monkeypatch, n, checked, moves, records=None):
    # The plan_step and plan_last calls made while each block is drawn from
    # _blocks, until at least `records` records are drawn (all if None).
    plans = [0]

    def counted(plan):
        def wrapped(*args):
            plans[0] += 1
            return plan(*args)

        return wrapped

    for name in ("plan_step", "plan_last"):
        monkeypatch.setattr(
            treegray.generator, name, counted(getattr(treegray.generator, name))
        )
    per_block, drawn = [], 0
    for _, order, _ in _blocks(n, checked, moves, None):
        per_block.append(plans[0])
        plans[0] = 0
        drawn += len(order)
        if records is not None and drawn >= records:
            break
    monkeypatch.undo()
    return per_block


@pytest.mark.parametrize(
    "checked, moves",
    [(True, False), (False, False), (True, True)],
    ids=["checked-trees", "unchecked-trees", "moves"],
)
def test_each_block_start_plans_at_most_two_levels(monkeypatch, checked, moves):
    # The first block builds the stack and the second starts the next block
    # of every level at once; from then on the top plans its next block and
    # at most one used-up level below it is rolled ahead, so no block start
    # walks down the stack.  Every tree of sizes 1..n-1 is still planned
    # once: rolling ahead moves plans, it adds none.
    for n in range(2, 13):
        per_block = _plans_per_block(monkeypatch, n, checked, moves)
        assert max(per_block[2:], default=0) <= 2, n
        assert sum(per_block) == sum(catalan(k - 1) for k in range(1, n)), n


def test_each_block_start_of_a_deep_prefix_plans_at_most_two_levels(monkeypatch):
    per_block = _plans_per_block(monkeypatch, 100, True, False, records=20_000)
    assert per_block[1] == 97  # the first boundary: levels 4..100
    assert max(per_block[2:]) == 2


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


def test_adjacency_violation_carries_where_it_happened(broken_next_leftmost):
    # At n=7 the broken boundary is the top's; at n=8 and n=9 it is level
    # 7's, whose block a checked run starts ahead of need: the error is kept
    # on that level and raised, the same object, when the level above asks
    # it for a tree.
    for n in (7, 8, 9):
        with pytest.raises(AdjacencyViolationError) as exc:
            list(gray_code(n))
        e = exc.value
        assert (e.level, e.position, e.case) == (7, 3, Case.C2A1), n
        assert e.trees == (T(1, 2, 2, 2, 3, 2, 3), T(1, 2, 2, 2, 3, 4, 3)), n
        assert str(e) == (
            "adjacency violation in case 2a1 at level 7 after position 3 of "
            "level 6: 1,2,2,2,3,2,3 vs 1,2,2,2,3,4,3"
        )


def test_forbidden_case_carries_where_it_happened(forbidden_case):
    for n in (7, 8, 9):
        for moves in (False, True):
            with pytest.raises(ForbiddenCaseError) as exc:
                list(gray_code(n, moves=moves))
            e = exc.value
            assert (e.level, e.position, e.case) == (6, 3, Case.C4B3), n
            assert e.trees == (T(1, 2, 2, 2, 3, 2), T(1, 2, 2, 2, 3, 4)), n
            assert str(e) == (
                "forbidden case 4b3 at level 6, position 3: "
                "1,2,2,2,3,2 -> 1,2,2,2,3,4"
            )


def test_violation_is_caught_at_the_lowest_proven_level(broken_next_leftmost):
    # At n=8 the broken boundary sits on level 7, below the top.  A checked
    # run proves every level, so it is caught there; an unchecked move stream
    # proves only level 8, where the bad level-7 trees break a later boundary;
    # an unchecked tree stream proves nothing.
    low = (
        "adjacency violation in case 2a1 at level 7 after position 3 of "
        "level 6: 1,2,2,2,3,2,3 vs 1,2,2,2,3,4,3"
    )
    top = (
        "adjacency violation in case 4a1 at level 8 after position 9 of "
        "level 7: 1,2,2,2,3,2,3,3 vs 1,2,2,2,3,4,3,3"
    )
    for moves in (False, True):
        with pytest.raises(AdjacencyViolationError) as exc:
            list(gray_code(8, moves=moves))
        assert str(exc.value) == low
    assert sum(1 for _ in gray_code(8, checked=False)) == catalan(7)
    with pytest.raises(AdjacencyViolationError) as exc:
        list(gray_code(8, checked=False, moves=True))
    assert str(exc.value) == top


@pytest.mark.parametrize("moves", [False, True], ids=["trees", "moves"])
@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
def test_bad_child_index_at_the_top_raises(broken_child_index, checked, moves):
    # At n=7 the bad index 3 ends a block of the top level.  A tree stream
    # meets it in OrderedTree.child; a move stream builds no tree there, so
    # the boundary proof's two ends must check the index themselves.
    with pytest.raises(ValueError) as exc:
        list(gray_code(7, checked=checked, moves=moves))
    assert str(exc.value) == "child index 3 outside 1..2 for 1,2,2,2,3,2"


_FAULT_MODES = [(True, False), (False, False), (True, True), (False, True)]


@pytest.mark.parametrize(
    "fixture, n, want",
    [
        ("broken_next_leftmost", 7, (10, 132, 10, 10)),
        ("broken_next_leftmost", 8, (25, 429, 25, 28)),
        ("broken_next_leftmost", 9, (73, 1430, 73, 84)),
        ("broken_child_index", 7, (9, 9, 10, 10)),
        ("broken_child_index", 8, (23, 23, 23, 23)),
        ("broken_child_index", 9, (67, 67, 67, 67)),
        ("forbidden_case", 7, (8, 8, 8, 8)),
        ("forbidden_case", 8, (21, 21, 21, 21)),
        ("forbidden_case", 9, (63, 63, 63, 63)),
    ],
)
def test_faults_surface_at_the_record_the_walk_reaches_them(request, fixture, n, want):
    # How many records gray_code yields before each fault, in four modes:
    # checked trees, unchecked trees, checked moves, unchecked moves.  A
    # count of catalan(n - 1) means the run ends without an error (an
    # unchecked tree stream proves no boundary).  Blocks may be planned
    # ahead of need, but a fault must surface where the level that meets it
    # is first asked for a tree, which fixes the record.
    request.getfixturevalue(fixture)
    error = {
        "broken_next_leftmost": AdjacencyViolationError,
        "broken_child_index": ValueError,
        "forbidden_case": ForbiddenCaseError,
    }[fixture]
    for (checked, moves), count in zip(_FAULT_MODES, want):
        records = gray_code(n, checked=checked, moves=moves)
        seen = 0
        if count == catalan(n - 1):
            seen = sum(1 for _ in records)
        else:
            with pytest.raises(error) as exc:
                for _ in records:
                    seen += 1
            assert type(exc.value) is error
        assert seen == count, (checked, moves)


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
    assert sum(stats.case_counts.values()) > 0


def test_stats_vertex_writes_unchecked_is_one_tree_each():
    # Every tree below the top is written once, checked or not, as one node
    # holding its last level, and each record its n entries, appended to its
    # parent's level tuple.  The boundary proofs read the nodes the stack
    # holds.
    for n, want in ((6, 275), (8, 3629), (10, 50676)):
        nodes = sum(catalan(k - 1) for k in range(1, n))
        trees = n * catalan(n - 1)
        for checked in (False, True):
            stats = StreamStats()
            for _ in gray_code(n, checked=checked, stats=stats):
                pass
            assert stats.vertex_writes == nodes + trees == want, (n, checked)


@pytest.mark.parametrize("moves", [False, True], ids=["trees", "moves"])
@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
def test_stats_vertex_writes_match_the_trees_built(monkeypatch, checked, moves):
    # The writes counted by hand are one per node the stack builds (the root
    # and every child) and the size of every OrderedTree the stream builds,
    # by OrderedTree.child, OrderedTree._trusted or, for the records of a
    # tree stream, by storing its levels.
    built = [0]
    node_child, root = Node.child, treegray.generator._root
    tree_child, trusted = OrderedTree.child, OrderedTree._trusted.__func__
    store = treegray.generator._store_levels

    def stored(t, levels):
        built[0] += len(levels)
        store(t, levels)

    def counted(make, writes):
        def wrapped(*args):
            t = make(*args)
            built[0] += writes(t)
            return t

        return wrapped

    one, size = (lambda t: 1), (lambda t: t.size)
    monkeypatch.setattr(Node, "child", counted(node_child, one))
    monkeypatch.setattr(treegray.generator, "_root", counted(root, one))
    monkeypatch.setattr(OrderedTree, "child", counted(tree_child, size))
    monkeypatch.setattr(OrderedTree, "_trusted", classmethod(counted(trusted, size)))
    monkeypatch.setattr(treegray.generator, "_store_levels", stored)
    for n in range(1, 11):
        built[0] = 0
        stats = StreamStats()
        for _ in gray_code(n, checked=checked, stats=stats, moves=moves):
            pass
        assert stats.vertex_writes == built[0], n


def test_stats_under_moves_count_records_and_boundary_trees():
    trees, moves = StreamStats(), StreamStats()
    for _ in gray_code(8, checked=False, stats=trees):
        pass
    for _ in gray_code(8, checked=False, stats=moves, moves=True):
        pass
    assert moves.emitted == trees.emitted
    assert moves.case_counts == trees.case_counts
    # Level 8 builds only its first tree, from its parent as a tree; its
    # boundaries are proven on the nodes below it.
    nodes = sum(catalan(k - 1) for k in range(1, 8))
    assert moves.vertex_writes == nodes + 7 + 8 == 212


def _drain(n, records, **kwargs):
    for _ in itertools.islice(gray_code(n, **kwargs), records):
        pass


def _traced_peak(n, records, **kwargs):
    # Peak bytes allocated while the first `records` records are drawn and
    # dropped.
    tracemalloc.start()
    try:
        _drain(n, records, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"checked": False}, {"moves": True}],
    ids=["checked", "unchecked", "moves"],
)
def test_prefix_memory_does_not_grow_with_the_prefix(kwargs):
    # The README promises arbitrarily long prefixes in memory that does not
    # grow with the prefix: O(n) trees of O(n) entries, so O(n^2) bytes.
    # CPython 3.11 and 3.12 keep up to 2,000 freed tuples of each small size
    # on a free list, a bounded cache that fills as a run goes; one untraced
    # run fills it first, so the traced runs see what the stream holds.
    _drain(40, 20_000, **kwargs)
    short = _traced_peak(40, 2_000, **kwargs)
    assert _traced_peak(40, 20_000, **kwargs) <= 1.5 * short
    assert _traced_peak(80, 2_000, **kwargs) <= 6 * short


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


def _family_blocks(k):
    # Level k read in order, cut into runs of equal parent: the child blocks.
    return [
        (parent, list(block))
        for parent, block in itertools.groupby(gray_code(k), key=OrderedTree.parent)
    ]


def test_family_tree_chain_n2():
    assert _family_blocks(2) == [(T(1), [T(1, 2)])]


def test_family_tree_level_sizes():
    assert [sum(1 for _ in gray_code(k)) for k in range(1, 6)] == [1, 1, 2, 5, 14]


def test_family_tree_levels_match_stream():
    # Level k+1 lists the child blocks of level k's trees, in order.
    for k in range(1, 7):
        assert [p for p, _ in _family_blocks(k + 1)] == list(gray_code(k)), k


def test_family_tree_child_counts():
    for k in range(1, 6):
        for parent, block in _family_blocks(k + 1):
            assert len(block) == parent.rpl + 1
            assert set(block) == set(parent.children())


def test_export_dot_n2():
    text = "".join(export_dot(2))
    assert '"()"' in text and '"(())"' in text
    assert text.count("->") == 1
    assert "ordering=out" in text


def test_export_dot_n5_counts():
    text = "".join(export_dot(5))
    ids = {encode_parens(t) for n in range(1, 6) for t in enumerate_all(n)}
    assert len(ids) == 23
    for node in ids:
        assert f'"{node}"' in text
    assert text.count("->") == 23 - 1
    assert text.count("rank=same") == 5


def test_export_dot_deterministic():
    assert "".join(export_dot(6)) == "".join(export_dot(6))


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "4"])
def test_export_dot_rejects_bad_n(bad):
    # Checked at the call, before any text is drawn.
    with pytest.raises(ValueError):
        export_dot(bad)


def _dot_peak(n):
    tracemalloc.start()
    try:
        for _ in export_dot(n):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_dot_memory_does_not_grow_with_the_family_tree():
    # The export streams each level from gray_code, so its peak is O(n)
    # trees; n=11 has 23,714 trees of sizes 1..11 to n=8's 626.  The untraced
    # run fills CPython's free lists first (see the prefix test above).
    for _ in export_dot(11):
        pass
    assert _dot_peak(11) <= 2 * _dot_peak(8)
