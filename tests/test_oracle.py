"""The brute-force side: enumeration, Catalan counts, verification reports."""
import hashlib
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import treegray.oracle
import treegray.relations
from treegray import (
    Case,
    Delta,
    OrderedTree,
    VerificationReport,
    apply_delta,
    catalan,
    check_co1,
    delta,
    enumerate_all,
    gray_code,
    is_adjacent,
    verify,
)
from treegray.oracle import _certify, _rank, _rank_table


@pytest.mark.parametrize(
    "m,value",
    [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (9, 4862), (12, 208012)],
)
def test_catalan_values(m, value):
    assert catalan(m) == value


def test_catalan_recurrence():
    # C(m+1) = sum C(i) C(m-i), an independent definition.
    for m in range(12):
        assert catalan(m + 1) == sum(catalan(i) * catalan(m - i) for i in range(m + 1))


@pytest.mark.parametrize("bad", [-1, 1.5, "3", True])
def test_catalan_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        catalan(bad)


def test_enumerate_all_small():
    assert [t.levels for t in enumerate_all(1)] == [(1,)]
    assert [t.levels for t in enumerate_all(4)] == [
        (1, 2, 2, 2),
        (1, 2, 2, 3),
        (1, 2, 3, 2),
        (1, 2, 3, 3),
        (1, 2, 3, 4),
    ]


def test_enumerate_all_counts_and_order():
    for n in range(1, 11):
        trees = list(enumerate_all(n))
        assert all(t.size == n for t in trees)
        assert len(trees) == catalan(n - 1)
        seqs = [t.levels for t in trees]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


def test_enumerate_all_emits_valid_sequences():
    for t in enumerate_all(7):
        assert OrderedTree(list(t.levels)) == t


def test_enumerate_all_streams_without_cap():
    # The star comes first; nothing of the Catalan(39) others is built.
    assert next(enumerate_all(40)) == OrderedTree([1] + [2] * 39)
    # Bad sizes are rejected at the call, not on the first next().
    with pytest.raises(ValueError):
        enumerate_all(0)


def test_rank_is_the_lexicographic_position():
    for n in range(1, 12):
        table = _rank_table(n)
        for i, t in enumerate(enumerate_all(n)):
            assert _rank(t.levels, table) == i, (n, t)


@pytest.mark.parametrize(
    "levels",
    [
        (1, 2, 2, 2),
        (1, 2, 2, 2, 2, 2),
        (2, 2, 2, 2, 2),
        (1, 2, 1, 2, 2),
        (1, 2, 3, -1, 2),
        (1, 2, 4, 2, 2),
        (1, 2, 2, 4, 2),
    ],
    ids=["short", "long", "root-2", "entry-1", "entry-negative", "too-deep", "jump-2"],
)
def test_rank_rejects_non_trees(levels):
    assert _rank(levels, _rank_table(5)) is None


def test_verify_passes_small():
    for n in range(1, 9):
        report = verify(n)
        assert report.passed, report.summary_line()
        assert report.total == report.expected == catalan(n - 1)


def test_verify_summary_line():
    report = verify(3)
    line = report.summary_line()
    assert line.startswith("PASS n=3 total=2 expected=2")
    assert "forbidden_case_hits=0" in line
    assert "case histogram:" in report.render()
    assert sum(report.case_histogram.values()) > 0


def test_verify_single_tree_level():
    report = verify(1)
    assert report.passed
    assert report.total == 1
    assert report.adjacency_failures == []


@pytest.mark.parametrize("bad", [0, True])
def test_verify_rejects_bad_n(bad):
    with pytest.raises(ValueError, match="positive integer"):
        verify(bad)


def test_report_fail_states():
    base = dict(n=3, total=2)
    assert VerificationReport(**base).passed
    assert VerificationReport(**base).expected == 2
    assert not VerificationReport(**{**base, "total": 1}).passed
    assert not VerificationReport(
        **base, duplicates=[OrderedTree([1, 2, 2])]
    ).passed
    assert not VerificationReport(**base, adjacency_failures=[(0, 1)]).passed
    assert not VerificationReport(
        **base, invariant_failures=[(3, 0, "co1")]
    ).passed
    forbidden = VerificationReport(**base, case_histogram=Counter({Case.C3A1: 1}))
    assert forbidden.forbidden_case_hits == 1 and not forbidden.passed
    assert not VerificationReport(**base, generation_error="boom").passed
    bad = VerificationReport(**{**base, "total": 1})
    assert bad.summary_line().startswith("FAIL")
    assert "generation error: boom" in VerificationReport(
        **base, generation_error="boom"
    ).render()


# SHA-256 of verify(n).render(), recorded while verify still passed each
# record through separate rank, co2 and adjacency stages.
RENDER_SHA256 = {
    1: "c69c58e6f401b1ccb2ecb53a1cdcd5977bd06f2d1fbdede8134c90f096367511",
    2: "cbd88d1dab704803ff2d23a93ff7b9a0dc81cf62c0db51de210e4e76f78aac0a",
    3: "dcb9fbbcab022db2e0c651b193c1877d52c30881347bad0e6a57726bbf6dd8db",
    4: "b00ce0254a78edac8adb113358e7bc2f148d9a33da8bfbf6c2794b3a0bc3f590",
    5: "e6f062135c5321446b49e280d8a14fd842d7f120481940b9465fef771fc148a4",
    6: "67998d8eca78ce1e71c9c478199b79dc93a9ad97e813f106c6309d4a720b23cb",
    7: "e5e1cf7d6af510121a738ae4722b12d83ab1f56bc225b30463efc0cd4e3a4f5a",
    8: "92c13d933041b9a20716524591db931cd0b3926d1dc7177023a3e6a5b0c7668e",
    9: "e5b47473129b36c6eae0b885b1e2569b04660470c0b44dc06d94a40500e64116",
    10: "8692aa2d52fefbd4093345abba73db67052287f4f6f346a56ce4da6434338ed7",
}


@pytest.mark.parametrize("n", sorted(RENDER_SHA256))
def test_verify_report_is_pinned(n):
    text = verify(n).render()
    assert hashlib.sha256(text.encode()).hexdigest() == RENDER_SHA256[n]


def _verify_broken_n6(monkeypatch, mutate):
    # Feed verify(6) the tree stream of level 6 damaged by mutate.  verify
    # asks for moves and gets trees, each of which it ranks in full and
    # checks with is_adjacent.  The levels below 6 are the stream's
    # k-prefixes, so a damaged stream can break co1 on them too.
    def broken(k, **kwargs):
        kwargs.pop("moves", None)
        trees = list(gray_code(k, **kwargs))
        mutate(trees)
        return iter(trees)

    monkeypatch.setattr(treegray.oracle, "gray_code", broken)
    return verify(6)


@pytest.mark.parametrize(
    "record",
    [OrderedTree([1, 2, 3, 2, 2]), OrderedTree._trusted((1, 2, 4, 2, 2, 2))],
    ids=["size-5", "jump-2"],
)
def test_verify_records_a_record_that_is_not_a_tree(monkeypatch, record):
    def replace(trees):
        trees[5] = record

    report = _verify_broken_n6(monkeypatch, replace)
    assert not report.passed
    assert report.total == 5
    assert report.generation_error == (
        f"record 5 is not a tree with 6 vertices: {record}"
    )
    assert report.duplicates == [] and report.missing == []


def test_verify_records_a_value_error_from_the_generator(broken_child_index):
    report = verify(8)
    assert not report.passed
    assert report.total == 23
    assert report.generation_error == (
        "ValueError: child index 3 outside 1..2 for 1,2,2,2,3,2"
    )
    assert "FAIL n=8 total=23 expected=429" in report.render()


def test_passing_verify_does_not_enumerate(monkeypatch):
    # The lexicographic walk runs only to name missing trees.
    def walk(n):
        raise AssertionError("enumerate_all called")

    monkeypatch.setattr(treegray.oracle, "enumerate_all", walk)
    assert verify(8).passed


def test_verify_memory_does_not_hold_the_trees():
    # One byte per tree: Catalan(9) = 4,862 trees at n=10, where a set of
    # level tuples held about 480 KB.  The untraced run fills the
    # interpreter's free lists first (see test_generator).
    verify(10)
    tracemalloc.start()
    try:
        assert verify(10).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 1024


def test_verify_locates_swapped_trees(monkeypatch):
    def swap(trees):
        trees[3], trees[18] = trees[18], trees[3]

    report = _verify_broken_n6(monkeypatch, swap)
    assert not report.passed
    assert report.total == 42
    assert report.adjacency_failures == [(2, 3), (3, 4), (17, 18), (18, 19)]
    # Record 3, tree 18, also starts new trees at levels 4 and 5, and the
    # windows they complete break co1 on those prefixes.
    assert report.invariant_failures == [
        (6, 1, "co2"),
        (4, 0, "co1"),
        (5, 1, "co1"),
        (5, 2, "co1"),
        (6, 16, "co2"),
        (6, 18, "co2"),
    ]
    assert report.duplicates == [] and report.missing == []
    assert report.generation_error is None
    lines = report.render().splitlines()
    assert "not adjacent: positions 2,3" in lines
    assert "not adjacent: positions 18,19" in lines
    assert "co2 violated: level 6, window 16" in lines


def test_verify_locates_repeated_tree(monkeypatch):
    def repeat(trees):
        trees[18] = trees[0]

    report = _verify_broken_n6(monkeypatch, repeat)
    assert not report.passed
    assert report.total == 42
    assert report.adjacency_failures == [(17, 18), (18, 19)]
    assert report.invariant_failures == [(6, 16, "co2"), (6, 18, "co2"), (5, 6, "co1")]
    assert report.duplicates == [OrderedTree([1, 2, 2, 2, 2, 2])]
    assert report.missing == [OrderedTree([1, 2, 3, 3, 3, 3])]
    lines = report.render().splitlines()
    assert "duplicate: 1,2,2,2,2,2" in lines
    assert "missing: 1,2,3,3,3,3" in lines
    assert "not adjacent: positions 17,18" in lines
    assert "co2 violated: level 6, window 18" in lines


def test_verify_checks_the_first_pair(monkeypatch):
    # Only the pairs (0, 1) and (4, 5) of this stream are not adjacent.
    def swap(trees):
        trees[1], trees[4] = trees[4], trees[1]

    report = _verify_broken_n6(monkeypatch, swap)
    assert report.adjacency_failures == [(0, 1), (4, 5)]
    assert report.invariant_failures == [(6, 4, "co2"), (5, 2, "co1")]
    assert "not adjacent: positions 0,1" in report.render().splitlines()


def test_verify_checks_the_first_co2_window(monkeypatch):
    # Only the window that starts the stream breaks co2.
    def swap(trees):
        trees[0], trees[9] = trees[9], trees[0]

    report = _verify_broken_n6(monkeypatch, swap)
    assert report.adjacency_failures == [(9, 10)]
    assert report.invariant_failures == [(6, 0, "co2")]
    assert "co2 violated: level 6, window 0" in report.render().splitlines()


def test_verify_checks_co1_up_to_level_n_minus_1(monkeypatch):
    # Swapping records 2 and 8 of level 6 keeps every pair adjacent and co2
    # whole, but reorders the 5-prefixes: only level 5's co1 breaks.
    def swap(trees):
        trees[2], trees[8] = trees[8], trees[2]

    report = _verify_broken_n6(monkeypatch, swap)
    assert not report.passed
    assert report.total == 42 and report.adjacency_failures == []
    assert report.duplicates == [] and report.missing == []
    assert report.invariant_failures == [(5, 2, "co1")]
    assert "co1 violated: level 5, window 2" in report.render().splitlines()


def test_verify_names_a_missing_lexicographically_last_tree(monkeypatch):
    path = OrderedTree([1, 2, 3, 4, 5, 6])

    def repeat(trees):
        trees[trees.index(path)] = trees[0]

    report = _verify_broken_n6(monkeypatch, repeat)
    assert not report.passed
    assert report.duplicates == [OrderedTree([1, 2, 2, 2, 2, 2])]
    assert report.missing == [path]
    assert "missing: 1,2,3,4,5,6" in report.render().splitlines()


def test_gray_check_certifies_the_search(monkeypatch):
    # A search that invents a move for non-adjacent pairs must not make them
    # adjacent: is_adjacent replays the move and compares.
    real = treegray.relations._move

    def inventing(t, u):
        m = real(t, u)
        return Delta(t.size, t.size, 2) if m is None else m

    monkeypatch.setattr(treegray.relations, "_move", inventing)
    star, path = OrderedTree([1, 2, 2, 2, 2]), OrderedTree([1, 2, 3, 4, 5])
    assert is_adjacent(star, path) is False

    def swap(trees):
        trees[3], trees[18] = trees[18], trees[3]

    report = _verify_broken_n6(monkeypatch, swap)
    assert report.adjacency_failures == [(2, 3), (3, 4), (17, 18), (18, 19)]


class _Marks(bytearray):
    """A mark table that logs each rank it is asked to mark."""

    def __init__(self, size):
        super().__init__(size)
        self.ranks = []

    def __setitem__(self, rank, value):
        self.ranks.append(rank)
        super().__setitem__(rank, value)


@pytest.mark.parametrize("n", range(1, 11))
def test_certified_rank_is_the_rank_of_the_replayed_tree(n):
    # The rank updated over each move's window is _rank of the tree the move
    # replays to, on every record.
    table = _rank_table(n)
    records = list(gray_code(n, moves=True))
    marks = _Marks(catalan(n - 1))
    report = VerificationReport(n=n)
    _certify(report, iter(records), table, marks)
    tree, want = records[0], []
    for record in records:
        tree = record if isinstance(record, OrderedTree) else apply_delta(tree, record)
        want.append(_rank(tree.levels, table))
    assert marks.ranks == want
    assert sorted(want) == list(range(catalan(n - 1)))
    assert report.total == len(records) and report.generation_error is None
    assert report.adjacency_failures == report.invariant_failures == []


def test_verify_runs_the_generator_once(monkeypatch):
    # The levels below n are read off level n's stream, not generated again.
    real = treegray.oracle.gray_code
    calls = []

    def counted(k, **kwargs):
        calls.append(k)
        return real(k, **kwargs)

    monkeypatch.setattr(treegray.oracle, "gray_code", counted)
    for n in range(1, 11):
        calls.clear()
        assert verify(n).passed
        assert calls == [n]


def _gray_move(levels, leaf, at, level):
    # A move that replays on levels, picked by three arbitrary integers: it
    # removes a leaf and inserts a leaf, possibly the same one back.
    m = len(levels)
    leaves = [j for j in range(1, m) if j == m - 1 or levels[j + 1] <= levels[j]]
    j = leaves[leaf % len(leaves)]
    short = levels[:j] + levels[j + 1 :]
    q = 1 + at % (m - 1)
    low = max(2, short[q]) if q < m - 1 else 2
    return Delta(j + 1, q + 1, low + level % (short[q - 1] + 2 - low))


def _reference_window_failures(trees):
    # check_co1 over each level's stream: level n is every record, level
    # k < n the distinct consecutive k-prefixes.  A failure is listed at the
    # record that completes its window, level n first, then level by level.
    n, found = trees[0].size, []
    for k in range(1, n + 1):
        starts = [
            pos
            for pos, t in enumerate(trees)
            if k == n or pos == 0 or t.levels[:k] != trees[pos - 1].levels[:k]
        ]
        level = [OrderedTree._trusted(trees[pos].levels[:k]) for pos in starts]
        for w in range(len(level) - 2):
            if not check_co1(*level[w : w + 3]):
                which = "co1" if k < n else "co2"
                found.append((starts[w + 2], k % n, (k, w, which)))
    return [failure for _, _, failure in sorted(found)]


@given(
    st.integers(min_value=6, max_value=8),
    st.booleans(),
    st.lists(st.tuples(*[st.integers(0, 63)] * 3), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_window_check_is_check_co1_on_every_levels_prefixes(n, moves, draws):
    # A random walk of Gray moves fed as Deltas, or random trees fed as tree
    # records: the one-pass window check lists what check_co1 finds on each
    # level's stream, in the same order.
    everything = list(enumerate_all(n))
    trees = [everything[draws[0][0] % len(everything)] if draws else everything[0]]
    records = [trees[0]]
    for a, b, c in draws[1:]:
        if moves:
            records.append(_gray_move(list(trees[-1].levels), a, b, c))
            trees.append(apply_delta(trees[-1], records[-1]))
        else:
            trees.append(everything[(a * 64 + b) % len(everything)])
            records.append(trees[-1])
    report = VerificationReport(n=n)
    _certify(report, iter(records), _rank_table(n), bytearray(catalan(n - 1)))
    assert report.generation_error is None and report.total == len(records)
    assert report.invariant_failures == _reference_window_failures(trees)


def _counting(monkeypatch, name):
    # Count the calls verify makes to the oracle's binding of `name`.
    real = getattr(treegray.oracle, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(treegray.oracle, name, counted)
    return calls


def test_healthy_verify_ranks_only_the_first_tree(monkeypatch):
    ranks = _counting(monkeypatch, "_rank")
    adjacent = _counting(monkeypatch, "is_adjacent")
    assert verify(8).passed
    assert len(ranks) == 1 and adjacent == []


def test_a_tree_inside_a_move_stream_is_ranked_and_checked_in_full(monkeypatch):
    # Record 20 of verify(7)'s move stream handed over as the tree it replays
    # to: verify ranks it in full and checks it against record 19 with
    # is_adjacent, and its report does not change.
    want = verify(7).render()
    trees = list(gray_code(7))

    def mixed(k, **kwargs):
        records = list(gray_code(k, **kwargs))
        if kwargs.get("moves"):
            records[20] = trees[20]
        return iter(records)

    monkeypatch.setattr(treegray.oracle, "gray_code", mixed)
    ranks = _counting(monkeypatch, "_rank")
    adjacent = _counting(monkeypatch, "is_adjacent")
    assert verify(7).render() == want
    assert [levels for levels, _ in ranks] == [trees[0].levels, trees[20].levels]
    assert adjacent == [(trees[19], trees[20])]


def _verify_broken_moves_n6(monkeypatch, mutate):
    # Feed verify(6) its move stream damaged by mutate.
    def broken(k, **kwargs):
        records = list(gray_code(k, **kwargs))
        if kwargs.get("moves"):
            mutate(records)
        return iter(records)

    monkeypatch.setattr(treegray.oracle, "gray_code", broken)
    return verify(6)


def _report(*lines):
    # The text of a verify(6) report: these lines, then the histogram of the
    # sound run, which a damaged move stream leaves as it is.
    histogram = verify(6).render().split("case histogram:")[1]
    return "\n".join(lines) + "\ncase histogram:" + histogram


def test_verify_rejects_a_move_that_removes_a_non_leaf(monkeypatch):
    # Record 5 removes entry 4 of record 4, 1,2,2,2,3,4, which has a child.
    def damage(records):
        records[5] = Delta(4, 5, 3)

    report = _verify_broken_moves_n6(monkeypatch, damage)
    assert report.render() == _report(
        "FAIL n=6 total=5 expected=42 duplicates=0 missing=0 adjacency_failures=1 "
        "invariant_failures=0 forbidden_case_hits=0",
        "generation error: record 5 does not replay: entry 4 of 1,2,2,2,3,4 "
        "is not a leaf",
        "not adjacent: positions 4,5",
    )


def test_verify_flags_a_move_that_changes_nothing(monkeypatch):
    # A move inserted after record 3, 1,2,2,2,3,2, that takes its last leaf
    # and puts it back: the two equal trees are not adjacent, and the tree
    # is listed twice.
    def damage(records):
        records.insert(4, Delta(6, 6, 2))

    report = _verify_broken_moves_n6(monkeypatch, damage)
    assert report.duplicates == [OrderedTree([1, 2, 2, 2, 3, 2])]
    assert report.render() == _report(
        "FAIL n=6 total=43 expected=42 duplicates=1 missing=0 adjacency_failures=1 "
        "invariant_failures=0 forbidden_case_hits=0",
        "duplicate: 1,2,2,2,3,2",
        "not adjacent: positions 3,4",
    )


def test_verify_flags_a_move_back_to_the_star(monkeypatch):
    # Records 2 and 3 go from record 1 back to the star and on to record 3:
    # both are Gray moves, so only the repeated star and the skipped record 2
    # show.  The window (0, 1, 2) has outer rpl 1 and middle rpl 2, so its
    # co2 check rebuilds record 1 by undoing the move back to the star.
    trees = list(gray_code(6))

    def damage(records):
        records[2] = delta(trees[1], trees[0])
        records[3] = delta(trees[0], trees[3])

    report = _verify_broken_moves_n6(monkeypatch, damage)
    assert report.duplicates == [trees[0]] and report.missing == [trees[2]]
    assert report.render() == _report(
        "FAIL n=6 total=42 expected=42 duplicates=1 missing=1 adjacency_failures=0 "
        "invariant_failures=0 forbidden_case_hits=0",
        "duplicate: 1,2,2,2,2,2",
        "missing: 1,2,2,2,3,3",
    )
