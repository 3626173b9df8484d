"""The brute-force side: enumeration, Catalan counts, verification reports."""
import tracemalloc
from collections import Counter

import pytest

import treegray.oracle
import treegray.relations
from treegray import (
    Case,
    Delta,
    OrderedTree,
    VerificationReport,
    catalan,
    enumerate_all,
    gray_code,
    is_adjacent,
    verify,
)
from treegray.oracle import _rank, _rank_table


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


def _verify_broken_n6(monkeypatch, mutate):
    # Feed verify a gray_code(6) damaged by mutate; smaller levels stay intact.
    def broken(k, **kwargs):
        trees = list(gray_code(k, **kwargs))
        if k == 6:
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


def test_verify_records_an_error_in_the_co1_sweep(monkeypatch):
    # The main run at n=6 is sound; the sweep over the smaller levels fails.
    real = treegray.oracle.gray_code

    def failing(k, **kwargs):
        if k < 6:
            raise RuntimeError(f"level {k} failed")
        return real(k, **kwargs)

    monkeypatch.setattr(treegray.oracle, "gray_code", failing)
    report = verify(6)
    assert not report.passed
    assert report.total == 42
    assert report.generation_error == "RuntimeError: level 1 failed"
    assert report.invariant_failures == []


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
    assert report.invariant_failures == [(6, 1, "co2"), (6, 16, "co2"), (6, 18, "co2")]
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
    assert report.invariant_failures == [(6, 16, "co2"), (6, 18, "co2")]
    assert report.duplicates == [OrderedTree([1, 2, 2, 2, 2, 2])]
    assert report.missing == [OrderedTree([1, 2, 3, 3, 3, 3])]
    lines = report.render().splitlines()
    assert "duplicate: 1,2,2,2,2,2" in lines
    assert "missing: 1,2,3,3,3,3" in lines
    assert "not adjacent: positions 17,18" in lines
    assert "co2 violated: level 6, window 18" in lines


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
