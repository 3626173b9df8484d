"""The brute-force side: enumeration, Catalan counts, verification reports."""
import pytest

import treegray.oracle
from treegray import (
    ALL_CHECKS,
    OrderedTree,
    VerificationReport,
    catalan,
    enumerate_all,
    gray_code,
    verify,
)


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


def test_verify_passes_small():
    for n in range(1, 9):
        report = verify(n)
        assert report.passed, report.summary_line()
        assert report.total == report.expected == catalan(n - 1)


def test_verify_summary_line():
    line = verify(3).summary_line()
    assert line.startswith("PASS n=3 total=2 expected=2")
    assert "forbidden_case_hits=0" in line


def test_verify_single_tree_level():
    report = verify(1)
    assert report.passed
    assert report.total == 1
    assert report.adjacency_failures == []


def test_verify_check_subsets():
    report = verify(6, checks=["gray", "unique"])
    assert report.passed
    assert report.checks == ("gray", "unique")
    assert report.case_histogram == {}
    assert "case histogram" not in report.render()
    full = verify(6)
    assert "case histogram:" in full.render()
    assert sum(full.case_histogram.values()) > 0


def test_verify_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown checks"):
        verify(4, checks=["gray", "bogus"])


def test_verify_cap():
    with pytest.raises(ValueError, match="cap exceeded"):
        verify(15)


def test_all_checks_frozen():
    assert ALL_CHECKS == ("gray", "unique", "complete", "co1", "co2", "cases")


def test_report_fail_states():
    base = dict(n=3, checks=ALL_CHECKS, total=2, expected=2)
    assert VerificationReport(**base).passed
    assert not VerificationReport(**{**base, "total": 1}).passed
    assert not VerificationReport(
        **base, duplicates=[OrderedTree([1, 2, 2])]
    ).passed
    assert not VerificationReport(**base, adjacency_failures=[(0, 1)]).passed
    assert not VerificationReport(
        **base, invariant_failures=[(3, 0, "co1")]
    ).passed
    assert not VerificationReport(**base, forbidden_case_hits=1).passed
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
