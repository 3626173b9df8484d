"""Step rules: classification, child orders, and the window invariants."""
import copy
import itertools
import pickle
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import treegray.generator
from treegray import (
    Case,
    FORBIDDEN_CASES,
    ForbiddenCaseError,
    OrderedTree,
    check_co1,
    enumerate_all,
    format_case_histogram,
    gray_code,
    has_pony_tail,
    is_adjacent,
    is_copying,
    verify,
)
from treegray.oracle import VerificationReport, _certify, _rank_table
from treegray.ordering import plan_last, plan_step
from treegray.tree import _nodes


T = lambda *levels: OrderedTree(levels)


def plan(cur, nxt, lm):
    # plan_step on the nodes of two trees, built in one family tree as the
    # generator builds its streams.
    return plan_step(*_nodes(cur, nxt), lm)


def plan_final(tree, lm):
    return plan_last(*_nodes(tree), lm)


def test_case_labels_complete():
    assert len(Case) == 23
    assert {c.value for c in FORBIDDEN_CASES} == {"3a1", "3c1_other", "4b3"}
    assert str(Case.C4B1_EQ_RPLT) == "4b1_eq_rplT"


def test_classify_examples():
    assert plan(T(1, 2, 2), T(1, 2, 3), 1)[0] is Case.C2B1
    assert plan(T(1, 2, 3, 4), T(1, 2, 3, 3), 1)[0] is Case.C4A2
    # Mutual copying resolves to 3b1: subcases are tried in listing order.
    assert plan(T(1, 2, 3), T(1, 2, 2), 1)[0] is Case.C3B1
    assert plan(T(1, 2, 2, 2), T(1, 2, 3, 2), 2)[0] is Case.C1B


def test_classify_forbidden_raises(monkeypatch):
    # Forbidden labels come back with an empty order for the caller to count.
    assert plan(T(1, 2, 3, 3), T(1, 2, 3, 2), 1) == (Case.C3A1, (), 0)
    assert plan(T(1, 2, 3, 4), T(1, 2, 3, 3), 2) == (Case.C4B3, (), 0)
    monkeypatch.setattr(
        treegray.generator, "plan_step", lambda *args: (Case.C4B3, (), 0)
    )
    with pytest.raises(ForbiddenCaseError, match="4b3 at level 3, position 0: "):
        list(gray_code(5))
    report = verify(5)
    assert not report.passed
    assert report.forbidden_case_hits == 1
    assert report.case_histogram[Case.C4B3] == 1
    assert report.generation_error.startswith("ForbiddenCaseError")


def test_step_case_2b1_example():
    assert plan(T(1, 2, 2), T(1, 2, 3), 1) == (Case.C2B1, (1, 2), 2)


def test_step_case_1b_orders_leftmost_first():
    assert plan(T(1, 2, 2, 2), T(1, 2, 3, 2), 2) == (Case.C1B, (2, 1), 1)
    assert is_adjacent(T(1, 2, 2, 2, 2), T(1, 2, 3, 2, 2))


@pytest.mark.parametrize(
    "cur, nxt, lm, want",
    [
        (T(1, 2, 2, 2, 3, 2), T(1, 2, 3, 2, 2, 3), 1, (Case.C2C1, (1, 2), 1)),
        (T(1, 2, 2, 2, 3, 2), T(1, 2, 3, 2, 2, 3), 2, (Case.C2C2, (2, 1), 1)),
        (T(1, 2, 3, 2, 2, 3), T(1, 2, 2, 2, 3, 2), 2, (Case.C3C2, (2, 3, 1), 1)),
        (T(1, 2, 2, 3), T(1, 2, 3, 3), 3, (Case.C4B1_EQ_OTHER, (3, 1, 2), 2)),
    ],
    ids=["2c1", "2c2", "3c2", "4b1_eq_other"],
)
def test_never_selected_branches_are_sound(cur, nxt, lm, want):
    # The streams never reach these branches (docs/label-reachability.md);
    # called directly, each orders all children from the given leftmost one
    # and ends on a child adjacent to the next tree's leftmost child.
    case, order, nl = plan(cur, nxt, lm)
    assert (case, order, nl) == want
    assert is_adjacent(cur, nxt)
    assert is_adjacent(cur.child(order[-1]), nxt.child(nl))


def test_case_3_copying_with_lm_1_is_3b1_or_3c1_other():
    # When t_cur has a pony-tail and copies into t_next, leftmost index 1
    # gives 3b1 if the copying is mutual and the forbidden 3c1_other if not.
    # No input at all gives 3c1.
    seen = set()
    for size in range(3, 7):
        trees = list(enumerate_all(size))
        for cur, nxt in itertools.permutations(trees, 2):
            if not is_adjacent(cur, nxt):
                continue
            for lm in range(1, cur.rpl + 2):
                assert plan(cur, nxt, lm)[0] is not Case.C3C1
            if nxt.rpl == 1 and has_pony_tail(cur) and is_copying(cur, nxt):
                mutual = is_copying(nxt, cur)
                case = plan(cur, nxt, 1)[0]
                assert case is (Case.C3B1 if mutual else Case.C3C1_OTHER)
                seen.add(mutual)
    assert seen == {True, False}


def test_step_decision_invariants_over_full_runs():
    # Walk every real step for sizes up to 8 and re-check the contract.
    for n in range(3, 9):
        trees = list(gray_code(n))
        leftmost = trees[0].child(1)
        for cur, nxt in itertools.pairwise(trees):
            case, order, nl = plan(cur, nxt, leftmost.rpl)
            children = [cur.child(i) for i in order]
            leftmost_of_next = nxt.child(nl)
            assert case not in FORBIDDEN_CASES
            assert children[0] == leftmost
            assert set(children) == set(cur.children())
            assert is_adjacent(children[-1], leftmost_of_next)
            # With three or more children the natural-order child 1 never
            # lands in the second position.
            if cur.rpl >= 3:
                assert children[1] != cur.child(1)
            rpls = [c.rpl for c in children]
            assert sorted(rpls) == list(range(1, cur.rpl + 2))
            leftmost = leftmost_of_next


def test_finalize_last_examples():
    assert plan_final(T(1, 2, 3), 2) == (2, 3, 1)
    assert plan_final(T(1, 2), 1) == (1, 2)
    assert plan_final(T(1), 1) == (1,)


def test_finalize_last_decreasing_rpl_tail():
    assert plan_final(T(1, 2, 3, 4), 2) == (2, 4, 3, 1)


def test_check_co1_examples():
    assert check_co1(T(1, 2, 2, 2), T(1, 2, 2, 3), T(1, 2, 3, 3))
    assert check_co1(T(1, 2, 2, 2), T(1, 2, 2, 3), T(1, 2, 3, 2))
    assert not check_co1(T(1, 2, 2, 2), T(1, 2, 3, 3), T(1, 2, 3, 2))
    # Equal outer rpls of at least 2 force a smaller middle rpl.
    assert check_co1(T(1, 2, 2, 3), T(1, 2, 2, 2), T(1, 2, 3, 3))
    assert not check_co1(T(1, 2, 2, 3), T(1, 2, 3, 4), T(1, 2, 3, 3))


def test_check_co1_requires_same_size():
    with pytest.raises(ValueError, match=r"^size mismatch: 2, 3, 3$"):
        check_co1(T(1, 2), T(1, 2, 2), T(1, 2, 3))


def _reference_check_co1(a, b, c):
    # check_co1 as first written, through size, rpl and both relations.
    if not a.size == b.size == c.size:
        raise ValueError(f"size mismatch: {a.size}, {b.size}, {c.size}")
    ra, rb, rc = a.rpl, b.rpl, c.rpl
    if ra == 1 == rc and rb > 1:
        if not (has_pony_tail(b) and is_copying(c, b)):
            return False
    if ra == rc >= 2 and ra <= rb:
        return False
    return True


def _co1_outcome(check, a, b, c):
    # The verdict, or the text of the size-mismatch error.
    try:
        return check(a, b, c)
    except ValueError as exc:
        return str(exc)


def test_check_co1_matches_reference_on_every_small_triple():
    # Every same-size triple for sizes 1..6: 42**3 = 74,088 at size 6 alone.
    checked = 0
    for n in range(1, 7):
        trees = list(enumerate_all(n))
        for a, b, c in itertools.product(trees, repeat=3):
            assert check_co1(a, b, c) is _reference_check_co1(a, b, c), (a, b, c)
            checked += 1
    assert checked == 1 + 1 + 8 + 125 + 2744 + 74088


@st.composite
def _trees_of_size(draw, n):
    seq = [1]
    for _ in range(n - 1):
        seq.append(draw(st.integers(min_value=2, max_value=seq[-1] + 1)))
    return OrderedTree(seq)


@st.composite
def _co1_triples(draw):
    # Mostly one size up to 12; about a quarter of triples resize one tree.
    n = draw(st.integers(min_value=1, max_value=12))
    sizes = [n, n, n]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        sizes[draw(st.integers(min_value=0, max_value=2))] = draw(
            st.integers(min_value=1, max_value=12)
        )
    return tuple(draw(_trees_of_size(k)) for k in sizes)


@given(_co1_triples())
def test_check_co1_matches_reference_on_drawn_triples(triple):
    assert _co1_outcome(check_co1, *triple) == _co1_outcome(
        _reference_check_co1, *triple
    )


def test_check_co2_window():
    # CO2 is check_co1 over every 3-window of the level being produced.  In
    # these streams no level below 4 has three trees, so no co1 is checked.
    def co2_failures(trees):
        report = VerificationReport(n=4)
        _certify(report, iter(trees), _rank_table(4), bytearray(5))
        assert report.total == len(trees)
        return report.invariant_failures

    window = [T(1, 2, 2, 3), T(1, 2, 2, 2), T(1, 2, 3, 3)]
    assert co2_failures(window) == []
    assert co2_failures([T(1, 2, 2, 3), T(1, 2, 3, 4), T(1, 2, 3, 3)]) == [
        (4, 0, "co2")
    ]
    # Fewer than three trees form no window, so nothing is checked.
    assert co2_failures([T(1, 2, 2, 3), T(1, 2, 3, 4)]) == []


def test_case_hashes_by_identity():
    # Members are singletons, also through copy and pickle, so hashing by
    # identity keys them exactly.
    assert Case.__hash__ is object.__hash__
    for case in Case:
        assert copy.deepcopy(case) is case
        assert pickle.loads(pickle.dumps(case)) is case
        assert Case(case.value) is case


def test_case_counter_histogram_text():
    counts = Counter([Case.C1A] * 3 + [Case.C4B2] * 2 + [Case.LAST])
    counts.update({Case("2b1"): 5})
    assert counts[Case.C2B1] == 5 and counts[Case("4b2")] == 2
    assert Case.C1B not in counts
    # The text format_case_histogram gave while Case hashed through Enum.
    assert format_case_histogram(counts) == (
        "1a           3\n1b           0\n2a1          0\n2a2          0\n"
        "2b1          5\n2b2          0\n2c1          0\n2c2          0\n"
        "3a1          0\n3a2          0\n3b1          0\n3b2          0\n"
        "3c1          0\n3c1_other    0\n3c2          0\n4a1          0\n"
        "4a2          0\n4b1_lt       0\n4b1_eq_rplT  0\n4b1_eq_other 0\n"
        "4b2          2\n4b3          0\nLAST         1"
    )


def test_format_case_histogram_shape():
    text = format_case_histogram({Case.C1A: 3})
    lines = text.splitlines()
    assert len(lines) == 23
    assert lines[0].split() == ["1a", "3"]
    assert lines[-1].split() == ["LAST", "0"]
