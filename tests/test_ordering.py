"""Step rules: classification, child orders, and the window invariants."""
import itertools

import pytest

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
from treegray.oracle import VerificationReport, _windowed
from treegray.ordering import plan_last, plan_step


T = lambda *levels: OrderedTree(levels)


def test_case_labels_complete():
    assert len(Case) == 23
    assert {c.value for c in FORBIDDEN_CASES} == {"3a1", "3c1_other", "4b3"}
    assert str(Case.C4B1_EQ_RPLT) == "4b1_eq_rplT"


def test_classify_examples():
    assert plan_step(T(1, 2, 2), T(1, 2, 3), 1)[0] is Case.C2B1
    assert plan_step(T(1, 2, 3, 4), T(1, 2, 3, 3), 1)[0] is Case.C4A2
    # Mutual copying resolves to 3b1: subcases are tried in listing order.
    assert plan_step(T(1, 2, 3), T(1, 2, 2), 1)[0] is Case.C3B1
    assert plan_step(T(1, 2, 2, 2), T(1, 2, 3, 2), 2)[0] is Case.C1B


def test_classify_forbidden_raises(monkeypatch):
    # Forbidden labels come back with an empty order for the caller to count.
    assert plan_step(T(1, 2, 3, 3), T(1, 2, 3, 2), 1) == (Case.C3A1, (), 0)
    assert plan_step(T(1, 2, 3, 4), T(1, 2, 3, 3), 2) == (Case.C4B3, (), 0)
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
    assert plan_step(T(1, 2, 2), T(1, 2, 3), 1) == (Case.C2B1, (1, 2), 2)


def test_step_case_1b_orders_leftmost_first():
    assert plan_step(T(1, 2, 2, 2), T(1, 2, 3, 2), 2) == (Case.C1B, (2, 1), 1)
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
    case, order, nl = plan_step(cur, nxt, lm)
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
                assert plan_step(cur, nxt, lm)[0] is not Case.C3C1
            if nxt.rpl == 1 and has_pony_tail(cur) and is_copying(cur, nxt):
                mutual = is_copying(nxt, cur)
                case = plan_step(cur, nxt, 1)[0]
                assert case is (Case.C3B1 if mutual else Case.C3C1_OTHER)
                seen.add(mutual)
    assert seen == {True, False}


def test_step_decision_invariants_over_full_runs():
    # Walk every real step for sizes up to 8 and re-check the contract.
    for n in range(3, 9):
        trees = list(gray_code(n))
        leftmost = trees[0].child(1)
        for cur, nxt in itertools.pairwise(trees):
            case, order, nl = plan_step(cur, nxt, leftmost.rpl)
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
    assert plan_last(T(1, 2, 3), 2) == (2, 3, 1)
    assert plan_last(T(1, 2), 1) == (1, 2)
    assert plan_last(T(1), 1) == (1,)


def test_finalize_last_decreasing_rpl_tail():
    assert plan_last(T(1, 2, 3, 4), 2) == (2, 4, 3, 1)


def test_check_co1_examples():
    assert check_co1(T(1, 2, 2, 2), T(1, 2, 2, 3), T(1, 2, 3, 3))
    assert check_co1(T(1, 2, 2, 2), T(1, 2, 2, 3), T(1, 2, 3, 2))
    assert not check_co1(T(1, 2, 2, 2), T(1, 2, 3, 3), T(1, 2, 3, 2))
    # Equal outer rpls of at least 2 force a smaller middle rpl.
    assert check_co1(T(1, 2, 2, 3), T(1, 2, 2, 2), T(1, 2, 3, 3))
    assert not check_co1(T(1, 2, 2, 3), T(1, 2, 3, 4), T(1, 2, 3, 3))


def test_check_co1_requires_same_size():
    with pytest.raises(ValueError):
        check_co1(T(1, 2), T(1, 2, 2), T(1, 2, 3))


def test_check_co2_window():
    # CO2 is check_co1 over every 3-window of the level being produced.
    def co2_failures(trees):
        report = VerificationReport(n=4)
        assert list(_windowed(report, 4, "co2", trees)) == trees
        return report.invariant_failures

    window = [T(1, 2, 2, 3), T(1, 2, 2, 2), T(1, 2, 3, 3)]
    assert co2_failures(window) == []
    assert co2_failures([T(1, 2, 2, 3), T(1, 2, 3, 4), T(1, 2, 3, 3)]) == [
        (4, 0, "co2")
    ]
    # Fewer than three trees form no window, so nothing is checked.
    assert co2_failures([T(1, 2, 2, 3), T(1, 2, 3, 4)]) == []


def test_format_case_histogram_shape():
    text = format_case_histogram({Case.C1A: 3})
    lines = text.splitlines()
    assert len(lines) == 23
    assert lines[0].split() == ["1a", "3"]
    assert lines[-1].split() == ["LAST", "0"]
