"""Machine check of the arguments in docs/label-reachability.md and
docs/boundary-moves.md.

The first proves by induction over the per-level streams that six step
labels are never selected.  These tests assert, on the real streams, every
statement the induction uses: the tree lemmas F1-F3 on all small trees, and
the stream invariants H1-H6, the table of plan_step results and the sibling
step rules W1-W3 on every consecutive pair of gray_code(k) for k <= 11.
The second proves the rule that gives each block boundary's move from the
move one level down; it is checked at every boundary of every level k <= 11.
"""
import importlib.util
import itertools
from collections import Counter
from pathlib import Path

from treegray import (
    Case,
    Delta,
    OrderedTree,
    StreamStats,
    delta,
    enumerate_all,
    gray_code,
    has_pony_tail,
    is_copying,
)
from treegray.ordering import plan_step
from treegray.tree import _nodes

T = lambda *levels: OrderedTree(levels)


def _desc(r1, *skip):
    # desc(...) of the argument: r1 + 1, r1, ..., 1 without the indices in skip.
    return tuple(i for i in range(r1 + 1, 0, -1) if i not in skip)


def _up(r1, skip):
    # 2, 3, ..., r1 + 1 without skip.
    return tuple(i for i in range(2, r1 + 2) if i != skip)


# Table "Boundaries" of the argument: (child order, next leftmost index) of a
# step with label case, rpls r1 and r2 and leftmost index lm.
TABLE = {
    Case.C1A: lambda r1, r2, lm: ((1, 2), 2),
    Case.C1B: lambda r1, r2, lm: ((2, 1), 1),
    Case.C2A1: lambda r1, r2, lm: ((1, 2), 1),
    Case.C2A2: lambda r1, r2, lm: ((2, 1), 1),
    Case.C2B1: lambda r1, r2, lm: ((1, 2), 2),
    Case.C2B2: lambda r1, r2, lm: ((2, 1), 1),
    Case.C2C1: lambda r1, r2, lm: ((1, 2), 1),
    Case.C2C2: lambda r1, r2, lm: ((2, 1), 1),
    Case.C3A2: lambda r1, r2, lm: ((lm, *_desc(r1, lm, 1), 1), 1),
    Case.C3B1: lambda r1, r2, lm: ((1, 3, 2), 2),
    Case.C3B2: lambda r1, r2, lm: ((lm, *_desc(r1, lm, 1), 1), 1),
    Case.C3C2: lambda r1, r2, lm: ((lm, *_desc(r1, lm, 1), 1), 1),
    Case.C4A1: lambda r1, r2, lm: ((1, *_up(r1, r1), r1), r1),
    Case.C4A2: lambda r1, r2, lm: ((1, *_up(r1, r2), r2), r2),
    Case.C4B1_LT: lambda r1, r2, lm: ((lm, *_desc(r1, lm, 1), 1), r1),
    Case.C4B1_EQ_RPLT: lambda r1, r2, lm: ((*_desc(r1, r1 + 1), r1 + 1), r1 + 1),
    Case.C4B1_EQ_OTHER: lambda r1, r2, lm: ((lm, *_desc(r1, lm, r1), r1), r1),
    Case.C4B2: lambda r1, r2, lm: ((lm, *_desc(r1, lm, r2), r2), r2),
}


def _steps(k):
    """(cur, nxt, lm, case, order, nl) for each consecutive pair of the
    size-k stream, the leftmost index carried from step to step as the
    generator carries it."""
    lm = 1
    for cur, nxt in itertools.pairwise(gray_code(k, checked=False)):
        case, order, nl = plan_step(*_nodes(cur, nxt), lm)
        yield cur, nxt, lm, case, order, nl
        lm = nl


def _invariant_failures(u, v, lm):
    """Names of the invariants H1-H6 that the pair (u, v) with leftmost
    index lm violates."""
    ru, rv = u.rpl, v.rpl
    bad = []
    if ru == rv == 1 and lm != 1:
        bad.append("H1")
    if ru < rv and not (
        is_copying(u, v) if has_pony_tail(v) else is_copying(v, u)
    ):
        bad.append("H2")
    if rv == 1 < ru and has_pony_tail(u) and not is_copying(v, u):
        bad.append("H3")
    if ru == rv >= 2 and lm not in (1, ru):
        bad.append("H4")
    if rv == 1 < ru and lm == 1 and not has_pony_tail(u):
        bad.append("H5")
    if ru > rv >= 2 and lm == rv:
        bad.append("H6")
    return bad


def test_tree_lemmas_on_all_small_trees():
    pony_children = 0
    lifted = 0
    for size in range(2, 8):
        trees = list(enumerate_all(size))
        for t in trees:
            r = t.rpl
            kids = {a: t.child(a) for a in range(1, r + 2)}
            # F1: a child has a pony-tail iff it is child 2 of an rpl-1 tree.
            for a, c in kids.items():
                assert has_pony_tail(c) == (a == 2 and r == 1), (t, a)
                pony_children += has_pony_tail(c)
            # F2: child a copies into child b when b <= a, and child r into
            # child r + 1.
            for a, b in itertools.permutations(kids, 2):
                if b <= a or (a, b) == (r, r + 1):
                    assert is_copying(kids[a], kids[b]), (t, a, b)
        # F3: copying lifts to the children of the pair.
        for x, y in itertools.permutations(trees, 2):
            if is_copying(x, y):
                lifted += 1
                for i in range(1, y.rpl + 2):
                    assert is_copying(x.child(y.rpl), y.child(i)), (x, y, i)
    assert pony_children and lifted


def test_stream_invariants_hold_on_every_level():
    reached = set()
    for k in range(1, 12):
        for cur, nxt, lm, case, order, nl in _steps(k):
            r1, r2 = cur.rpl, nxt.rpl
            reached.add(case)
            assert not _invariant_failures(cur, nxt, lm), (k, cur, nxt, lm)
            # The table, from which the argument reads each order (first,
            # second, second-to-last and last index) and the facts T5 and T6.
            assert (order, nl) == TABLE[case](r1, r2, lm), (k, case, lm)
            # W: the next leftmost index of a step between siblings.
            if cur.parent() == nxt.parent():
                if r1 >= 2 and r2 >= 2:
                    assert nl == min(r1, r2), (k, cur, nxt)
                elif r1 == 1:
                    assert nl == 1 or (
                        nl == 2 and r2 == 2 and cur.parent().rpl == 1
                    ), (k, cur, nxt)
                else:
                    assert nl == 1 or case is Case.C3B1, (k, cur, nxt)
    # The check is not vacuous: every branch the argument keeps is taken.
    assert reached == set(TABLE) - {
        Case.C1B, Case.C2C1, Case.C2C2, Case.C3C2, Case.C4B1_EQ_OTHER
    }


def test_invariants_reject_each_excluded_label():
    # Each never-selected label violates the invariant that excludes it, so
    # a stream that selected one would fail the test above.
    examples = {
        "H1": (T(1, 2, 2, 2), T(1, 2, 3, 2), 2, Case.C1B),
        "H2": (T(1, 2, 2, 2, 3, 2), T(1, 2, 3, 2, 2, 3), 1, Case.C2C1),
        "H3": (T(1, 2, 3, 2, 2, 3), T(1, 2, 2, 2, 3, 2), 2, Case.C3C2),
        "H4": (T(1, 2, 2, 3), T(1, 2, 3, 3), 3, Case.C4B1_EQ_OTHER),
        "H5": (T(1, 2, 3, 3), T(1, 2, 3, 2), 1, Case.C3A1),
        "H6": (T(1, 2, 3, 4), T(1, 2, 3, 3), 2, Case.C4B3),
    }
    for name, (u, v, lm, case) in examples.items():
        got, order, nl = plan_step(*_nodes(u, v), lm)
        assert got is case, name
        assert name in _invariant_failures(u, v, lm), name
        if case in TABLE:
            assert (order, nl) == TABLE[case](u.rpl, v.rpl, lm), name



def _boundary_rule(b, p, last, first):
    """The lemma of docs/boundary-moves.md for the boundary from
    p.child(last) to q.child(first), where b is the canonical move p -> q,
    and the move the lemma gives."""
    k = p.size + 1
    if b.remove_at < k - 1:
        return "A", b
    if last != first or last == p.rpl:
        return "B1", Delta(k, b.insert_at, b.insert_level)
    if last == p.rpl + 1:
        return "B3", Delta(k - 2, b.insert_at, b.insert_level)
    return "B2", b


def test_boundary_moves_follow_the_rule():
    # Level k's boundaries come from the steps of level k - 1; each one's
    # canonical move is the one its lemma derives from the step's move.
    lemmas = Counter()
    for k in range(3, 12):
        for cur, nxt, lm, case, order, nl in _steps(k - 1):
            lemma, m = _boundary_rule(delta(cur, nxt), cur, order[-1], nl)
            last, first = cur.child(order[-1]), nxt.child(nl)
            assert delta(last, first) == m, (k, cur, nxt, case, lemma)
            lemmas[lemma] += 1
            # D5 of the argument: a 2b1 step joins siblings.
            if case is Case.C2B1:
                assert cur.parent() == nxt.parent(), (k, cur, nxt)
    # The check is not vacuous: every lemma's case occurs.
    assert set(lemmas) == {"A", "B1", "B2", "B3"}


def test_label_scan_matches_stream_stats():
    # scripts/scan_labels.py counts the labels of size n from the streams of
    # sizes below n; its totals are those the generator itself counts.
    path = Path(__file__).resolve().parents[1] / "scripts" / "scan_labels.py"
    spec = importlib.util.spec_from_file_location("scan_labels", path)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    total = Counter()
    for n in range(2, 10):
        total += scan.level_labels(n - 1)
        stats = StreamStats()
        for _ in gray_code(n, checked=False, stats=stats):
            pass
        assert total == stats.case_counts, n
