"""Acceptance gate: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 6 asks for the labels the construction can reach.  Six labels
(1b, 2c1, 2c2, 3c1, 3c2, 4b1_eq_other) are never selected at any size: the
induction in docs/label-reachability.md proves it, and
tests/test_reachability.py checks its lemmas.  The criterion requires every
other non-forbidden label to occur at n=10 and fails if any of the six
occurs at any n up to 12, so a wrong argument turns it red.

Criterion 9 measures the streaming promise: between yields of the n=14 run
it counts the OrderedTree objects and the family-tree nodes (tree.Node)
alive per size with gc.get_objects(), leaving out those alive before the
run, so a stack that kept its trees would fail it.
"""
import gc
import time
from collections import Counter

import pytest

from treegray import (
    Case,
    FORBIDDEN_CASES,
    OrderedTree,
    StreamStats,
    apply_delta,
    catalan,
    delta_stream,
    enumerate_all,
    format_case_histogram,
    gray_code,
    has_pony_tail,
    is_adjacent,
    is_copying,
    verify,
)
from treegray.tree import Node


def _line(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def reports():
    # Full verification (all checks) for every size up to 12.
    return {n: verify(n) for n in range(1, 13)}


# Records between two counts of the live trees in the n=14 run.
HELD_STRIDE = 9973


def _live(kind, skip):
    # Objects of type kind alive now, per size, other than those keyed in
    # skip.
    held = Counter()
    for obj in gc.get_objects():
        if type(obj) is kind and id(obj) not in skip:
            held[obj.size] += 1
    return held


@pytest.fixture(scope="session")
def run14():
    # One checked n=14 run with instrumentation plus the brute-force
    # adjacency re-check of every consecutive pair, and the peak number of
    # live trees and nodes per size it reached, from counts taken every
    # HELD_STRIDE records.  The objects alive before the run (other tests'
    # module-level trees) are kept referenced in `before`, so no id of
    # theirs is reused.
    kinds = (OrderedTree, Node)
    before = {id(o): o for o in gc.get_objects() if type(o) in kinds}
    held, nodes = Counter(), Counter()
    counting = 0.0
    stats = StreamStats()
    start = time.perf_counter()
    prev = None
    failures = 0
    total = 0
    for t in gray_code(14, stats=stats):
        if prev is not None and not is_adjacent(prev, t):
            failures += 1
        prev = t
        total += 1
        if total % HELD_STRIDE == 1:
            tick = time.perf_counter()
            for live, kind in ((held, OrderedTree), (nodes, Node)):
                for size, count in _live(kind, before).items():
                    live[size] = max(live[size], count)
            counting += time.perf_counter() - tick
    elapsed = time.perf_counter() - start - counting
    return {
        "stats": stats,
        "held": held,
        "nodes": nodes,
        "elapsed": elapsed,
        "total": total,
        "adjacency_failures": failures,
    }


@pytest.fixture(scope="session")
def gray13_adjacency_failures():
    failures = 0
    prev = None
    for t in gray_code(13):
        if prev is not None and not is_adjacent(prev, t):
            failures += 1
        prev = t
    return failures


@pytest.fixture(scope="session")
def stats7():
    stats = StreamStats()
    for _ in gray_code(7, stats=stats):
        pass
    return stats


def test_criterion_01_counting():
    expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
    start = time.perf_counter()
    counts = [sum(1 for _ in gray_code(n, checked=False)) for n in range(1, 13)]
    elapsed = time.perf_counter() - start
    ok = (
        counts == expected
        and counts == [catalan(n - 1) for n in range(1, 13)]
        and elapsed < 10.0
    )
    _line(1, ok, f"emitted counts n=1..12 exact, {elapsed:.2f}s (budget 10s)")
    assert ok, (counts, elapsed)


def test_criterion_02_gray_property(reports, run14, gray13_adjacency_failures):
    small_ok = all(not reports[n].adjacency_failures for n in range(1, 13))
    ok = (
        small_ok
        and gray13_adjacency_failures == 0
        and run14["adjacency_failures"] == 0
        and run14["total"] == catalan(13)
        and run14["elapsed"] < 120.0
    )
    _line(
        2,
        ok,
        f"all consecutive pairs adjacent n=1..14; n=14 ({run14['total']} trees) "
        f"in {run14['elapsed']:.1f}s (budget 120s)",
    )
    assert ok


def test_criterion_03_complete_and_unique(reports):
    bad = [
        n
        for n in range(1, 13)
        if reports[n].duplicates
        or reports[n].missing
        or reports[n].total != reports[n].expected
    ]
    ok = not bad
    _line(3, ok, f"n=1..12 emit each tree exactly once; mismatches: {bad or 'none'}")
    assert ok, [reports[n].summary_line() for n in bad]


def test_criterion_04_window_invariants(reports):
    bad = [n for n in range(1, 13) if reports[n].invariant_failures]
    ok = not bad
    _line(4, ok, "co1/co2 hold on every 3-window at every level, n=1..12")
    assert ok, [reports[n].invariant_failures[:3] for n in bad]


def test_criterion_05_forbidden_cases_never_fire(reports):
    hits = sum(reports[n].forbidden_case_hits for n in range(1, 13))
    errors = [n for n in range(1, 13) if reports[n].generation_error]
    ok = hits == 0 and not errors
    _line(5, ok, f"forbidden-case hits across n=1..12: {hits}")
    assert ok


# Labels that no step selects at any size, by the reachability argument in
# docs/label-reachability.md (1b: H1, 2c1/2c2: H2, 3c2: H3, 4b1_eq_other: H4;
# no branch of plan_step returns 3c1).
UNREACHABLE_CASES = frozenset(
    {
        Case.C1B,
        Case.C2C1,
        Case.C2C2,
        Case.C3C1,
        Case.C3C2,
        Case.C4B1_EQ_OTHER,
    }
)


def test_criterion_06_case_coverage(reports):
    report = reports[10]
    boundary_ok = (
        report.generation_error is None and not report.adjacency_failures
    )
    excused = {Case.C4B1_LT, Case.C4B1_EQ_RPLT, Case.C4B1_EQ_OTHER}
    required = [
        c
        for c in Case
        if c not in FORBIDDEN_CASES
        and c not in excused
        and c not in UNREACHABLE_CASES
    ]
    missing = [c.value for c in required if report.case_histogram.get(c, 0) == 0]
    reached = sorted(
        {
            c.value
            for n in range(1, 13)
            for c in UNREACHABLE_CASES
            if reports[n].case_histogram.get(c, 0)
        }
    )
    print("n=10 case histogram:")
    print(format_case_histogram(report.case_histogram))
    ok = boundary_ok and not missing and not reached
    _line(
        6,
        ok,
        "boundary pairs all adjacent; "
        f"reachable labels never selected at n=10: {', '.join(missing) or 'none'}; "
        f"unreachable labels selected at n<=12: {', '.join(reached) or 'none'}",
    )
    assert ok, (
        f"missing at n=10: {missing}; selected although proved unreachable "
        f"(docs/label-reachability.md): {reached}"
    )


def test_criterion_07_copying_propagates_to_children():
    # For same-size pairs with rpl(T) = 1 and T' copying T, the leftmost
    # child of T' must copy child(T, 2); check both pony-tail shapes of T'.
    counterexamples = []
    instances = {True: 0, False: 0}
    for n in range(3, 9):
        trees = list(enumerate_all(n))
        lows = [t for t in trees if t.rpl == 1]
        for t in lows:
            conclusion_target = t.child(2)
            for u in trees:
                if u != t and is_copying(u, t):
                    instances[has_pony_tail(u)] += 1
                    if not is_copying(u.child(1), conclusion_target):
                        counterexamples.append((u, t))
    ok = not counterexamples and all(v > 0 for v in instances.values())
    _line(
        7,
        ok,
        f"sizes<=8: {instances[True]} pony + {instances[False]} plain "
        f"instances, {len(counterexamples)} counterexamples",
    )
    assert ok, counterexamples[:5]


def test_criterion_08_delta_replay():
    def is_leaf(tree, pos):
        return pos == tree.size - 1 or tree.levels[pos + 1] <= tree.levels[pos]

    bad = []
    for n in range(2, 13):
        trees = list(gray_code(n, checked=False))
        cur = trees[0]
        replayed = [cur]
        for d in delta_stream(n, checked=False):
            nxt = apply_delta(cur, d)
            if not is_leaf(cur, d.remove_at - 1):
                bad.append((n, d, "removed entry was not a leaf"))
            if not is_leaf(nxt, d.insert_at - 1):
                bad.append((n, d, "inserted entry is not a leaf"))
            replayed.append(nxt)
            cur = nxt
        if replayed != trees:
            bad.append((n, None, "replay diverged"))
    ok = not bad
    _line(8, ok, "deltas replay n=2..12, each removes and inserts one leaf")
    assert ok, bad[:5]


def test_criterion_09_streaming_contract(run14, stats7):
    stats, held, nodes = run14["stats"], run14["held"], run14["nodes"]
    peak = max(held.values())
    total_held = sum(held.values())
    node_peak = max(nodes.values())
    per_tree_14 = stats.vertex_writes / run14["total"]
    per_tree_7 = stats7.vertex_writes / stats7.emitted[7]
    # Writes per tree grow linearly in n: 9.4 at n=7 and 18.0 at n=14, so
    # 1.34 and 1.29 per vertex, nearly all of it the records themselves.  A
    # quarter of margin keeps the bound at 23.5.
    budget = 1.25 * (14 / 7) * per_tree_7
    # The budget moves with the n=7 figure, so a regression by the same
    # factor at every size passes it (building each sibling twice did).  The
    # cap pins n=14 itself: 18.93 plus 10%, measured when the stack held
    # tuples.  vertex_writes counts one entry per family-tree node and every
    # entry of each OrderedTree built: the records and each block's parent.
    cap = 20.8
    # The stack holds at most 4 live nodes of any size (Node.child shares
    # the chain above each new node).
    ok = (
        peak <= 3
        and total_held <= 3 * 14
        and node_peak <= 4
        and per_tree_14 <= budget
        and per_tree_14 <= cap
    )
    _line(
        9,
        ok,
        f"live trees <=3 per size (peak {peak}, sum {total_held}<={3 * 14}); "
        f"live nodes <=4 per size (peak {node_peak}, sum {sum(nodes.values())}); "
        f"writes/tree {per_tree_14:.1f} within budget {budget:.1f} "
        f"and cap {cap}",
    )
    assert ok, (dict(held), dict(nodes))


def test_criterion_10_regression_snapshot():
    got = [t.levels for t in gray_code(4)]
    want = [
        (1, 2, 2, 2),
        (1, 2, 2, 3),
        (1, 2, 3, 3),
        (1, 2, 3, 4),
        (1, 2, 3, 2),
    ]
    ok = got == want
    _line(10, ok, "gray_code(4) matches the pinned sequence")
    assert ok, got
