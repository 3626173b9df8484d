"""Count the step labels that gray_code(n) selects, for n = 2..N.

Every step of gray_code(n) is a call to plan_step on a consecutive pair of
some level k < n, so the labels of size n come from the streams of sizes
1..n-1 and nothing of size n is built.  The scan runs each level stream
gray_code(k, checked=False) once, carries the leftmost index from step to
step as the generator does, and prints the cumulative histogram for each n
(LAST counts the final tree of each level).  The largest level streamed is
N-1, so N=17 walks the 9,694,845 trees of size 16.

    PYTHONPATH=src python3 scripts/scan_labels.py --max-n 17

Each line also prints the counts of the six labels that
docs/label-reachability.md proves are never selected.
"""
from __future__ import annotations

import argparse
import itertools
import time
from collections import Counter

from treegray import FORBIDDEN_CASES, Case, ForbiddenCaseError, gray_code
from treegray.ordering import plan_step
from treegray.tree import _nodes

NEVER_SELECTED = (
    Case.C1B, Case.C2C1, Case.C2C2, Case.C3C1, Case.C3C2, Case.C4B1_EQ_OTHER
)


def level_labels(k: int) -> Counter:
    """Labels of the steps taken on the size-k stream (one LAST included).
    Stops at a forbidden label, as the generator does."""
    counts: Counter = Counter({Case.LAST: 1})
    lm = 1
    for cur, nxt in itertools.pairwise(gray_code(k, checked=False)):
        case, _, lm = plan_step(*_nodes(cur, nxt), lm)
        counts[case] += 1
        if case in FORBIDDEN_CASES:
            raise ForbiddenCaseError(f"forbidden case {case}: {cur} -> {nxt}")
    return counts


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=14)
    args = parser.parse_args(argv)
    total: Counter = Counter()
    start = time.perf_counter()
    for n in range(2, args.max_n + 1):
        total += level_labels(n - 1)
        seen = " ".join(f"{c.value}={total[c]}" for c in NEVER_SELECTED)
        print(f"n={n:2d} steps={sum(total.values())} {seen} "
              f"[{time.perf_counter() - start:.1f}s]", flush=True)
    print(f"histogram at n={args.max_n}:")
    for case in Case:
        print(f"  {case.value:<12s} {total[case]}")


if __name__ == "__main__":
    main()
