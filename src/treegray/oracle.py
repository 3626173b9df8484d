"""Brute-force ground truth for the generator.

Everything here is independent of the step rules: trees are ranked and
enumerated in the lexicographic order of level sequences, counts come from
the Catalan formula, and adjacency is certified by replay.  verify() reads
the generator's checked move stream of level n, once, and certifies it in
one loop (_certify), which uses nothing from the generator: it keeps one
mutable level list, replays each move in place with apply_delta's checks,
so that every step removes a leaf and inserts one, and updates the
lexicographic rank over the positions the move changes.  Level k + 1 read
in order is the concatenation of level k's child blocks, so each level
k < n is the stream of level n's distinct consecutive k-prefixes; the same
loop checks the window invariant on every level, co1 below n and co2 at n,
on the prefixes that drove level n.  Only the first tree, or a tree
record anywhere in the stream, is ranked in full and checked with
relations.is_adjacent, which replays the move the O(n) search
relations._move finds and compares the result with the second tree; the
generator never runs that search.  verify() stores no trees: one byte per
lexicographic rank (ballot-number ranking, Zaks 1980) marks the trees
seen, so unique and complete are "no byte set twice" and "no byte left at
zero", and only a byte left at zero makes the lexicographic successor walk
run, to name the missing trees.  verify() runs the generator with its
defensive checks on and reports every deviation instead of raising, so a
broken build still produces a readable report.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Union

from .generator import StreamStats, gray_code
from .ordering import FORBIDDEN_CASES, format_case_histogram
from .ordering import check_co1  # noqa: F401  (bench/tracer.py wraps it)
from .relations import Delta, _replay_in_place, has_pony_tail, is_adjacent, is_copying
from .tree import OrderedTree, _check_size

def catalan(m: int) -> int:
    """The m-th Catalan number, binom(2m, m) / (m + 1), exactly."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    return math.comb(2 * m, m) // (m + 1)


def _successors(n: int) -> Iterator[tuple[int, ...]]:
    # Lexicographic walk: bump the rightmost entry that is below its bound
    # (one more than its predecessor), reset the tail to all twos.
    seq = [1] + [2] * (n - 1)
    while True:
        yield tuple(seq)
        j = n - 1
        while j >= 1 and seq[j] == seq[j - 1] + 1:
            j -= 1
        if j < 1:
            return
        seq[j] += 1
        for i in range(j + 1, n):
            seq[i] = 2
    # The walk terminates at (1,2,3,...,n), the lexicographic maximum.


def _rank_table(n: int) -> list[list[Optional[int]]]:
    """table[i][v]: the size-n level sequences that agree with a given one
    before position i and have an entry below v there.

    Row i is indexed by the level itself and holds a count only where a
    level sequence can hold v: 2 to i + 1 at a 0-based position i >= 1, and
    1 at the root; lower indices hold None.  The count is the number of ways
    to complete the sequence after each entry w from 2 to v - 1, so summing
    one entry per position gives the position of a sequence in the
    lexicographic order of enumerate_all.
    """
    # tails[w]: the ways to fill the positions after i when position i holds
    # w; the entry after w is any x from 2 to w + 1.
    tails = [1] * (n + 1)
    table: list[list[Optional[int]]] = []
    for i in range(n - 1, 0, -1):
        table.append([None, None, *accumulate(tails[2 : i + 1], initial=0)])
        tails = list(accumulate(tails[2:], initial=0))
    table.append([None, 0])
    table.reverse()
    return table


def _rank(levels: tuple[int, ...], table: list[list[Optional[int]]]) -> Optional[int]:
    """The position of levels in enumerate_all(len(table)), or None if levels
    is not a level sequence of that size: wrong length, a root other than 1,
    an entry below 2, or an entry more than one above the one before it."""
    if len(levels) != len(table):
        return None
    rank = 0
    prev = 0
    try:
        for row, v in zip(table, levels):
            if not 0 < v <= prev + 1:
                return None
            rank += row[v]  # TypeError: None, a level 1 below the root
            prev = v
    except TypeError:
        return None
    return rank


def enumerate_all(n: int) -> Iterator[OrderedTree]:
    """All ordered trees with n vertices, streamed in lexicographic
    level-sequence order."""
    _check_size(n, 1)
    return map(OrderedTree._trusted, _successors(n))


class VerificationReport:
    """Outcome of one full verification run.

    Index pairs in adjacency_failures are 0-based positions into the emitted
    sequence; invariant_failures entries are (level, 0-based window start,
    "co1" or "co2"), with the window start counted in that level's stream,
    listed by the record that completes the window and, for one record,
    level n first and then the lower levels upwards.  generation_error
    captures an exception raised by the generator itself, which also fails
    the report.
    """

    # A plain class, as generator.StreamStats is: dataclasses would bring
    # inspect, ast, dis and tokenize onto every run's import path.
    def __init__(
        self,
        n: int,
        total: int = 0,
        duplicates: Optional[list[OrderedTree]] = None,
        missing: Optional[list[OrderedTree]] = None,
        adjacency_failures: Optional[list[tuple[int, int]]] = None,
        invariant_failures: Optional[list[tuple[int, int, str]]] = None,
        case_histogram: Optional[Counter] = None,
        generation_error: Optional[str] = None,
    ):
        self.n = n
        self.total = total
        self.duplicates = [] if duplicates is None else duplicates
        self.missing = [] if missing is None else missing
        self.adjacency_failures = (
            [] if adjacency_failures is None else adjacency_failures
        )
        self.invariant_failures = (
            [] if invariant_failures is None else invariant_failures
        )
        self.case_histogram = Counter() if case_histogram is None else case_histogram
        self.generation_error = generation_error

    @property
    def expected(self) -> int:
        return catalan(self.n - 1)

    @property
    def forbidden_case_hits(self) -> int:
        return sum(self.case_histogram[case] for case in FORBIDDEN_CASES)

    @property
    def passed(self) -> bool:
        return (
            self.total == self.expected
            and not self.duplicates
            and not self.missing
            and not self.adjacency_failures
            and not self.invariant_failures
            and self.forbidden_case_hits == 0
            and self.generation_error is None
        )

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} n={self.n} total={self.total} expected={self.expected} "
            f"duplicates={len(self.duplicates)} missing={len(self.missing)} "
            f"adjacency_failures={len(self.adjacency_failures)} "
            f"invariant_failures={len(self.invariant_failures)} "
            f"forbidden_case_hits={self.forbidden_case_hits}"
        )

    def render(self) -> str:
        lines = [self.summary_line()]
        if self.generation_error is not None:
            lines.append(f"generation error: {self.generation_error}")
        for t in self.duplicates[:10]:
            lines.append(f"duplicate: {t}")
        for t in self.missing[:10]:
            lines.append(f"missing: {t}")
        for i, j in self.adjacency_failures[:10]:
            lines.append(f"not adjacent: positions {i},{j}")
        for level, idx, which in self.invariant_failures[:10]:
            lines.append(f"{which} violated: level {level}, window {idx}")
        lines.append("case histogram:")
        lines.extend(
            "  " + line
            for line in format_case_histogram(self.case_histogram).splitlines()
        )
        return "\n".join(lines) + "\n"


def _certify(
    report: VerificationReport,
    records: Iterable[Union[OrderedTree, Delta]],
    table: list[list[Optional[int]]],
    seen: bytearray,
) -> None:
    """Check a stream of size-n records in one pass, setting seen[rank] for
    each and recording every deviation, the total and any error in report.

    One mutable level list holds the current tree.  A tree record is ranked
    in full and checked against the record before it with is_adjacent.  A
    Delta is replayed in place with apply_delta's checks, which makes the
    step a leaf removal and a leaf insertion, so it is a Gray step unless it
    leaves the tree unchanged.  It changes only the entries from
    min(remove_at, insert_at) to max(...), and the rank is a sum over
    positions, so only that window is re-ranked.  A record is a new tree at
    level n, and at each level k above its lowest changed position.  Each
    level's window check reads the last entries of its three latest trees,
    as check_co1 reads them; only the window whose outer trees have rpl 1
    and whose middle one does not needs whole trees, the k-prefixes of the
    record and of the one before, rebuilt by undoing the move.  A record
    with no rank, or a move that does not replay, ends the run as the
    report's generation error.
    """
    n = report.n
    cur: list[int] = []
    rank = total = 0
    # Per level k: the last entries of its two trees before the latest, and
    # its tree count; reached[d]: the levels a change at position d gives a
    # new tree, level n first.
    ea, eb, count = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    reached = [(n, *range(d + 1, n)) for d in range(n + 1)]
    try:
        for pos, c in enumerate(records):
            if isinstance(c, Delta):
                r, p, _ = c
                lo, hi = (r - 1, p) if r < p else (p - 1, r)
                old = cur[lo:hi]
                try:
                    _replay_in_place(cur, c)
                except ValueError as exc:
                    if pos:
                        report.adjacency_failures.append((pos - 1, pos))
                    report.generation_error = f"record {pos} does not replay: {exc}"
                    break
                for i in range(lo, hi):
                    rank += table[i][cur[i]] - table[i][old[i - lo]]
            else:
                rank = _rank(c.levels, table)
                if rank is None:
                    report.generation_error = (
                        f"record {pos} is not a tree with {n} vertices: {c}"
                    )
                    break
                lo, hi, old, cur = 0, n, cur, list(c.levels)
                if pos and not is_adjacent(OrderedTree._trusted(tuple(old)), c):
                    report.adjacency_failures.append((pos - 1, pos))
            d = lo  # the lowest changed position; 0 for the first record
            while pos and d < hi and cur[d] == old[d - lo]:
                d += 1
            if d == hi:  # equal trees are not adjacent
                if isinstance(c, Delta):  # is_adjacent flagged a tree record
                    report.adjacency_failures.append((pos - 1, pos))
                d = n
            if seen[rank]:
                report.duplicates.append(OrderedTree._trusted(tuple(cur)))
            seen[rank] = 1
            for k in reached[d]:
                a, b, ec = ea[k], eb[k], cur[k - 1]
                if count[k] >= 2:
                    if a == 2 == ec and b > 2:
                        back = cur[:lo] + old + cur[hi:]  # undo the move
                        mid = OrderedTree._trusted(tuple(back[:k]))
                        third = OrderedTree._trusted(tuple(cur[:k]))
                        held = has_pony_tail(mid) and is_copying(third, mid)
                    else:
                        held = not (a == ec >= 3 and a <= b)
                    if not held:
                        which = "co1" if k < n else "co2"
                        report.invariant_failures.append((k, count[k] - 2, which))
                ea[k], eb[k] = b, ec
                count[k] += 1
            total = pos + 1
    except (RuntimeError, ValueError) as exc:
        report.generation_error = f"{type(exc).__name__}: {exc}"
    report.total = total


def verify(n: int) -> VerificationReport:
    """Run the generator under full instrumentation and report all deviations.

    Every run checks each consecutive pair for adjacency (gray), the trees
    for repeats (unique) and omissions (complete), the window invariant over
    level n (co2) and the levels below it (co1), and the case labels.  The
    generator runs once: its checked move stream of level n is certified
    record by record (_certify).  Its first tree is ranked in full, and each
    move after it is replayed in place and re-ranked over the positions it
    changes, so _rank runs once.  co1 is checked on the level-n stream's
    k-prefixes for each k < n, the trees that drove level n.  Failures are
    recorded, never raised, in the order of VerificationReport's
    invariant_failures.  n is checked before the run, so a ValueError in it
    is a generator fault too, such as a child index out of range.
    """
    _check_size(n, 1)
    report = VerificationReport(n=n)
    seen = bytearray(report.expected)
    stats = StreamStats()
    records = gray_code(n, checked=True, moves=True, stats=stats)
    _certify(report, records, _rank_table(n), seen)
    report.case_histogram = Counter(stats.case_counts)
    if report.generation_error is None and 0 in seen:
        walk = zip(enumerate_all(n), seen)
        report.missing.extend(t for t, hit in walk if not hit)
    return report
