"""Brute-force ground truth for the generator.

Everything here is independent of the step rules: trees are ranked and
enumerated in the lexicographic order of level sequences, counts come from
the Catalan formula, and adjacency is re-checked with relations.is_adjacent.
That check certifies its answer: two children of one tree are adjacent when
they differ, and for any other pair the move the O(n) search relations._move
finds is replayed with apply_delta and compared with the second tree.  The
generator never runs that search.  verify() stores no trees: one byte
per lexicographic rank (ballot-number ranking, Zaks 1980) marks the trees
seen, so unique and complete are "no byte set twice" and "no byte left at
zero", and only a byte left at zero makes the lexicographic successor walk
run, to name the missing trees.  verify() runs the generator with its
defensive checks on, checks each record in one loop (rank, co2 window,
adjacency) and reports every deviation instead of raising, so a broken
build still produces a readable report.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate
from typing import Iterable, Iterator, Optional

from .generator import StreamStats, gray_code
from .ordering import FORBIDDEN_CASES, check_co1, format_case_histogram
from .relations import is_adjacent
from .tree import OrderedTree

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


def _rank_table(n: int) -> list[dict[int, int]]:
    """table[i][v]: the size-n level sequences that agree with a given one
    before position i and have an entry below v there.

    v is a key of table[i] only where a level sequence can hold it: 2 to
    i + 1 at a 0-based position i >= 1, and 1 at the root.  The count is
    the number of ways to complete the sequence after each entry w from 2 to
    v - 1, so summing one entry per position gives the position of a
    sequence in the lexicographic order of enumerate_all.
    """
    # tails[w]: the ways to fill the positions after i when position i holds
    # w; the entry after w is any x from 2 to w + 1.
    tails = [1] * (n + 1)
    table = []
    for i in range(n - 1, 0, -1):
        below = accumulate(tails[2 : i + 1], initial=0)
        table.append(dict(zip(range(2, i + 2), below)))
        tails = list(accumulate(tails[2:], initial=0))
    table.append({1: 0})
    table.reverse()
    return table


def _rank(levels: tuple[int, ...], table: list[dict[int, int]]) -> Optional[int]:
    """The position of levels in enumerate_all(len(table)), or None if levels
    is not a level sequence of that size: wrong length, a root other than 1,
    an entry below 2, or an entry more than one above the one before it."""
    if len(levels) != len(table):
        return None
    rank = 0
    prev = 0
    try:
        for row, v in zip(table, levels):
            if v > prev + 1:
                return None
            rank += row[v]  # KeyError: a level no position can hold
            prev = v
    except KeyError:
        return None
    return rank


def enumerate_all(n: int) -> Iterator[OrderedTree]:
    """All ordered trees with n vertices, streamed in lexicographic
    level-sequence order."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return map(OrderedTree._trusted, _successors(n))


class VerificationReport:
    """Outcome of one full verification run.

    Index pairs in adjacency_failures are 0-based positions into the emitted
    sequence; invariant_failures entries are (level, 0-based window start,
    "co1" or "co2").  generation_error captures an exception raised by the
    generator itself, which also fails the report.
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


def _windowed(
    report: VerificationReport, level: int, which: str, trees: Iterable[OrderedTree]
) -> Iterator[OrderedTree]:
    """Pass trees through, recording (level, 0-based start, which) for every
    3-window of consecutive trees that fails check_co1."""
    a = b = None
    for pos, c in enumerate(trees):
        if pos >= 2 and not check_co1(a, b, c):
            report.invariant_failures.append((level, pos - 2, which))
        a, b = b, c
        yield c


def _co1_sweep(report: VerificationReport, n: int) -> None:
    # The invariant over the levels that drive the steps; the produced level
    # is covered by the co2 pass over the main run.
    for k in range(1, n):
        try:
            for _ in _windowed(report, k, "co1", gray_code(k, checked=False)):
                pass
        except (RuntimeError, ValueError) as exc:
            report.generation_error = f"{type(exc).__name__}: {exc}"
            return


def verify(n: int) -> VerificationReport:
    """Run the generator under full instrumentation and report all deviations.

    Every run checks each consecutive pair for adjacency (gray), the trees
    for repeats (unique) and omissions (complete), the window invariant over
    level n (co2) and the levels below it (co1), and the case labels.  One
    loop over the checked run ranks and marks each record, then checks the
    co2 window it closes and its adjacency to the record before it.  A
    record with no rank ends the run as the report's generation error, before
    any check that assumes a tree of size n sees it.  Failures are recorded,
    never raised.  n is checked before the run, so a ValueError in it is a
    generator fault too (a broken step rule can hand OrderedTree.child an
    index out of range).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    report = VerificationReport(n=n)
    table = _rank_table(n)
    seen = bytearray(report.expected)
    stats = StreamStats()
    # a, b: the two records before c, so (a, b, c) is the co2 window and
    # (b, c) the pair checked for adjacency.  total counts the records whose
    # checks all ran.
    a = b = None
    total = 0
    try:
        for pos, c in enumerate(gray_code(n, checked=True, stats=stats)):
            rank = _rank(c.levels, table)
            if rank is None:
                report.generation_error = (
                    f"record {pos} is not a tree with {n} vertices: {c}"
                )
                break
            if seen[rank]:
                report.duplicates.append(c)
            seen[rank] = 1
            if pos >= 2 and not check_co1(a, b, c):
                report.invariant_failures.append((n, pos - 2, "co2"))
            if pos and not is_adjacent(b, c):
                report.adjacency_failures.append((pos - 1, pos))
            a, b = b, c
            total = pos + 1
    except (RuntimeError, ValueError) as exc:
        report.generation_error = f"{type(exc).__name__}: {exc}"
    report.total = total
    report.case_histogram = Counter(stats.case_counts)
    if report.generation_error is None:
        if 0 in seen:
            walk = zip(enumerate_all(n), seen)
            report.missing.extend(t for t, hit in walk if not hit)
        _co1_sweep(report, n)
    return report
