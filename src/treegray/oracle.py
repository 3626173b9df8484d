"""Brute-force ground truth for the generator.

Everything here is independent of the step rules: trees are enumerated by
taking lexicographic successors of level sequences, counts come from the
Catalan formula, and adjacency is re-checked with relations.is_adjacent.
That check certifies its answer rather than trusting the O(n) search
relations._move that the generator's proof of each block boundary also runs:
two children of one tree are adjacent when they differ, and for any other
pair the search's move is replayed with apply_delta and compared with the
second tree.  A _move that returned a move for a non-adjacent pair would
fool the generator but not this check.  The enumeration is streamed, so
the set of emitted level sequences that verify() keeps is the one stored
copy of the trees.  verify() runs the generator with its defensive checks on
and reports every deviation instead of raising, so a broken build still
produces a readable report.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .generator import StreamStats, gray_code
from .ordering import FORBIDDEN_CASES, check_co1, format_case_histogram
from .relations import is_adjacent
from .tree import OrderedTree

# verify() stores every emitted level sequence, Catalan(n-1) of them.
ENUMERATION_CAP = 14

ALL_CHECKS = ("gray", "unique", "complete", "co1", "co2", "cases")


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


def enumerate_all(n: int) -> Iterator[OrderedTree]:
    """All ordered trees with n vertices, streamed in lexicographic
    level-sequence order."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return map(OrderedTree._trusted, _successors(n))


@dataclass
class VerificationReport:
    """Outcome of one full verification run.

    Index pairs in adjacency_failures are 0-based positions into the emitted
    sequence; invariant_failures entries are (level, 0-based window start,
    "co1" or "co2").  generation_error captures an exception raised by the
    generator itself, which also fails the report.
    """

    n: int
    checks: tuple[str, ...]
    total: int = 0
    expected: int = 0
    duplicates: list[OrderedTree] = field(default_factory=list)
    missing: list[OrderedTree] = field(default_factory=list)
    adjacency_failures: list[tuple[int, int]] = field(default_factory=list)
    invariant_failures: list[tuple[int, int, str]] = field(default_factory=list)
    case_histogram: Counter = field(default_factory=Counter)
    forbidden_case_hits: int = 0
    generation_error: Optional[str] = None

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
        if "cases" in self.checks:
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


def _checked_run(
    report: VerificationReport,
    n: int,
    selected: tuple[str, ...],
    stats: Optional[StreamStats],
) -> None:
    want_seen = "unique" in selected or "complete" in selected
    want_gray = "gray" in selected
    seen: set[tuple[int, ...]] = set()
    prev: Optional[OrderedTree] = None
    pos = 0
    trees = gray_code(n, checked=True, stats=stats)
    if "co2" in selected:
        trees = _windowed(report, n, "co2", trees)
    try:
        for t in trees:
            if want_seen:
                if t.levels in seen:
                    report.duplicates.append(t)
                else:
                    seen.add(t.levels)
            if want_gray and prev is not None and not is_adjacent(prev, t):
                report.adjacency_failures.append((pos - 1, pos))
            prev = t
            pos += 1
    except RuntimeError as exc:
        report.generation_error = f"{type(exc).__name__}: {exc}"
    report.total = pos
    if "complete" in selected and report.generation_error is None:
        for t in enumerate_all(n):
            if t.levels not in seen:
                report.missing.append(t)


def _co1_sweep(report: VerificationReport, n: int) -> None:
    # The invariant over the levels that drive the steps; the produced level
    # is covered by the co2 pass over the main run.
    for k in range(1, n):
        try:
            for _ in _windowed(report, k, "co1", gray_code(k, checked=False)):
                pass
        except RuntimeError as exc:
            report.generation_error = f"{type(exc).__name__}: {exc}"
            return


def verify(
    n: int,
    checks: Optional[Iterable[str]] = None,
    cap: int = ENUMERATION_CAP,
) -> VerificationReport:
    """Run the generator under full instrumentation and report all deviations.

    checks selects a subset of {gray, unique, complete, co1, co2, cases};
    the default runs everything.  Failures are recorded, never raised.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > cap:
        raise ValueError(f"cap exceeded: n={n} is above the cap of {cap}")
    selected = tuple(ALL_CHECKS) if checks is None else tuple(checks)
    unknown = set(selected) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(
            f"unknown checks: {', '.join(sorted(unknown))} "
            f"(valid: {', '.join(ALL_CHECKS)})"
        )
    report = VerificationReport(n=n, checks=selected, expected=catalan(n - 1))
    stats = StreamStats() if "cases" in selected else None
    _checked_run(report, n, selected, stats)
    if "co1" in selected and report.generation_error is None:
        _co1_sweep(report, n)
    if stats is not None:
        report.case_histogram = Counter(stats.case_counts)
        report.forbidden_case_hits = sum(
            count
            for case, count in stats.case_counts.items()
            if case in FORBIDDEN_CASES
        )
    return report
