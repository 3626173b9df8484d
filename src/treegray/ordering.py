"""Child-ordering rules that chain sibling blocks into a Gray code.

Given consecutive trees T_i, T_next of one size and the already-fixed
leftmost child of T_i, the rules pick a left-to-right order for all of T_i's
children and the leftmost child of T_next so that the last child of T_i and
the leftmost child of T_next are adjacent.  Which rule applies depends on the
rightmost-path lengths of the pair, on whether the relevant tree has a
pony-tail, and on the copying relation between the two; the branch taken is
reported as a case label so runs can be audited.

plan_step is the one decision tree: each branch returns its label, the child
order and the next leftmost child together.  plan_last orders the final tree
of a level.  Both take the generator's family-tree nodes (tree.Node).
check_co1 is the window invariant over three consecutive trees of one size,
on OrderedTree for the oracle.

Three branches are forbidden (3a1, 3c1_other, 4b3); selecting one is an
error, never silently accepted.  The generator never selects them, and never
selects 1b, 2c1, 2c2, 3c2 or 4b1_eq_other either: docs/label-reachability.md
proves both by induction over the per-level streams.  No branch returns the
label 3c1: it needs mutual copying, which 3b1 takes first.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from typing import Mapping, Optional

from .relations import _copying, has_pony_tail, is_copying
from .tree import Node, OrderedTree


class Case(enum.Enum):
    """Branch labels of the child-ordering decision tree."""

    C1A = "1a"
    C1B = "1b"
    C2A1 = "2a1"
    C2A2 = "2a2"
    C2B1 = "2b1"
    C2B2 = "2b2"
    C2C1 = "2c1"
    C2C2 = "2c2"
    C3A1 = "3a1"
    C3A2 = "3a2"
    C3B1 = "3b1"
    C3B2 = "3b2"
    C3C1 = "3c1"
    C3C1_OTHER = "3c1_other"
    C3C2 = "3c2"
    C4A1 = "4a1"
    C4A2 = "4a2"
    C4B1_LT = "4b1_lt"
    C4B1_EQ_RPLT = "4b1_eq_rplT"
    C4B1_EQ_OTHER = "4b1_eq_other"
    C4B2 = "4b2"
    C4B3 = "4b3"
    LAST = "LAST"

    # Members are singletons, so identity is an exact hash, and a C-level
    # one: Enum's own __hash__ is Python code run on every Counter update.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


FORBIDDEN_CASES = frozenset({Case.C3A1, Case.C3C1_OTHER, Case.C4B3})


class CaseExhaustionError(RuntimeError):
    """No branch condition held; the input pair violates the preconditions."""


class _StepError(RuntimeError):
    """A fault in one step of the code, with where it happened as attributes
    (None when only the message is known): level, position and case as the
    message names them, and trees, the pair of trees involved."""

    def __init__(
        self,
        message: str,
        *,
        level: Optional[int] = None,
        position: Optional[int] = None,
        case: Optional[Case] = None,
        trees: Optional[tuple[OrderedTree, Optional[OrderedTree]]] = None,
    ):
        super().__init__(message)
        self.level, self.position, self.case, self.trees = level, position, case, trees


class ForbiddenCaseError(_StepError):
    """A branch that must never occur was selected: case, for trees (cur, nxt),
    cur at 0-based position `position` of level `level`."""


class AdjacencyViolationError(_StepError):
    """A produced boundary pair failed the adjacency check: trees is (last
    child of one block, first child of the next) at level `level`, and the
    used-up block, planned by `case`, is the children of the tree at 0-based
    position `position` of level `level` - 1."""


def _descending(top: int, *skip: int) -> list[int]:
    # Child indices top..1 without those in skip.  An index is the child's
    # rpl, so this orders children by decreasing rpl.  A list: a tuple built
    # from a generator is resized as it fills, and that made peak RSS grow
    # with n.
    return [i for i in range(top, 0, -1) if i not in skip]


@lru_cache(maxsize=256)
def _order(lm: int, top: int, right: int) -> tuple[int, ...]:
    """The block order of child indices 1..top that starts with lm and ends
    with right (lm != right).  Between them the other children come by
    increasing rpl when lm is 1 (case 4a), else by decreasing rpl.

    Orders repeat from block to block, so they are shared, not rebuilt; the
    cache keeps at most 256 of them (a run at n=13 uses 94).
    """
    if lm == 1:
        return (1, *[i for i in range(2, top + 1) if i != right], right)
    return (lm, *_descending(top, lm, right), right)


def _pony(t: Node) -> bool:
    # has_pony_tail on a node: its last two levels are 2, 3.
    return t.last == 3 and t.up.last == 2


def plan_step(
    t_cur: Node, t_next: Node, leftmost_index: int
) -> tuple[Case, tuple[int, ...], int]:
    """Order the children of t_cur and pick the leftmost child of t_next.

    t_cur and t_next are consecutive trees of one level, as nodes of one
    family tree (tree.Node).  Returns (case, full child-index order of
    t_cur, index of t_next's leftmost child); the order starts with
    leftmost_index.  Subcases are tested in listing order.  No trees are
    materialized and no checks run: the rules read the last levels, the one
    below for a pony-tail, and copying on the suffixes above the node the
    two share (relations._copying).  Forbidden labels are returned with an
    empty order, not raised, so callers can count them before failing.
    """
    r1, r2 = t_cur.last - 1, t_next.last - 1
    lm = leftmost_index
    first = lm == 1
    if r1 == 1:
        # Two children: the leftmost one fixes the order.
        order = (1, 2) if first else (2, 1)
        if r2 == 1:
            return (Case.C1A, order, 2) if first else (Case.C1B, order, 1)
        if not _pony(t_next):
            return (Case.C2A1 if first else Case.C2A2), order, 1
        if _copying(t_cur, t_next):
            return (Case.C2B1, order, 2) if first else (Case.C2B2, order, 1)
        if _copying(t_next, t_cur):
            return (Case.C2C1 if first else Case.C2C2), order, 1
        raise CaseExhaustionError(
            f"case exhaustion: no case-2 branch for {t_cur} -> {t_next}"
        )
    if r2 == 1:
        if not _pony(t_cur):
            case = Case.C3A1 if first else Case.C3A2
        elif _copying(t_next, t_cur):
            if first:
                return Case.C3B1, (1, 3, 2), 2
            case = Case.C3B2
        elif _copying(t_cur, t_next):
            # The benign 3c1 variant needs mutual copying, which 3b1 above
            # has already taken; so no branch returns Case.C3C1.
            case = Case.C3C1_OTHER if first else Case.C3C2
        else:
            raise CaseExhaustionError(
                f"case exhaustion: no case-3 branch for {t_cur} -> {t_next}"
            )
        if first:  # 3a1 or 3c1_other
            return case, (), 0
        return case, _order(lm, r1 + 1, 1), 1
    if first:
        # Middle children by increasing rpl, the smaller rpl of the pair last.
        case = Case.C4A1 if r1 <= r2 else Case.C4A2
        right = min(r1, r2)
        return case, _order(1, r1 + 1, right), right
    if r1 < r2:
        case, right, nl = Case.C4B1_LT, 1, r1
    elif r1 == r2:
        if lm == r1:
            case, right = Case.C4B1_EQ_RPLT, r1 + 1
        else:
            case, right = Case.C4B1_EQ_OTHER, r1
        nl = right
    elif lm != r2:
        case, right, nl = Case.C4B2, r2, r2
    else:
        return Case.C4B3, (), 0
    return case, _order(lm, r1 + 1, right), nl


def plan_last(t_last: Node, leftmost_index: int) -> tuple[int, ...]:
    """Child-index order for the final tree of a level, a node: the fixed
    leftmost, then the remaining children by decreasing rpl."""
    return (leftmost_index, *_descending(t_last.last, leftmost_index))


def check_co1(a: OrderedTree, b: OrderedTree, c: OrderedTree) -> bool:
    """Window invariant over three consecutive same-size trees.

    Both clauses must hold: if the outer trees have rpl 1 and the middle one
    does not, the middle tree has a pony-tail and the third tree is copying
    it; and if the outer rpls are equal and at least 2, the middle rpl is
    strictly smaller.  Each tree's levels are read once: the sizes are their
    lengths and the rpls are compared through the last levels, each rpl + 1.
    """
    la, lb, lc = a.levels, b.levels, c.levels
    if not len(la) == len(lb) == len(lc):
        raise ValueError(f"size mismatch: {len(la)}, {len(lb)}, {len(lc)}")
    ea, eb, ec = la[-1], lb[-1], lc[-1]
    if ea == 2 == ec and eb > 2:
        if not (has_pony_tail(b) and is_copying(c, b)):
            return False
    if ea == ec >= 3 and ea <= eb:
        return False
    return True


def format_case_histogram(counts: Mapping[Case, int]) -> str:
    """One line per case label, in declaration order, with its hit count."""
    return "\n".join(f"{case.value:<12s} {counts.get(case, 0)}" for case in Case)

