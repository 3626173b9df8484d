"""Ordered rooted trees represented as preorder level sequences.

A tree with the root at level 1 is written as the sequence of vertex levels
in preorder.  Such a sequence is valid iff it starts with 1 and every later
entry e satisfies 2 <= e <= previous + 1.  The representation is canonical:
two ordered trees are equal exactly when their level sequences are.
"""
from __future__ import annotations

from typing import Iterable


class InvalidLevelSequence(ValueError):
    """Raised when a sequence of integers is not a preorder level sequence."""


class OrderedTree:
    """Immutable ordered tree backed by its level-sequence tuple.

    The rightmost path runs from the root to the rightmost leaf, which is the
    last vertex in preorder; its edge count ``rpl`` is therefore the last
    level minus one.  Removing the rightmost leaf gives ``parent()``, and
    ``child(i)`` appends a new rightmost leaf at level i + 1 (i.e. attached to
    the vertex at level i on the rightmost path), valid for 1 <= i <= rpl + 1.
    """

    __slots__ = ("levels",)

    levels: tuple[int, ...]

    def __init__(self, levels: Iterable[int]):
        seq = tuple(levels)
        if not seq:
            raise InvalidLevelSequence("level sequence is empty")
        root = seq[0]
        if not isinstance(root, int) or isinstance(root, bool) or root != 1:
            raise InvalidLevelSequence(
                f"entry 1 must be the root level 1, got {root!r}"
            )
        for j in range(1, len(seq)):
            e = seq[j]
            if not isinstance(e, int) or not 2 <= e <= seq[j - 1] + 1:
                raise InvalidLevelSequence(
                    f"entry {j + 1} is {e!r}, expected an integer in "
                    f"2..{seq[j - 1] + 1}"
                )
        object.__setattr__(self, "levels", seq)

    @classmethod
    def _trusted(cls, levels: tuple[int, ...]) -> "OrderedTree":
        # Fast path for sequences already known valid (parent/child/streams).
        t = object.__new__(cls)
        object.__setattr__(t, "levels", levels)
        return t

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("OrderedTree is immutable")

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def size(self) -> int:
        """Number of vertices."""
        return len(self.levels)

    @property
    def rpl(self) -> int:
        """Number of edges on the rightmost path (root to rightmost leaf)."""
        return self.levels[-1] - 1

    def parent(self) -> "OrderedTree":
        """The tree with the rightmost leaf removed."""
        if len(self.levels) < 2:
            raise ValueError("the 1-vertex tree has no parent")
        return OrderedTree._trusted(self.levels[:-1])

    def child(self, i: int) -> "OrderedTree":
        """Append a new rightmost leaf below the level-i rightmost-path vertex.

        The result has rpl == i.  Valid for i in 1..rpl + 1.
        """
        if not 1 <= i <= self.rpl + 1:
            raise ValueError(
                f"child index {i} outside 1..{self.rpl + 1} for {self}"
            )
        return OrderedTree._trusted(self.levels + (i + 1,))

    def children(self) -> list["OrderedTree"]:
        """All trees obtainable by appending one rightmost leaf, by index."""
        return [self.child(i) for i in range(1, self.rpl + 2)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OrderedTree):
            return self.levels == other.levels
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.levels)

    def __repr__(self) -> str:
        return f"OrderedTree({list(self.levels)})"

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.levels)


def encode_parens(tree: OrderedTree) -> str:
    """Encode as a balanced parenthesis string, one () pair per vertex."""
    out: list[str] = []
    prev = 0
    for lv in tree.levels:
        if prev:
            out.append(")" * (prev - lv + 1))
        out.append("(")
        prev = lv
    out.append(")" * prev)
    return "".join(out)


def decode_parens(text: str) -> OrderedTree:
    """Parse a balanced parenthesis string back into a tree.

    Rejects empty, unbalanced, or non-parenthesis input; a balanced string
    describing a forest (depth returns to zero before the end) fails the
    level-sequence validation.
    """
    if not text:
        raise InvalidLevelSequence("empty parenthesis string")
    levels: list[int] = []
    depth = 0
    for pos, ch in enumerate(text, start=1):
        if ch == "(":
            depth += 1
            levels.append(depth)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidLevelSequence(
                    f"unbalanced ')' at position {pos}"
                )
        else:
            raise InvalidLevelSequence(
                f"unexpected character {ch!r} at position {pos}"
            )
    if depth != 0:
        raise InvalidLevelSequence(f"{depth} unclosed '(' at end of input")
    return OrderedTree(levels)


def parse_tree(text: str) -> OrderedTree:
    """Read a tree in either wire format.

    Accepts a comma-separated level sequence like ``1,2,2,3`` or a
    parenthesis encoding like ``(()())``.
    """
    text = text.strip()
    if text.startswith("("):
        return decode_parens(text)
    try:
        levels = [int(part) for part in text.split(",")]
    except ValueError:
        raise InvalidLevelSequence(f"cannot parse tree from {text!r}") from None
    return OrderedTree(levels)
