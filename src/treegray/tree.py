"""Ordered rooted trees represented as preorder level sequences.

A tree with the root at level 1 is written as the sequence of vertex levels
in preorder.  Such a sequence is valid iff it starts with 1 and every later
entry e satisfies 2 <= e <= previous + 1.  The representation is canonical:
two ordered trees are equal exactly when their level sequences are.

This module owns both text formats: the comma-separated level sequence
(``str(tree)``) and the balanced parentheses (``encode_parens``/
``decode_parens``).  ``child_lines`` and ``child_parens`` render all the
children of one tree in either format from the tree's own text, so a block
of siblings costs one rendering of their parent and one join of it.

``Node`` holds a tree as a node of the family tree (a tree's parent is
itself minus its rightmost leaf): the node of its parent plus its last
level.  The generator's stack is made of them, and ``Spliced`` renders a
stream of them, each from the text of the one before.
"""
from __future__ import annotations

from functools import lru_cache
from sys import intern
from typing import Callable, Iterable, Optional


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
        _store_levels(self, seq)

    @classmethod
    def _trusted(cls, levels: tuple[int, ...]) -> "OrderedTree":
        # Fast path for sequences already known valid (parent/child/streams).
        # It stores through the slot descriptor itself (_store_levels), which
        # skips the lookup and the __setattr__ dispatch of object.__setattr__.
        t = _new(cls)
        _store_levels(t, levels)
        return t

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("OrderedTree is immutable")

    def __delattr__(self, name: str) -> None:
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
        levels = self.levels
        top = levels[-1]  # rpl + 1
        if not 1 <= i <= top:
            raise _child_error(self, i)
        t = _new(OrderedTree)
        _store_levels(t, levels + (i + 1,))
        return t

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
        return _text(self.levels)[:-1]


# The trusted constructor's two steps, bound once: a bare instance, then the
# levels slot written through its descriptor, as object.__setattr__ would.
_new = object.__new__
_store_levels = OrderedTree.levels.__set__


class Node:
    """A tree held as a node of the family tree, in which a tree's parent is
    itself minus its rightmost leaf.

    up is the node of that parent (None for the one-vertex tree), last the
    level of the rightmost leaf, run the length of the trailing run of
    `last` in the level sequence, and size the number of vertices.  child(i)
    costs O(1) and shares the whole chain above it.  The generator builds
    every tree of a run exactly once, as a child of a node it already holds,
    so within one run equal prefixes are one object: two nodes of one size
    agree up to the deepest node their chains share, and an identity test
    finds it.  ``levels`` and ``str`` walk the whole chain, in O(size).
    """

    __slots__ = ("up", "last", "run", "size")

    up: Optional["Node"]
    last: int
    run: int
    size: int

    def child(self, i: int) -> "Node":
        """The node of the tree with a new rightmost leaf at level i + 1,
        valid for i in 1..last, as for OrderedTree.child."""
        last = self.last
        if not 1 <= i <= last:
            raise _child_error(self, i)
        node = _new(Node)
        node.up = self
        node.last = v = i + 1
        node.run = self.run + 1 if v == last else 1
        node.size = self.size + 1
        return node

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple([x.last for x in reversed(_above(self, None))])

    def __repr__(self) -> str:
        return f"Node({list(self.levels)})"

    def __str__(self) -> str:
        return _text(self.levels)[:-1]


def _child_error(tree: "OrderedTree | Node", i: int) -> ValueError:
    """The error for a child index i outside 1..rpl + 1 of tree."""
    return ValueError(f"child index {i} outside 1..{tree.levels[-1]} for {tree}")


def _root() -> Node:
    """The node of the one-vertex tree, the root of a new family tree."""
    node = _new(Node)
    node.up, node.last, node.run, node.size = None, 1, 1, 1
    return node


def _nodes(*trees: OrderedTree) -> list[Node]:
    """The nodes of the given trees in one new family tree, so that equal
    prefixes are one node, as in a run of the generator."""
    root, made, out = _root(), {}, []
    for tree in trees:
        node = root
        for v in tree.levels[1:]:
            key = node, v
            if key not in made:
                made[key] = node.child(v - 1)
            node = made[key]
        out.append(node)
    return out


def _above(node: Node, prev: Optional[Node]) -> list[Node]:
    """The nodes on node's chain above the node it shares with prev, a node
    of the same size in the same family tree, from node down; all of the
    chain if prev is None."""
    above = []
    if prev is None:
        while node is not None:
            above.append(node)
            node = node.up
    else:
        while node is not prev:
            above.append(node)
            node, prev = node.up, prev.up
    return above


class Spliced:
    """Renders nodes of one size, handed in one after another, each as the
    concatenation of piece(x) over the nodes x of its chain, root first.

    Consecutive trees of a stream share their chain up to some node, so only
    the pieces above it are rendered and the rest is cut from the text of
    the node before: a node costs Python work for its new suffix and one
    copy of the text.  ends[s] is the length of the size-s prefix's text.
    """

    __slots__ = ("piece", "node", "text", "ends")

    def __init__(self, piece: Callable[[Node], str]):
        self.piece, self.node, self.text, self.ends = piece, None, "", [0]

    def __call__(self, node: Node) -> str:
        prev, ends = self.node, self.ends
        self.node = node
        if prev is not None and node.up is prev.up:  # siblings: one new piece
            part = self.piece(node)
            keep = ends[-2]
            ends[-1] = keep + len(part)
            self.text = text = self.text[:keep] + part
            return text
        above = _above(node, prev)
        keep = node.size - len(above)
        del ends[keep + 1 :]
        end, parts, piece = ends[keep], [], self.piece
        for x in reversed(above):
            part = piece(x)
            parts.append(part)
            end += len(part)
            ends.append(end)
        self.text = text = self.text[: ends[keep]] + "".join(parts)
        return text


def level_piece(node: Node) -> str:
    """node's last level as text, "v,": Spliced(level_piece) renders a node
    as its level text plus a trailing comma, the head of child_lines."""
    try:
        return _ENTRIES[node.last]
    except IndexError:  # a level above every one rendered so far
        return _text((node.last,))


def paren_piece(node: Node) -> str:
    """What encode_parens writes for node's last vertex before the closing
    parens at the end: Spliced(paren_piece) renders a node as its encoding
    without the closing parens of the rightmost path."""
    up = node.up
    return "(" if up is None else f"{')' * (up.last - node.last + 1)}("


# "v," at index v, for every level value v rendered so far: one short string
# per value, where a "%d," * k template per length k would hold O(n^2)
# characters.
_ENTRIES: list[str] = ["0,"]


def _text(levels: tuple[int, ...]) -> str:
    """``levels`` as "e1,e2,...,ek," joined from the per-value strings
    ("" for ()); levels are positive, so no index counts from the end."""
    entries = _ENTRIES
    try:
        return "".join([entries[v] for v in levels])
    except IndexError:  # a level above every one rendered so far
        entries.extend(f"{v}," for v in range(len(entries), max(levels) + 1))
        return "".join([entries[v] for v in levels])


def child_lines(head: str, order: tuple[int, ...]) -> tuple[str, str]:
    """The lines ``str(tree.child(i))`` for child indices i in order: the first
    alone, then the rest ("" if none); head is ``str(tree)`` plus a comma.

    The children of one tree share every level but the last, so the head is
    rendered once and each child adds its last level, i + 1.
    """
    first, rest = _level_ends(order)
    return head + first, head.join(rest)


# The ends "v\n" of a block's lines in order, the first apart, for head.join.
# Each is interned, one string per value; at most 256 orders are kept, as in
# ordering._order (a run at n=13 uses 96).
@lru_cache(maxsize=256)
def _level_ends(order: tuple[int, ...]) -> tuple[str, tuple[str, ...]]:
    ends = [intern(f"{i + 1}\n") for i in order]
    return ends[0], ("", *ends[1:])


def child_parens(code: str, last: int, order: tuple[int, ...]) -> tuple[str, str]:
    """``encode_parens(tree.child(i))`` for child indices i in order, split as
    by child_lines; code is ``encode_parens(tree)``, last the tree's last level.

    code ends with the ``last`` closing parens of the rightmost path.  The
    new leaf at level v = i + 1 hangs below the level-i vertex of that path,
    so the child closes ``last - v + 1`` of them, opens the leaf, and closes
    the leaf and the v - 1 vertices above it.
    """
    head = code[:-last]
    ends = [f"{')' * (last - i)}({')' * (i + 1)}\n" for i in order]
    return head + ends[0], head.join(["", *ends[1:]])


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
