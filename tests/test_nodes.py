"""The generator's family-tree nodes (tree.Node) and the node forms of the
relations, checked against the level-tuple forms the oracle keeps.

On every consecutive pair of every level stream for sizes up to 10, taken
from one run as the generator holds them, the node forms of copying, the
pony-tail, the sibling move and the boundary proof must agree with
relations.is_copying, has_pony_tail, a walk over the level tuple and
relations._replay.  The proof is also run on every move of every pair of
small trees, and on a deep prefix whose moves reach into long runs; the
boundary move, derived and proven in one walk, on every pair of child
indices of consecutive trees.  The walks to the shared node must take O(1)
steps per call on average.
"""
import itertools
from collections import Counter

import pytest

import treegray.generator
import treegray.ordering
import treegray.relations
from treegray import (
    OrderedTree,
    apply_delta,
    delta,
    enumerate_all,
    gray_code,
    has_pony_tail,
    is_adjacent,
    is_copying,
)
from treegray.generator import _blocks, _boundary
from treegray.ordering import _pony
from treegray.relations import _copying, _replay, _replays_to, _sibling_move
from treegray.tree import Node, _nodes


def _stream(k, records=None):
    # Level k's trees as nodes of one run: the parents of the blocks of
    # size k + 1, in order.
    nodes = (parent for parent, _, _ in _blocks(k + 1, False, False, None))
    return list(itertools.islice(nodes, records))


def _replays(t, u, d):
    # relations._replay on the level tuples: the reference for the proof.
    try:
        return _replay(t.levels, d) == u.levels
    except ValueError:
        return False


def _proof(a, i, b, j, d):
    # relations._replays_to on the node a and b share and the two children's
    # entries above it, collected as generator._boundary's walk collects them.
    ts, us = [i + 1], [j + 1]
    while a is not b:
        ts.append(a.last)
        us.append(b.last)
        a, b = a.up, b.up
    return _replays_to(a, ts, us, d)


def _near(d):
    # d and the moves that differ from it by one in one field.
    r, p, v = d
    return {
        d,
        (r - 1, p, v),
        (r + 1, p, v),
        (r, p - 1, v),
        (r, p + 1, v),
        (r, p, v - 1),
        (r, p, v + 1),
    }


def test_node_fields_follow_the_chain():
    for t in enumerate_all(8):
        (node,) = _nodes(t)
        assert node.levels == t.levels and str(node) == str(t)
        while node.up is not None:
            levels = node.levels
            assert node.size == len(levels) and node.last == levels[-1]
            run = 1
            while run < len(levels) and levels[-1 - run] == levels[-1]:
                run += 1
            assert node.run == run, levels
            node = node.up
        assert (node.size, node.last, node.run) == (1, 1, 1)


def test_equal_prefixes_are_one_node():
    # Within one run every tree is built once: each node's up is the node
    # of the tree its own stream handed up before.
    for k in range(2, 9):
        seen = {}
        for node in _stream(k):
            x = node
            while x is not None:
                assert seen.setdefault(x.levels, x) is x, x
                x = x.up


@pytest.mark.parametrize("k", range(1, 11))
def test_node_forms_agree_on_consecutive_pairs(k):
    nodes = _stream(k)
    assert len(nodes) == len(list(gray_code(k)))
    for node in nodes:
        t = OrderedTree(node.levels)
        if k >= 2:
            assert _pony(node) == has_pony_tail(t), t
        for v in range(2, node.last + 2):
            q = len(t.levels)
            while t.levels[q - 1] == v:
                q -= 1
            assert _sibling_move(node, v) == (k + 1, q + 1, v), (t, v)
    for a, b in itertools.pairwise(nodes):
        ta, tb = OrderedTree(a.levels), OrderedTree(b.levels)
        assert _copying(a, b) == is_copying(ta, tb), (ta, tb)
        assert _copying(b, a) == is_copying(tb, ta), (tb, ta)
        for i, j in itertools.product(range(1, a.last + 1), range(1, b.last + 1)):
            ca, cb = ta.child(i), tb.child(j)
            moves = {(k + 1, k + 1, 2), (2, 2, 2)}
            if is_adjacent(ca, cb):
                moves |= _near(delta(ca, cb))
            for d in moves:
                assert _proof(a, i, b, j, d) == _replays(ca, cb, d), (ca, cb, d)


@pytest.mark.parametrize("size", [3, 4, 5])
def test_proof_agrees_with_the_replay_on_every_move(size):
    # Every pair of trees of one size, in one family tree, each pair of
    # distinct children, and every move with fields in or just outside their
    # ranges.  (A proof's two ends are never one tree.)
    trees = list(enumerate_all(size))
    nodes = _nodes(*trees)
    for (a, ta), (b, tb) in itertools.product(zip(nodes, trees), repeat=2):
        for i, j in itertools.product(range(1, a.last + 1), range(1, b.last + 1)):
            ca, cb = ta.child(i), tb.child(j)
            if ca == cb:
                continue
            fields = range(1, size + 3), range(1, size + 3), range(1, size + 2)
            for d in itertools.product(*fields):
                assert _proof(a, i, b, j, d) == _replays(ca, cb, d), (ca, cb, d)


def test_proof_agrees_with_the_replay_where_moves_reach_into_long_runs():
    # A deep prefix starts from the star: its trees share long runs of 2s
    # and 3s, and many moves insert or remove a leaf where such a run starts
    # far below the node two trees share.
    nodes = _stream(40, 400)
    tried = Counter()
    for a, b in itertools.pairwise(nodes):
        ta, tb = OrderedTree(a.levels), OrderedTree(b.levels)
        shared = a
        c = b
        while shared is not c:
            shared, c = shared.up, c.up
        for i, j in ((1, 1), (1, 2), (a.last, b.last), (2, min(2, b.last))):
            if i > a.last:
                continue
            ca, cb = ta.child(i), tb.child(j)
            for r in (2, 3, shared.size - 1, shared.size, 40, 41):
                for p in (2, 3, shared.size, shared.size + 1, 41):
                    for v in (2, 3, shared.last, ca.levels[-1]):
                        d = (r, p, v)
                        got = _proof(a, i, b, j, d)
                        assert got == _replays(ca, cb, d), (ca, cb, d)
                        tried[got, min(r, p) <= shared.size] += 1
    # Both outcomes occur with the low end of the move in the shared run.
    assert tried[True, True] and tried[False, True] and tried[True, False]


@pytest.mark.parametrize("k", range(3, 9))
def test_boundary_moves_replay_on_every_pair_of_child_indices(k):
    # Every consecutive pair P, Q of level k and every pair of child indices,
    # not only the last of P's block and the first of Q's that the plan picks:
    # a move _boundary returns replays to Q's child, and on the plan's pairs
    # it returns the canonical move.
    blocks = list(_blocks(k + 1, False, False, None))
    seen = Counter()
    for (a, order_a, _), (b, order_b, _) in itertools.pairwise(blocks):
        ta, tb = OrderedTree(a.levels), OrderedTree(b.levels)
        for i, j in itertools.product(range(1, a.last + 1), range(1, b.last + 1)):
            ca, cb = ta.child(i), tb.child(j)
            d = _boundary(a, i, b, j)
            if (i, j) == (order_a[-1], order_b[0]):
                assert d == delta(ca, cb), (ca, cb)
            elif d is not None:
                assert apply_delta(ca, d) == cb, (ca, cb, d)
            seen[d is None] += 1
    assert seen[True] and seen[False], seen


def _walk_steps(monkeypatch, n, records, moves):
    # Steps each call of _copying and of _replays_to takes to the node its
    # two chains share, over the first `records` records of gray_code(n): a
    # proof's lists hold one pair's entries per step after the children's.
    steps = {"copying": Counter(), "proof": Counter()}

    def depth(t, u):
        k = 0
        while t is not u:
            t, u = t.up, u.up
            k += 1
        return k

    copying, proof = treegray.relations._copying, treegray.relations._replays_to

    def counted_copying(t, u):
        steps["copying"][depth(t, u)] += 1
        return copying(t, u)

    def counted_proof(c, ts, us, d):
        steps["proof"][len(ts) - 1] += 1
        return proof(c, ts, us, d)

    monkeypatch.setattr(treegray.ordering, "_copying", counted_copying)
    monkeypatch.setattr(treegray.generator, "_replays_to", counted_proof)
    for _ in itertools.islice(gray_code(n, checked=True, moves=moves), records):
        pass
    monkeypatch.undo()
    return {
        name: sum(d * c for d, c in counter.items()) / sum(counter.values())
        for name, counter in steps.items()
    }


@pytest.mark.parametrize(
    "n, records",
    [(10, None), (11, None), (12, None), (13, 60_000), (14, 60_000), (1000, 20_000)],
)
def test_walks_to_the_shared_node_take_o1_steps_on_average(monkeypatch, n, records):
    # Consecutive trees of a level differ in a suffix that is one entry
    # long within a block and one longer than their parents' at a block
    # boundary, so the mean walk stays near 1.3 steps for copying and 1.4
    # for a proof at any n (1.27-1.31 and 1.41-1.44 for n = 10..14, 1.14
    # and 1.38 at n=1000), though one walk can take n - 2 steps.
    mean = _walk_steps(monkeypatch, n, records, moves=True)
    assert mean["copying"] < 1.5, mean
    assert mean["proof"] < 1.6, mean
