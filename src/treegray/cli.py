"""Command-line interface.

Subcommands: gen (stream the Gray code), verify (oracle report), count
(Catalan count), dot (family-tree export), bench (timing and write counts).
Exit codes: 0 success, 1 verification, generation or write failure, 2 usage error.
Arguments are checked before any output is written, so a ValueError raised
while gen or dot is writing is a generation failure, not a usage error.

gen renders its records block by block from generator._blocks: each
block's parent, a family-tree node, is rendered once, spliced from the
parent before by tree.Spliced for the levels and parens formats, and its
siblings are one join of that text; in the delta format the sibling moves
are one string from relations._sibling_move_lines, which reads the parent's
last level and run.  Each block is written in two writes, each one string:
its first record alone and then the rest of the block.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Callable, Iterator, Optional

from .generator import Block, StreamStats, _blocks, export_dot, gray_code
from .oracle import catalan, verify
from .relations import _sibling_move_lines
# bench/tracer.py wraps cli.delta by name, so it stays bound.
from .relations import delta  # noqa: F401
from .tree import (
    OrderedTree,
    Spliced,
    child_lines,
    child_parens,
    encode_parens,
    level_piece,
    paren_piece,
)

# verify keeps one byte per tree, Catalan(n-1) of them (742,900 at n=14), so
# its cap bounds run time, not memory: each vertex multiplies the trees by
# about 3.6 at n=14 and n=15.
VERIFY_CAP = 14
# dot streams its output, so its cap bounds output size, not memory: n=12
# writes 82,500 nodes and 6.9 MB.
DOT_CAP = 12


def _int_at_least(low: int, kind: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _open_output(path: Optional[str]):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror}") from None


def _check_cap(args: argparse.Namespace, cap: int, cost: str) -> None:
    # Before any work or output; --override-cap turns the refusal into a warning.
    if args.n <= cap:
        return
    if not args.override_cap:
        raise ValueError(f"cap exceeded: n={args.n} is above the cap of {cap}")
    print(
        f"warning: n={args.n} is above the default cap of {cap}; "
        f"{cost} grows like the Catalan numbers",
        file=sys.stderr,
    )


def _fail(exc: Exception) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def _gen_writes(n: int, fmt: str, checked: bool) -> Iterator[str]:
    """Each of gen's writes as one string: two per family-tree block, its first
    record alone and then the rest of the block (one for a block of one).

    A levels or parens block is rendered whole before its first write.  A
    delta block's first record, its boundary move, is written before the
    moves between its siblings are rendered.
    """
    if n == 1:  # the one tree of size 1 has no parent, so it is no block
        render = encode_parens if fmt == "parens" else str
        return (render(t) + "\n" for t in gray_code(1))
    blocks = _blocks(n, checked, fmt == "delta", None)
    if fmt == "delta":
        return _delta_writes(blocks)
    if fmt == "levels":
        head = Spliced(level_piece)
        rendered = (child_lines(head(p), order) for p, order, _ in blocks)
    else:
        head = Spliced(paren_piece)
        rendered = (
            child_parens(head(p) + ")" * p.last, p.last, order)
            for p, order, _ in blocks
        )
    return (text for first_rest in rendered for text in first_rest if text)


def _delta_writes(blocks: Iterator[Block]) -> Iterator[str]:
    # The first tree in levels form, then each block's boundary move and the
    # moves between its siblings.
    for parent, order, move in blocks:
        if move is None:
            yield f"{OrderedTree._trusted(parent.levels).child(order[0])}\n"
        else:
            yield "%d %d %d\n" % move
        if len(order) > 1:
            yield _sibling_move_lines(parent, order[1:])


def _limited(writes: Iterator[str], limit: int) -> Iterator[str]:
    # The writes that hold the first `limit` lines, the last one cut after
    # its limit-th line; no write after the cut is asked for.
    if limit == 0:
        return
    for text in writes:
        lines = text.count("\n")
        if lines >= limit:
            yield "".join(text.splitlines(keepends=True)[:limit])
            return
        limit -= lines
        yield text


def _cmd_gen(args: argparse.Namespace) -> int:
    writes = _gen_writes(args.n, args.format, not args.unchecked)
    if args.limit is not None:
        writes = _limited(writes, args.limit)
    with _open_output(args.output) as out:
        # Each write, one string, is flushed.  A write per record would cost
        # a syscall each, the largest cost of gen into a pipe.  One write per
        # block would spread the wait for a block's start over all of its
        # records, as a reader that times its reads sees them: deep-prefix's
        # median gap in bench/run.py was 2 to 3 times as long.
        write, flush = out.write, out.flush
        try:
            for text in writes:
                write(text)
                flush()
        except ValueError as exc:
            return _fail(exc)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_cap(args, VERIFY_CAP, "run time")
    report = verify(args.n)
    sys.stdout.write(report.render())
    sys.stdout.flush()
    return 0 if report.passed else 1


def _cmd_count(args: argparse.Namespace) -> int:
    print(catalan(args.n - 1), flush=True)
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    _check_cap(args, DOT_CAP, "output size")
    with _open_output(args.output) as out:
        try:
            out.writelines(export_dot(args.n))
            out.flush()
        except ValueError as exc:
            return _fail(exc)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    stats = StreamStats()
    start = time.perf_counter()
    count = 0
    for _ in gray_code(args.n, checked=not args.unchecked, stats=stats):
        count += 1
    elapsed = time.perf_counter() - start
    rate = count / elapsed if elapsed > 0 else float("inf")
    per_tree = stats.vertex_writes / count
    print(
        f"n={args.n} trees={count} seconds={elapsed:.3f} "
        f"trees_per_second={rate:.0f} vertex_writes={stats.vertex_writes} "
        f"writes_per_tree={per_tree:.2f} "
        f"checked={'no' if args.unchecked else 'yes'}",
        flush=True,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegray",
        description=(
            "Gray code for ordered trees: list all trees with n vertices so "
            "that each follows from its predecessor by deleting one leaf and "
            "appending one leaf."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="stream the Gray code, one record per line")
    gen.add_argument("--n", type=_positive_int, required=True, help="tree size")
    gen.add_argument(
        "--format",
        choices=("levels", "parens", "delta"),
        default="levels",
        help="levels: comma-separated level sequence; parens: balanced "
        "parentheses; delta: first tree in levels form, then one "
        "'remove insert level' triple per step",
    )
    gen.add_argument(
        "--limit", type=_nonnegative_int, default=None, help="stop after this many records"
    )
    gen.add_argument("--output", default=None, help="output path (default stdout)")
    gen.add_argument(
        "--unchecked",
        action="store_true",
        help="skip the per-step defensive adjacency checks",
    )
    gen.set_defaults(func=_cmd_gen)

    ver = sub.add_parser("verify", help="run the brute-force oracle and report")
    ver.add_argument("--n", type=_positive_int, required=True, help="tree size")
    ver.add_argument(
        "--override-cap",
        action="store_true",
        help=f"allow n above the default cap of {VERIFY_CAP}",
    )
    ver.set_defaults(func=_cmd_verify)

    cnt = sub.add_parser("count", help="print the number of trees with n vertices")
    cnt.add_argument("--n", type=_positive_int, required=True, help="tree size")
    cnt.set_defaults(func=_cmd_count)

    dot = sub.add_parser("dot", help="write the family tree as Graphviz DOT")
    dot.add_argument("--n", type=_positive_int, required=True, help="largest tree size")
    dot.add_argument("--output", default=None, help="output path (default stdout)")
    dot.add_argument(
        "--override-cap",
        action="store_true",
        help=f"allow n above the default cap of {DOT_CAP}",
    )
    dot.set_defaults(func=_cmd_dot)

    ben = sub.add_parser(
        "bench", help="time a full run (timing lines vary run to run)"
    )
    ben.add_argument("--n", type=_positive_int, required=True, help="tree size")
    ben.add_argument(
        "--unchecked",
        action="store_true",
        help="skip defensive checks to time the bare generation path",
    )
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        return _fail(exc)
    except OSError as exc:
        # A reader that closed the pipe early (e.g. head) is not an error.
        closed = isinstance(exc, BrokenPipeError)
        if not closed:
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        # The failed bytes stay in stdout's buffer, and the interpreter's final
        # flush would fail on them again (exit 120): point the real stdout, if
        # it still cannot flush, at os.devnull, but leave a caller's stand-in.
        if sys.stdout is sys.__stdout__:
            try:
                sys.stdout.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0 if closed else 1


if __name__ == "__main__":
    sys.exit(main())
