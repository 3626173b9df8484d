"""Command-line interface.

Subcommands: gen (stream the Gray code), verify (oracle report), count
(Catalan count), dot (family-tree export), bench (timing and write counts).
Exit codes: 0 success, 1 verification or generation failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
import time
from typing import Iterator, Optional

from .generator import (
    FAMILY_TREE_CAP,
    StreamStats,
    build_family_tree,
    export_dot,
    gray_code,
)
from .oracle import ALL_CHECKS, ENUMERATION_CAP, catalan, verify
# bench/tracer.py wraps cli.delta by name, so it stays bound.
from .relations import delta  # noqa: F401
from .tree import encode_parens


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _open_output(path: Optional[str]):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror}") from None


def _warn_cap_override(n: int, default_cap: int) -> int:
    if n > default_cap:
        print(
            f"warning: n={n} is above the default cap of {default_cap}; "
            "memory use grows like the Catalan numbers",
            file=sys.stderr,
        )
    return max(n, default_cap)


def _gen_lines(n: int, fmt: str, checked: bool) -> Iterator[str]:
    records = gray_code(n, checked=checked, moves=fmt == "delta")
    render = encode_parens if fmt == "parens" else str
    for record in records:
        yield render(record)


def _cmd_gen(args: argparse.Namespace) -> int:
    lines = _gen_lines(args.n, args.format, not args.unchecked)
    with _open_output(args.output) as out:
        for line in itertools.islice(lines, args.limit):
            out.write(line + "\n")
            out.flush()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = None
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not checks:
            raise ValueError("empty check list")
    cap = ENUMERATION_CAP
    if args.override_cap:
        cap = _warn_cap_override(args.n, ENUMERATION_CAP)
    report = verify(args.n, checks=checks, cap=cap)
    sys.stdout.write(report.render())
    return 0 if report.passed else 1


def _cmd_count(args: argparse.Namespace) -> int:
    print(catalan(args.n - 1))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    cap = FAMILY_TREE_CAP
    if args.override_cap:
        cap = _warn_cap_override(args.n, FAMILY_TREE_CAP)
    text = export_dot(build_family_tree(args.n, cap=cap))
    with _open_output(args.output) as out:
        out.write(text)
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
        f"checked={'no' if args.unchecked else 'yes'}"
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
        "--checks",
        default=None,
        help=f"comma-separated subset of {{{','.join(ALL_CHECKS)}}} (default all)",
    )
    ver.add_argument(
        "--override-cap",
        action="store_true",
        help=f"allow n above the default cap of {ENUMERATION_CAP}",
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
        help=f"allow n above the default cap of {FAMILY_TREE_CAP}",
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
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. head); suppress the shutdown noise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
