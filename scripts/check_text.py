"""Check gen's delta or parens text, record by record, against its levels text.

    python3 scripts/check_text.py FORMAT TEXT LEVELS COUNT

FORMAT is delta or parens.  Delta text is replayed from its first tree,
one move at a time, with apply_delta; parens text is decoded one line at a
time with decode_parens.  Each tree must equal the same line of LEVELS, and
both files must hold exactly COUNT records.  The files are read once, so
they can be process substitutions:

    python3 scripts/check_text.py delta \\
        <(python3 -m treegray gen --n 14 --format delta) \\
        <(python3 -m treegray gen --n 14) 742900

The exit status is 0 when the text checks, else 1 with the first fault on
stderr.
"""
from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from typing import Iterable, Iterator

from treegray import Delta, OrderedTree, apply_delta, decode_parens, parse_tree


def trees(fmt: str, lines: Iterable[str]) -> Iterator[OrderedTree]:
    """The tree each line of text in format fmt stands for."""
    if fmt == "parens":
        for line in lines:
            yield decode_parens(line.rstrip("\n"))
        return
    cur = None
    for line in lines:
        cur = parse_tree(line) if cur is None else apply_delta(cur, Delta.parse(line))
        yield cur


def check(fmt: str, text: Iterable[str], levels: Iterable[str]) -> int:
    """The number of records in text, each checked against the same line of
    levels; ValueError at the first that differs or that one file lacks."""
    count = 0
    for count, (tree, want) in enumerate(zip_longest(trees(fmt, text), levels), 1):
        if tree is None or want is None or f"{tree}\n" != want:
            raise ValueError(f"record {count}: {tree} against levels {want!r}")
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("format", choices=("delta", "parens"))
    parser.add_argument("text", help="gen's text in FORMAT")
    parser.add_argument("levels", help="gen's levels text for the same run")
    parser.add_argument("count", type=int, help="the number of records expected")
    args = parser.parse_args(argv)
    with open(args.text) as text, open(args.levels) as levels:
        try:
            count = check(args.format, text, levels)
        except ValueError as exc:
            print(f"check_text: {exc}", file=sys.stderr)
            return 1
    if count != args.count:
        print(f"check_text: {count} records, expected {args.count}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
