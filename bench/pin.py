"""Check every benchmark command's output independently, then pin its digest.

    python3 bench/pin.py

Runs each workload command of harness.WORKLOADS and harness.SMOKE, and the
verify set-up probe, once as a subprocess and checks the output with the
package's brute-force relations, not with the generator's own checks:

- levels output: every line parses as a tree of size n, no tree repeats,
  consecutive trees are adjacent, and the count is Catalan(n-1) or the limit;
- delta output: replayed through apply_delta from its first line, it
  reproduces the levels output of the same n line for line;
- verify output: the report says PASS with total = expected = Catalan(n-1).

Only then does it write the record count and SHA-256 of every output to
digests.json, which run.py checks each run against.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import harness

sys.path.insert(0, str(harness.SRC))
from treegray.oracle import catalan  # noqa: E402
from treegray.relations import Delta, apply_delta, is_adjacent  # noqa: E402
from treegray.tree import parse_tree  # noqa: E402


def _output(argv: tuple[str, ...]) -> str:
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "treegray", *argv],
        cwd=harness.ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def _option(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_levels(lines: list[str], n: int, expected: int) -> None:
    trees = [parse_tree(line) for line in lines]
    if len(trees) != expected:
        raise SystemExit(f"{len(trees)} trees, expected {expected}")
    if any(t.size != n for t in trees) or len(set(trees)) != len(trees):
        raise SystemExit(f"wrong size or repeated tree at n={n}")
    for a, b in zip(trees, trees[1:]):
        if not is_adjacent(a, b):
            raise SystemExit(f"not adjacent: {a} -> {b}")


def _check_delta(lines: list[str], levels: list[str]) -> None:
    tree = parse_tree(lines[0])
    replayed = [str(tree)]
    for line in lines[1:]:
        tree = apply_delta(tree, Delta.parse(line))
        replayed.append(str(tree))
    if replayed != levels:
        raise SystemExit("delta replay does not reproduce the levels output")


def _check_verify(text: str, n: int) -> None:
    want = f"PASS n={n} total={catalan(n - 1)} expected={catalan(n - 1)} "
    if not text.startswith(want):
        raise SystemExit(f"verify --n {n} did not pass: {text.splitlines()[0]}")


def check(argv: tuple[str, ...], text: str) -> None:
    n = int(_option(argv, "--n"))
    if argv[0] == "verify":
        _check_verify(text, n)
        return
    lines = text.splitlines()
    expected = int(_option(argv, "--limit", str(catalan(n - 1))))
    levels = lines
    if _option(argv, "--format") == "delta":
        levels = _output(("gen", "--n", str(n), "--unchecked", "--limit", str(expected))).splitlines()
        _check_delta(lines, levels)
    _check_levels(levels, n, expected)


def main() -> int:
    digests = {}
    commands = [w.argv for table in (harness.WORKLOADS, harness.SMOKE) for w in table.values()]
    for argv in (*commands, harness.VERIFY_PROBE):
        text = _output(argv)
        check(argv, text)
        data = text.encode("ascii")
        digests[harness.digest_key(argv)] = {"records": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest()}
        print(f"checked {harness.digest_key(argv)}")
    harness.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {harness.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
