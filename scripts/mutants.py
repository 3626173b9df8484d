"""Run a fixed set of hand-written mutants of src/ against the tier-1 suite.

Each mutant is one (file, exact old text, new text) edit whose old text
must occur exactly once in the file; every edit is checked before anything
runs.  Each mutant is applied to its own temporary copy of the repository,
where `python -m pytest -x -q` runs the tier-1 suite.  A mutant is killed
when that run fails (or times out) and survives when it passes.

    python3 scripts/mutants.py

One line per mutant, then a summary; the exit status is 1 if any mutant
survives or any old text does not match exactly once, else 0.  A killed
mutant takes from a few seconds to the length of the suite (about 30 s on a
2-CPU host).  A check added to src/ should come with a mutant here that its
test kills.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


# An order cache keyed by two of _order's three arguments: the first order
# computed for a key is handed out for every other value of the third.
_ORDER_DEF = "@lru_cache(maxsize=256)\ndef _order(lm: int, top: int, right: int)"
_ORDER_KEYED = """_ORDERS: dict = {{}}


def _order(lm: int, top: int, right: int) -> tuple[int, ...]:
    key = {key}
    if key not in _ORDERS:
        _ORDERS[key] = _order_built(lm, top, right)
    return _ORDERS[key]


def _order_built(lm: int, top: int, right: int)"""

MUTANTS = [
    # Oracle checks that no test reached until each gained its own test.
    Mutant(
        "verify-skips-the-first-pair",
        "src/treegray/oracle.py",
        "if pos and not is_adjacent(",
        "if pos > 1 and not is_adjacent(",
    ),
    Mutant(
        "verify-skips-the-first-co2-window",
        "src/treegray/oracle.py",
        "if count[k] >= 2:",
        "if count[k] >= 3:",
    ),
    Mutant(
        "missing-walk-ignores-the-last-rank",
        "src/treegray/oracle.py",
        "and 0 in seen:",
        "and 0 in seen[:-1]:",
    ),
    # The window check at every level, on the k-prefixes of level n.
    Mutant(
        "co1-skips-level-n-minus-1",
        "src/treegray/oracle.py",
        "reached = [(n, *range(d + 1, n))",
        "reached = [(n, *range(d + 1, n - 1))",
    ),
    Mutant(
        "window-check-starts-a-level-late",
        "src/treegray/oracle.py",
        "reached = [(n, *range(d + 1, n))",
        "reached = [(n, *range(d + 2, n))",
    ),
    Mutant(
        "window-check-skips-level-n",
        "src/treegray/oracle.py",
        "reached = [(n, *range(d + 1, n))",
        "reached = [(*range(d + 1, n),)",
    ),
    Mutant(
        "prefix-change-scan-starts-one-late",
        "src/treegray/oracle.py",
        "d = lo  # the lowest changed position",
        "d = lo + 1  # the lowest changed position",
    ),
    # The move-stream certifier behind verify.
    Mutant(
        "rank-update-skips-the-window-end",
        "src/treegray/oracle.py",
        "for i in range(lo, hi):",
        "for i in range(lo, hi - 1):",
    ),
    Mutant(
        "no-op-move-not-flagged",
        "src/treegray/oracle.py",
        "if isinstance(c, Delta):  # is_adjacent flagged a tree record",
        "if False:",
    ),
    Mutant(
        "co2-undo-keeps-the-moved-tree",
        "src/treegray/oracle.py",
        "back = cur[:lo] + old + cur[hi:]",
        "back = cur",
    ),
    Mutant(
        "replay-skips-the-leaf-check",
        "src/treegray/relations.py",
        "if j != m - 1 and levels[j + 1] > levels[j]:",
        "if False:",
    ),
    # The block-boundary walk.
    Mutant(
        "replay-from-the-wrong-child",
        "src/treegray/generator.py",
        "end, ell = lv.cur, lv.order[-1]",
        "end, ell = lv.cur, lv.order[0]",
    ),
    # The boundary move, derived from the two parents' chains in the walk
    # that collects the suffixes its proof replays.
    Mutant(
        "boundary-insert-ignores-the-run",
        "src/treegray/generator.py",
        "c.size + 1 - (c.run if c.last == v else 0)",
        "c.size + 1 - (c.run - 1 if c.last == v else 0)",
    ),
    Mutant(
        "boundary-lemma-threshold-off-by-one",
        "src/treegray/generator.py",
        "if ell == nu != rpl:",
        "if ell == nu != rpl + 1:",
    ),
    Mutant(
        "boundary-lists-miss-the-shared-pair",
        "src/treegray/generator.py",
        "        ts.append(p.last)\n        us.append(q.last)\n"
        "        c = p.up\n        if c is q.up:\n            break\n",
        "        c = p.up\n        if c is q.up:\n            break\n"
        "        ts.append(p.last)\n        us.append(q.last)\n",
    ),
    Mutant(
        "proof-replays-onto-itself",
        "src/treegray/relations.py",
        "    return ts == us\n",
        "    return ts == ts\n",
    ),
    # Rolling due levels ahead of need.
    Mutant(
        "roll-ahead-swallows-its-error",
        "src/treegray/generator.py",
        "lv.err, lv.nxt, lv.pos = exc, None, len(lv.order)",
        "pass",
    ),
    Mutant(
        "roll-ahead-rolls-two-levels",
        "src/treegray/generator.py",
        "m = _advance(levels, n, proven, stats, due, 1)",
        "m = _advance(levels, n, proven, stats, due, 2)",
    ),
    # The node forms: each reads only the suffixes above the shared node.
    Mutant(
        "copying-meet-stops-one-node-early",
        "src/treegray/relations.py",
        "if up is b.up:  # a is t's node of size s + 1",
        "if up.up is b.up.up:",
    ),
    Mutant(
        "proof-skips-the-entry-at-the-shared-node",
        "src/treegray/relations.py",
        "        ts.append(last)\n        us.append(last)\n"
        "        r -= s - 1\n        p -= s - 1\n",
        "        r -= s\n        p -= s\n",
    ),
    Mutant(
        "proof-run-one-short",
        "src/treegray/relations.py",
        "elif c.run > s - lo:",
        "elif c.run >= s - lo:",
    ),
    Mutant(
        "sibling-move-run-off-by-one",
        "src/treegray/relations.py",
        "        q -= parent.run\n",
        "        q -= parent.run - 1\n",
    ),
    Mutant(
        "move-stream-sibling-run-off-by-one",
        "src/treegray/relations.py",
        "parent.size, parent.last, parent.run = n - 1, same + 1, run\n",
        "parent.size, parent.last, parent.run = n - 1, same + 1, run - 1\n",
    ),
    # The sibling-move cache: its key must hold what the moves read.
    Mutant(
        "sibling-block-key-drops-run",
        "src/treegray/relations.py",
        "run = parent.run if same in order[1:] else 0",
        "run = 0",
    ),
    Mutant(
        "sibling-block-keys-run-on-the-first-child",
        "src/treegray/relations.py",
        "run = parent.run if same in order[1:] else 0",
        "run = parent.run if same not in order[1:] else 0",
    ),
    Mutant(
        "spliced-sibling-keeps-the-old-last-entry",
        "src/treegray/tree.py",
        "keep = ends[-2]",
        "keep = ends[-1]",
    ),
    Mutant(
        "order-cache-keyed-without-right",
        "src/treegray/ordering.py",
        _ORDER_DEF,
        _ORDER_KEYED.format(key="(lm, top)"),
    ),
    Mutant(
        "order-cache-keyed-without-lm",
        "src/treegray/ordering.py",
        _ORDER_DEF,
        _ORDER_KEYED.format(key="(top, right)"),
    ),
    Mutant(
        "copying-chunk-shifted-left",
        "src/treegray/relations.py",
        "grown[s - 63 : s + 1] == ul[s - 64 : s]",
        "grown[s - 64 : s] == ul[s - 65 : s - 1]",
    ),
    Mutant(
        "copying-chunk-shifted-right",
        "src/treegray/relations.py",
        "grown[s - 63 : s + 1] == ul[s - 64 : s]",
        "grown[s - 62 : s + 2] == ul[s - 63 : s + 1]",
    ),
    # Block rendering: each write is one string.
    Mutant(
        "levels-renderer-drops-each-first-child",
        "src/treegray/cli.py",
        "child_lines(head(p), order) for",
        "child_lines(head(p), order[1:]) for",
    ),
    Mutant(
        "level-ends-cache-drops-the-second-child",
        "src/treegray/tree.py",
        'return ends[0], ("", *ends[1:])',
        'return ends[0], ("", *ends[2:])',
    ),
    Mutant(
        "level-ends-not-shared",
        "src/treegray/tree.py",
        'ends = [intern(f"{i + 1}\\n") for i in order]',
        'ends = [f"{i + 1}\\n" for i in order]',
    ),
    # gen's writes: a block's first record, then its siblings in one write.
    Mutant(
        "limit-cut-keeps-one-record-too-many",
        "src/treegray/cli.py",
        "text.splitlines(keepends=True)[:limit]",
        "text.splitlines(keepends=True)[:limit + 1]",
    ),
    Mutant(
        "limit-cut-one-newline-short",
        "src/treegray/cli.py",
        "text.splitlines(keepends=True)[:limit]",
        "text.splitlines(keepends=True)[:limit - 1]",
    ),
    Mutant(
        "write-drops-its-final-newline",
        "src/treegray/cli.py",
        'yield "%d %d %d\\n" % move',
        'yield "%d %d %d" % move',
    ),
    Mutant(
        "parens-suffix-off-by-one",
        "src/treegray/tree.py",
        "{')' * (last - i)}(",
        "{')' * (last - i + 1)}(",
    ),
    Mutant(
        "delta-table-for-the-repeated-level",
        "src/treegray/relations.py",
        'return moves, "".join(["%d %d %d\\n" % d for d in moves])',
        'return moves, "".join(["%d %d %d\\n" % (n, n, d[2]) for d in moves])',
    ),
    # Each top block's child indices, checked once before any reader sees it.
    Mutant(
        "top-blocks-skip-the-child-range-check",
        "src/treegray/generator.py",
        "if not 1 <= i <= last:",
        "if not 1 <= i <= last + 1:",
    ),
]


def _apply(root: Path, mutant: Mutant) -> None:
    path = root / mutant.path
    text = path.read_text()
    path.write_text(text.replace(mutant.old, mutant.new))


def _check(mutants: list[Mutant]) -> list[str]:
    errors = []
    for m in mutants:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            errors.append(f"{m.name}: old text occurs {found} times in {m.path}")
    return errors


def _run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, how) for one mutant on its own copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="treegray-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"
            ),
        )
        _apply(copy, mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy,
                env=env,
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else f"exit {proc.returncode}"
    return proc.returncode != 0, last


def main() -> int:
    errors = _check(MUTANTS)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        killed, how = _run(m)
        seconds = time.perf_counter() - start
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name} ({seconds:.0f} s): {how}", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
