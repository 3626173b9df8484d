"""Command-line behavior: formats, exit codes, determinism."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treegray.cli
from treegray import (
    Delta,
    OrderedTree,
    apply_delta,
    catalan,
    encode_parens,
    export_dot,
    gray_code,
    parse_tree,
)
from treegray.cli import _gen_writes, main
from treegray.tree import Node


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_levels_n4(capsys):
    code, out, err = run(capsys, "gen", "--n", "4")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "1,2,2,2",
        "1,2,2,3",
        "1,2,3,3",
        "1,2,3,4",
        "1,2,3,2",
    ]


@pytest.mark.parametrize("fmt,line", [("levels", "1"), ("delta", "1"), ("parens", "()")])
def test_gen_single_vertex(capsys, fmt, line):
    # n=1 is the one size whose shared head is empty.
    code, out, err = run(capsys, "gen", "--n", "1", "--format", fmt)
    assert code == 0 and err == ""
    assert out == line + "\n"


def test_gen_parens(capsys):
    code, out, _ = run(capsys, "gen", "--n", "4", "--format", "parens")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(()()())"
    assert len(lines) == 5


def test_gen_delta_n4(capsys):
    code, out, _ = run(capsys, "gen", "--n", "4", "--format", "delta")
    assert code == 0
    assert out.splitlines() == ["1,2,2,2", "4 4 3", "2 3 3", "4 4 4", "4 4 2"]


def test_gen_limit(capsys):
    code, out, _ = run(capsys, "gen", "--n", "6", "--limit", "3")
    assert code == 0
    assert out.splitlines() == ["1,2,2,2,2,2", "1,2,2,2,2,3", "1,2,2,2,3,3"]
    code, out, _ = run(capsys, "gen", "--n", "6", "--limit", "0")
    assert code == 0 and out == ""


class _Recorder:
    """Stands in for stdout: a write appends its text, a flush appends None."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def flush(self):
        self.calls.append(None)


def recorded_writes(monkeypatch, *argv):
    """gen's writes to stdout, in order; each must be flushed at once."""
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["gen", *argv]) == 0
    writes = out.calls[::2]
    assert out.calls[1::2] == [None] * len(writes)
    return writes


def test_gen_limit_cuts_at_every_record(monkeypatch):
    # n=6 has 42 records in 14 blocks, so the cut falls inside every block
    # and at every block edge.  The writes up to the cut are those of the
    # full run, the last one cut short.
    full = recorded_writes(monkeypatch, "--n", "6")
    lines = "".join(full).splitlines(keepends=True)
    assert len(lines) == 42
    for k in range(43):
        writes = recorded_writes(monkeypatch, "--n", "6", "--limit", str(k))
        assert "".join(writes) == "".join(lines[:k]), k
        assert writes[:-1] == full[: len(writes)][:-1], k


@pytest.mark.parametrize("fmt", ["levels", "parens", "delta"])
def test_gen_writes_a_blocks_first_record_then_its_siblings(monkeypatch, fmt):
    # n=6 has 42 records in 14 blocks of 2 or more: one write for each
    # block's first record, as soon as the block is planned, and one for the
    # rest of the block.  In the levels format a block is the records that
    # share every level but the last.  n=2 is one block of one record.
    assert len(recorded_writes(monkeypatch, "--n", "2", "--format", fmt)) == 1
    writes = recorded_writes(monkeypatch, "--n", "6", "--format", fmt)
    assert len(writes) == 28
    assert all(w.endswith("\n") for w in writes)
    assert all(w.count("\n") == 1 for w in writes[::2])
    digest = hashlib.sha256("".join(writes).encode("ascii")).hexdigest()
    assert digest == GEN_DIGESTS[fmt][6 - 2]
    levels = recorded_writes(monkeypatch, "--n", "6")
    assert [w.count("\n") for w in writes] == [w.count("\n") for w in levels]
    heads = [
        {line.rsplit(",", 1)[0] for line in (first + rest).splitlines()}
        for first, rest in zip(levels[::2], levels[1::2])
    ]
    assert all(len(h) == 1 for h in heads)
    assert all(a != b for a, b in zip(heads, heads[1:]))


def test_gen_delta_writes_each_boundary_move_before_the_sibling_moves(monkeypatch):
    # A delta block's first record is its boundary move, known once the
    # block is planned: it is written and flushed before the moves between
    # the siblings are rendered.  Block b of n=6 (14 blocks of 2 or more)
    # renders them after 2b + 1 writes and as many flushes.
    out = _Recorder()
    real = treegray.cli._sibling_moves
    seen = []

    def sibling_moves(parent, order):
        seen.append(len(out.calls))
        return real(parent, order)

    monkeypatch.setattr(treegray.cli, "_sibling_moves", sibling_moves)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["gen", "--n", "6", "--format", "delta"]) == 0
    assert seen == [4 * b + 2 for b in range(14)]


@pytest.mark.parametrize("checked", [True, False], ids=["checked", "unchecked"])
@pytest.mark.parametrize("fmt", ["levels", "parens", "delta"])
def test_block_rendering_matches_each_record(fmt, checked):
    # gen renders each block once from its parent; every line must still
    # equal the text of its own record.
    render = encode_parens if fmt == "parens" else str
    for n in range(1, 12):
        records = gray_code(n, checked=checked, moves=fmt == "delta")
        lines = "".join(_gen_writes(n, fmt, checked)).splitlines()
        assert lines == list(map(render, records)), n


@pytest.mark.parametrize("fmt", ["levels", "parens"])
def test_unchecked_gen_builds_no_tree_per_record(monkeypatch, fmt):
    # Only the levels below the top build trees, as family-tree nodes, one
    # per tree of sizes 2..n-1; the records of size n are rendered from
    # their parents, and no OrderedTree is built at all.
    calls = [0]
    real = Node.child

    def child(self, i):
        calls[0] += 1
        return real(self, i)

    def no_tree(*args):
        raise AssertionError("an OrderedTree was built")

    monkeypatch.setattr(Node, "child", child)
    monkeypatch.setattr(OrderedTree, "child", no_tree)
    monkeypatch.setattr(OrderedTree, "_trusted", no_tree)
    for n in range(2, 11):
        calls[0] = 0
        assert sum(w.count("\n") for w in _gen_writes(n, fmt, False)) == catalan(n - 1)
        assert calls[0] == sum(catalan(k - 1) for k in range(2, n)), n


def test_gen_output_file(tmp_path, capsys):
    path = tmp_path / "trees.txt"
    code, out, _ = run(capsys, "gen", "--n", "5", "--output", str(path))
    assert code == 0 and out == ""
    _, stdout_version, _ = run(capsys, "gen", "--n", "5")
    assert path.read_text() == stdout_version


@pytest.mark.parametrize("fmt", ["delta", "parens"])
def test_check_text_script_checks_gen_text_and_its_count(tmp_path, capsys, fmt):
    # scripts/check_text.py, which CI runs on the whole text of larger n,
    # replays or decodes gen's text against its levels text and checks the
    # record count: a wrong count fails, and so does a missing record.
    text, levels = tmp_path / fmt, tmp_path / "levels"
    assert run(capsys, "gen", "--n", "8", "--format", fmt, "--output", str(text))[0] == 0
    assert run(capsys, "gen", "--n", "8", "--output", str(levels))[0] == 0
    script = Path(__file__).resolve().parents[1] / "scripts" / "check_text.py"
    src = Path(__file__).resolve().parents[1] / "src"

    def check(count):
        return subprocess.run(
            [sys.executable, "-W", "error", str(script), fmt, str(text), str(levels), str(count)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )

    proc = check(catalan(7))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    proc = check(catalan(7) + 1)
    assert proc.returncode == 1
    assert proc.stderr == f"check_text: {catalan(7)} records, expected {catalan(7) + 1}\n"
    lines = text.read_text().splitlines(keepends=True)
    text.write_text("".join(lines[:-1]))
    proc = check(catalan(7))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"check_text: record {catalan(7)}: None against levels ")


def test_gen_unchecked_same_output(capsys):
    _, checked, _ = run(capsys, "gen", "--n", "7")
    _, unchecked, _ = run(capsys, "gen", "--n", "7", "--unchecked")
    assert checked == unchecked


def test_delta_replay_matches_levels(capsys):
    _, levels_out, _ = run(capsys, "gen", "--n", "7")
    _, delta_out, _ = run(capsys, "gen", "--n", "7", "--format", "delta")
    lines = delta_out.splitlines()
    cur = parse_tree(lines[0])
    replayed = [str(cur)]
    for line in lines[1:]:
        cur = apply_delta(cur, Delta.parse(line))
        replayed.append(str(cur))
    assert replayed == levels_out.splitlines()


def test_gen_deep_prefix(capsys):
    # n is far above Python's recursion limit: levels are walked, not nested.
    code, levels_out, _ = run(capsys, "gen", "--n", "5000", "--limit", "10")
    assert code == 0
    levels = levels_out.splitlines()
    assert len(levels) == 10
    code, delta_out, _ = run(
        capsys, "gen", "--n", "5000", "--limit", "10", "--format", "delta"
    )
    assert code == 0
    lines = delta_out.splitlines()
    assert len(lines) == 10
    cur = parse_tree(lines[0])
    replayed = [str(cur)]
    for line in lines[1:]:
        cur = apply_delta(cur, Delta.parse(line))
        replayed.append(str(cur))
    assert replayed == levels


# Spawns `python -m treegray ARGS...` with stdout to /dev/null and prints its
# exit code, its own peak RSS in kB (wait4 on its pid) and the wall seconds.
_PEAK_RSS = """
import os, sys, time
out = os.open(os.devnull, os.O_WRONLY)
argv = [sys.executable, "-m", "treegray", *sys.argv[1:]]
start = time.perf_counter()
pid = os.posix_spawn(
    sys.executable, argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, out, 1)]
)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter() - start)
"""


@pytest.mark.parametrize(
    "extra",
    [(), ("--format", "delta"), ("--unchecked",)],
    ids=["levels", "delta", "unchecked"],
)
def test_gen_deep_prefix_peak_rss(extra):
    # The README promises O(n) memory for any prefix: the stack holds a
    # few family-tree nodes per size, so n=5000 stays near the interpreter's
    # own footprint (about 18 MB of it), where O(n) trees of n levels would
    # take hundreds of MB.  The run is spawned from a fresh `python -S`,
    # because Linux charges a spawned child's peak RSS with at least its
    # parent's, and pytest's is large.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, "gen", "--n", "5000", "--limit", "10"]
        + list(extra),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
        check=True,
    )
    code, peak_kb, _ = proc.stdout.split()
    assert int(code) == 0, proc.stderr
    assert int(peak_kb) < 30 * 1024


def test_delta_text_memory_stays_linear_in_n():
    # A fresh interpreter, so that no earlier test has filled the caches.
    # The sibling moves are cached per block shape, at most 256 of them, so
    # rendering the blocks of a 20,000-record prefix at n=2000 holds the
    # first tree's line and a few dozen shapes (about 90 kB); one entry per
    # block would hold several MB.
    code = """
import tracemalloc
from treegray.cli import _delta_writes
from treegray.generator import _blocks
blocks, records = [], 0
for block in _blocks(2000, False, True, None):
    blocks.append(block)
    records += len(block[1])
    if records >= 20000:
        break
tracemalloc.start()
for _ in _delta_writes(iter(blocks)):
    pass
print(tracemalloc.get_traced_memory()[1])
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert int(proc.stdout) < 1_000_000


@pytest.mark.parametrize("extra", [(), ("--unchecked",)])
def test_gen_delta_adjacency_violation_exits_1(broken_next_leftmost, capsys, extra):
    code, _, err = run(capsys, "gen", "--n", "7", "--format", "delta", *extra)
    assert code == 1
    assert err.startswith(
        "error: AdjacencyViolationError: adjacency violation in case 2a1 at "
        "level 7 after position 3 of level 6: "
    )


def test_gen_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "--n", "8")
    _, second, _ = run(capsys, "gen", "--n", "8")
    assert first == second


# SHA-256 of `gen --n N --format F` output for N = 2..11, in order, and of
# export_dot(8).  Any change to the order breaks these.
GEN_DIGESTS = {
    "levels": [
        "52186c933993da4082b3cdc7c40bb4bf735b391ff54a2ef78c037dda6c38a680",  # n=2
        "fc5eae3983efae9202d070ae4cc040d6834695c753d7940f2c300dae325f827d",  # n=3
        "f351941799cfa69137aa14e8cf21d8306b43b2f499f7d688ac188dc03eef9546",  # n=4
        "1daa2220aec239ff915f2c2922062b542b58a938bb0bdb7dd410ca0036f009cc",  # n=5
        "24b40e6902838f2f39da508615e1b1d8b02825744f99cae9771dea315dd0511f",  # n=6
        "cfd776fc1174651bb698aca77ca9980963ba7d2f8d4c727cdfd10e314ccefb17",  # n=7
        "a875e9067f629c300a446fdd94589ff5cf583cc758f422c8e3a1797ecbc25915",  # n=8
        "7a786cea71ad83385b1cd3356cbc46004939c93f922108bc8b0226bdf049a0ef",  # n=9
        "7d3899433d7d7fad91d3c94a371eda3a3b2083724e75e79da045bfcaae27a80a",  # n=10
        "4c395870d5f15d9660e07d2b6629fa023990c2a196ae6bc70fa80f230a336950",  # n=11
    ],
    "parens": [
        "2193f30a1cf467b88b081bfe8a093c73ab4e46d3350d1e1d1cb841e655276d41",  # n=2
        "9ea5942d6e9197d61bb37ed49bf2bf3139abd21e1c6ba62c426a60da4cdbb0c9",  # n=3
        "88187a4a23021116f52526e8b6249b0c1fbc74855cb4ac80bb0c475f2c2690c5",  # n=4
        "5195f922ec2b345484a928267cdaf2996e65471ed1110f4a9b5a46039ab2034d",  # n=5
        "ae2e18f52b274fe91fef97b3985179900f84ac2b70e51941220329ec21b83a26",  # n=6
        "edb2d9eb834fb6dbe27efbb219d688f95ceb5ea51e5ac0326af64901a93d2a47",  # n=7
        "58013ed94d15df32d227dae6ca5b5bac437d81e32db8313f386dfd7c2ea20342",  # n=8
        "8a20d0aa993a1799a0c6fe67aaed6232f31d4dc919d4363c947a57786d723ad6",  # n=9
        "7569edb449b09059f410ce63472709ad62f69f95f3c1125d90781b650344b68e",  # n=10
        "ebb8997ba8a7d30b5a9470c43c40d57a9b9f42f66183ef21667b17b80ac9efdc",  # n=11
    ],
    "delta": [
        "52186c933993da4082b3cdc7c40bb4bf735b391ff54a2ef78c037dda6c38a680",  # n=2
        "4540c96222b650c6acd71dba2ac77471baef4315679378572f495893bf72a717",  # n=3
        "f6771cad4fbec66a6943382ce1e06a2ba0530d06fd6db2195d713b029b52d68c",  # n=4
        "56746bc0b22bf6931ed68657cf12b5f7506f4553d585f88fa9e2266dcf29398d",  # n=5
        "c366d3c4da1f3016e7283617566c31021da7e385c33a1e9c47a215e8740df207",  # n=6
        "664532a9790129142089cf149c503133d34704ead1b62dac3bb1eb139182b9c0",  # n=7
        "fb68982b0c83935122425a32c34c14dc19311a755000f88f87479ff6934a9d64",  # n=8
        "54914d054cdde340d08ea6c14e19548cc5803be26d53b9c7606b921ccb940206",  # n=9
        "eba0524fd467f0bec2f62e30ef97766bc79a8b2c28d8e2012bc13c28f05bd57a",  # n=10
        "8feaac19acb59e8d787d2055b1f14597f831cb6c5a17d9bd903c77836737a87e",  # n=11
    ],
}
DOT8_DIGEST = "9e351cff3f736a947b09c2b972d0ff16b34f823f65d711645ccc575f02218cf5"


def test_output_digests_pinned(capsys):
    runs = [(fmt, ()) for fmt in GEN_DIGESTS] + [("delta", ("--unchecked",))]
    for fmt, extra in runs:
        for n, want in enumerate(GEN_DIGESTS[fmt], start=2):
            code, out, _ = run(capsys, "gen", "--n", str(n), "--format", fmt, *extra)
            assert code == 0
            digest = hashlib.sha256(out.encode("ascii")).hexdigest()
            assert digest == want, (fmt, extra, n)
    dot = "".join(export_dot(8)).encode("ascii")
    assert hashlib.sha256(dot).hexdigest() == DOT8_DIGEST

def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "13")
    assert code == 0 and out == "208012\n"
    code, out, _ = run(capsys, "count", "--n", "1")
    assert code == 0 and out == "1\n"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 0
    assert out.startswith("PASS n=3 total=2 expected=2")
    assert "case histogram:" in out


def test_verify_above_cap(capsys):
    code, _, err = run(capsys, "verify", "--n", "20")
    assert code == 2
    assert "cap exceeded" in err


def test_verify_cap_is_checked_before_the_oracle_runs(monkeypatch, capsys):
    # The cap is CLI policy: the library's verify has none.
    calls = []
    monkeypatch.setattr(treegray.cli, "verify", lambda *a, **kw: calls.append(a))
    code, out, err = run(capsys, "verify", "--n", "15")
    assert code == 2 and out == "" and calls == []
    assert err == "error: cap exceeded: n=15 is above the cap of 14\n"


def test_override_cap_accepted_for_small_n(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--override-cap")
    assert code == 0 and out.startswith("PASS")


def test_override_cap_warns_above_the_default_cap(monkeypatch, capsys):
    # dot streams, so its cap bounds output size, not memory.
    monkeypatch.setattr(treegray.cli, "DOT_CAP", 3)
    code, out, err = run(capsys, "dot", "--n", "4", "--override-cap")
    assert code == 0 and out.startswith("digraph family_tree {")
    assert err == (
        "warning: n=4 is above the default cap of 3; "
        "output size grows like the Catalan numbers\n"
    )


def test_override_cap_warns_of_run_time_for_verify(monkeypatch, capsys):
    # verify keeps one byte per tree, so its cap bounds run time, not memory.
    monkeypatch.setattr(treegray.cli, "VERIFY_CAP", 3)
    code, out, err = run(capsys, "verify", "--n", "4", "--override-cap")
    assert code == 0 and out.startswith("PASS")
    assert err == (
        "warning: n=4 is above the default cap of 3; "
        "run time grows like the Catalan numbers\n"
    )


def test_cli_imports_neither_dataclasses_nor_inspect():
    # dataclasses also imports inspect, ast, dis and tokenize: about 1 MB of
    # every run's peak RSS.  -S keeps the site hooks' own imports out.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, treegray.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["write-through", "buffered"])
def test_gen_into_closed_pipe_exits_0(unbuffered):
    # The reader takes one line and closes the pipe, as `head -1` would,
    # both when stdout writes straight through and when it is buffered.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "treegray", "gen", "--n", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == b"1,2,2,2,2,2,2,2,2,2,2,2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "5"],
        ["gen", "--n", "5", "--output", "/dev/full"],
        ["verify", "--n", "5"],
        ["count", "--n", "5"],
        ["dot", "--n", "5"],
        ["dot", "--n", "5", "--output", "/dev/full"],
        ["bench", "--n", "5"],
    ],
    ids=" ".join,
)
def test_failed_write_exits_1(argv):
    # Every write to /dev/full fails with ENOSPC.  Buffered stdout (no
    # PYTHONUNBUFFERED) holds the failed bytes until the interpreter's final
    # flush, which must not fail again.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "treegray", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_dot_output(capsys):
    code, out, _ = run(capsys, "dot", "--n", "2")
    assert code == 0
    assert '"()" -> "(())";' in out
    assert out.count("->") == 1


def test_dot_above_cap(capsys):
    code, _, err = run(capsys, "dot", "--n", "40")
    assert code == 2
    assert "cap exceeded" in err


def test_dot_above_cap_opens_no_output(tmp_path, capsys):
    # The export is lazy, so the cap must be checked before the file opens.
    path = tmp_path / "family.dot"
    code, out, err = run(capsys, "dot", "--n", "40", "--output", str(path))
    assert code == 2 and out == ""
    assert "cap exceeded" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "8"],
        ["gen", "--n", "8"],
        ["gen", "--n", "8", "--unchecked"],
        ["dot", "--n", "8"],
        ["gen", "--n", "7", "--format", "delta"],
        ["gen", "--n", "7", "--format", "delta", "--unchecked"],
    ],
    ids=["verify", "gen", "gen-unchecked", "dot", "delta-top", "delta-top-unchecked"],
)
def test_generator_value_error_exits_1(broken_child_index, capsys, argv):
    # A ValueError out of a running generator is a generation failure, not a
    # usage error: every argument was checked before the first record.
    code, out, err = run(capsys, *argv)
    assert code == 1
    fault = "ValueError: child index 3 outside 1..2 for 1,2,2,2,3,2"
    if argv[0] == "verify":
        assert out.startswith("FAIL n=8 ") and f"generation error: {fault}\n" in out
    else:
        assert err == f"error: {fault}\n"


# (fixture, n, format, checked, records before the fault).  At n=7 the bad
# child index ends a block of the top level; at n=8 it is below the top.
_GEN_FAULTS = [
    ("broken_child_index", 7, "levels", True, 8),
    ("broken_child_index", 7, "levels", False, 8),
    ("broken_child_index", 7, "parens", True, 8),
    ("broken_child_index", 7, "parens", False, 8),
    ("broken_child_index", 8, "levels", True, 23),
    ("broken_child_index", 8, "levels", False, 23),
    ("broken_child_index", 8, "parens", True, 23),
    ("broken_child_index", 7, "delta", True, 8),
    ("broken_next_leftmost", 8, "levels", True, 25),
    ("broken_next_leftmost", 8, "parens", True, 25),
    ("broken_next_leftmost", 7, "delta", True, 10),
    ("forbidden_case", 8, "levels", True, 21),
    ("forbidden_case", 8, "levels", False, 21),
    ("forbidden_case", 8, "parens", True, 21),
    ("forbidden_case", 7, "delta", True, 8),
]


@pytest.mark.parametrize(
    "fixture, n, fmt, checked, want",
    _GEN_FAULTS,
    ids=[f"{f}-{fmt}-{c}-{w}" for f, _, fmt, c, w in _GEN_FAULTS],
)
def test_gen_writes_every_record_before_a_generation_error(
    request, capsys, fixture, n, fmt, checked, want
):
    # A fault stops gen between blocks: stdout holds every record that the
    # generator yielded before it, and nothing more.  A --limit cut there
    # asks for no block after it, so it meets no fault.
    request.getfixturevalue(fixture)
    render = encode_parens if fmt == "parens" else str
    records = []
    with pytest.raises((ValueError, RuntimeError)):
        for record in gray_code(n, checked=checked, moves=fmt == "delta"):
            records.append(render(record) + "\n")
    argv = ["gen", "--n", str(n), "--format", fmt] + ([] if checked else ["--unchecked"])
    code, out, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ")
    assert len(records) == want
    assert out == "".join(records)
    # Every line written is a tree, or in the delta format a move that replays.
    lines = out.splitlines()
    cur = parse_tree(lines[0])
    for line in lines[1:]:
        if fmt == "delta":
            cur = apply_delta(cur, Delta.parse(line))
        else:
            parse_tree(line)
    assert run(capsys, *argv, "--limit", str(want)) == (0, out, "")


def test_dot_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    assert run(capsys, "dot", "--n", "5", "--output", str(a))[0] == 0
    assert run(capsys, "dot", "--n", "5", "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["gen", "dot"])
@pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
def test_unopenable_output_exits_2(tmp_path, capsys, command, where):
    path = tmp_path / "missing" / "out.txt" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, command, "--n", "3", "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot open {path}")
    assert "Traceback" not in err


def test_bench(capsys):
    code, out, _ = run(capsys, "bench", "--n", "6", "--unchecked")
    assert code == 0
    assert "trees=42" in out
    assert "checked=no" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "0"],
        ["gen", "--n", "-2"],
        ["gen", "--n", "x"],
        ["gen"],
        ["gen", "--n", "3", "--format", "json"],
        ["gen", "--n", "3", "--limit", "-1"],
        ["nonsense"],
        [],
        ["verify", "--n", "6", "--checks", "gray"],  # verify always runs every check
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
