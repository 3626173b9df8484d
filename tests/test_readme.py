"""The README's library example prints what the README shows, and its
command lines run."""
import re
import shlex
from pathlib import Path

from treegray.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)

    shown_trees, shown_summary = re.findall(r"^# (.*)$", block, re.M)
    expected = [
        tuple(int(e) for e in seq.split(","))
        for seq in re.findall(r"\[([\d,]+)\]", shown_trees)
    ]
    assert len(expected) == 5
    trees = namespace["trees"]
    assert [t.levels for t in trees] == expected
    assert namespace["first"] == trees[-1]

    summary = namespace["report"].summary_line()
    prefix = "PASS n=10 total=4862 expected=4862 duplicates=0 missing=0"
    assert shown_summary.startswith(prefix)
    assert summary.startswith(prefix)
    assert capsys.readouterr().out == summary + "\n"


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Every `treegray` line of the README's shell blocks, as written.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [
        line
        for block in blocks
        for line in block.splitlines()
        if line.startswith("treegray ")
    ]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        capsys.readouterr()
