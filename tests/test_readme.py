"""The README's library example runs and prints what the README shows."""
import re
from pathlib import Path

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
