"""The README's Library example runs as written and agrees with the CLI."""

import re
import shutil
from pathlib import Path

from pscore.cli import main

from conftest import DATA_DIR

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_matches_cli(tmp_path, monkeypatch, capsys):
    shutil.copy(DATA_DIR / "golden_records.jsonl", tmp_path / "records.jsonl")
    monkeypatch.chdir(tmp_path)
    example = library_example()
    assert '# "cg" or "closed_form"' in example  # the two solver paths
    exec(compile(example, str(README), "exec"), {})
    method, *printed = capsys.readouterr().out.splitlines()
    assert method == "cg"  # d = 0.5

    flags = ["--input", "records.jsonl", "--group", "Group 1", "--group", "Group 2",
             "--years", "2010:", "--d", "0.5"]
    assert main(["venues", *flags]) == 0
    venues = [line.split("\t") for line in capsys.readouterr().out.splitlines()[3:]]
    assert main(["groups", *flags]) == 0
    groups = [line.split("\t") for line in capsys.readouterr().out.splitlines()[3:]]
    assert printed == [f"{name}\t{float(norm):.6f}" for name, _, norm in venues] + [
        " ".join(row) for row in groups
    ]
    assert len(printed) == 5
