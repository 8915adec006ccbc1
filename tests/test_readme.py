"""The README's CLI block and library quick start run as written."""

import re
import shlex
from pathlib import Path

from arrconn.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the given heading line."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = 0
    for line in fenced_block("## CLI", "sh").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        argv = shlex.split(line)
        if argv[0] == "echo":  # echo '<json>' > file
            assert argv[2] == ">" and len(argv) == 4, line
            Path(argv[3]).write_text(argv[1] + "\n")
            continue
        assert argv[0] == "arrconn", line
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0 and out.strip(), line
        commands += 1
    assert commands


def test_library_quick_start_runs(capsys):
    exec(compile(fenced_block("## Library quick start", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
