"""The README's Python example and CLI session run and print what they show."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from qiris.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        expected = [
            line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected


def test_readme_cli_session_runs(tmp_path, monkeypatch):
    # in each sh block, a "$ " line is a command and the lines up to the next
    # are its output: `cat NAME` writes them to NAME, and a `qiris` line runs
    # through main and prints them, up to a "..." line
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    monkeypatch.chdir(tmp_path)
    ran = []
    for block in blocks:
        for command in re.split(r"^(?=\$ )", block, flags=re.M):
            if not command.startswith("$ "):
                continue
            line, *shown = command.splitlines()
            argv = shlex.split(line[2:])
            if argv[0] == "cat":
                (tmp_path / argv[1]).write_text("".join(f"{s}\n" for s in shown), encoding="ascii")
                continue
            assert argv[0] == "qiris", f"README runs {line!r}"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv[1:]) == 0, line
            printed = out.getvalue().splitlines()
            if "..." in shown:
                shown = shown[:shown.index("...")]
                printed = printed[:len(shown)]
            assert printed == shown, line
            ran.append(argv[1])
    assert ran == ["generate", "crack", "compare"]
