"""Every command in README's "Command line" block runs and exits 0, so the
documented CLI cannot drift from the real one."""
import shlex
from pathlib import Path

import pytest

from complement_opt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _documented_commands() -> list[list[str]]:
    """argv (without the program name) of each ``complement-opt`` command in
    the first sh block of the "Command line" section; ``\\`` continuations
    are joined and comments dropped."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "complement-opt":
            commands.append(words[1:])
    return commands


COMMANDS = _documented_commands()


def test_block_documents_both_subcommands():
    assert {argv[0] for argv in COMMANDS} == {"run", "verify"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_documented_command_exits_0(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a command without --out writes here
    argv = list(argv)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == 0
