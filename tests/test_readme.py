"""Every command in README's "Command line" block runs and exits 0, and every
error class maps to the exit code README names it under, so the documented CLI
cannot drift from the real one."""
import re
import shlex
from pathlib import Path

import pytest

import complement_opt
from complement_opt import cli, errors
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


def _documented_exit_codes() -> dict[int, set[str]]:
    """Exit code -> the error classes named in README's item for it."""
    section = README.read_text(encoding="utf-8").split("- `0`: success.", 1)[1]
    section = section.split("\n\n", 1)[0]
    items = re.findall(r"^- `(\d)`:(.*?)(?=^- `|\Z)", section, flags=re.M | re.S)
    return {int(code): set(re.findall(r"`(\w+Error)`", text)) for code, text in items}


ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=[cls.__name__ for cls in ERROR_CLASSES])
def test_error_class_has_a_documented_exit_code(monkeypatch, cls):
    def raising(**kwargs):
        raise cls("raised on purpose")

    monkeypatch.setattr(cli, "run_verification", raising)
    code = main(["verify"])
    assert cls.__name__ in complement_opt.__all__
    assert code in (2, 3)
    assert cls.__name__ in _documented_exit_codes()[code]


def test_exit_code_list_names_only_existing_classes():
    named = set().union(*_documented_exit_codes().values())
    assert named and named <= {cls.__name__ for cls in ERROR_CLASSES}
