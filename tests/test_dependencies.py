"""The package imports exactly the third-party modules it declares."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import SRC, package_env

tomllib = pytest.importorskip("tomllib")

PACKAGE = SRC / "complement_opt"
PYPROJECT = SRC.parent / "pyproject.toml"


def imported_third_party() -> set[str]:
    """Top-level modules imported anywhere in the package, function bodies
    included, that are neither the standard library nor the package itself."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"complement_opt"}


def declared_dependencies() -> set[str]:
    with PYPROJECT.open("rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def test_imports_match_declared_dependencies():
    assert imported_third_party() == declared_dependencies() == {"numpy"}


def test_verify_imports_no_scipy():
    code = (
        "import sys\n"
        "from complement_opt.cli import main\n"
        "assert main(['verify', '--samples', '20']) == 0\n"
        "sys.exit('scipy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env()
    )
    assert result.returncode == 0, result.stderr
