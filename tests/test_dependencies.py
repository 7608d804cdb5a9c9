"""The package imports exactly the third-party modules it declares."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from complement_opt.experiments import EXPERIMENTS
from helpers import SRC, package_env

tomllib = pytest.importorskip("tomllib")

PACKAGE = SRC / "complement_opt"
PYPROJECT = SRC.parent / "pyproject.toml"


def third_party_by_module() -> dict[str, set[str]]:
    """Top-level modules each package module imports, function bodies
    included, that are neither the standard library nor the package itself;
    a module importing none is left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        names -= set(sys.stdlib_module_names) | {"complement_opt"}
        if names:
            found[path.name] = names
    return found


def imported_third_party() -> set[str]:
    return set().union(*third_party_by_module().values())


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


def test_numpy_is_imported_by_verify_only():
    assert third_party_by_module() == {"verify.py": {"numpy"}}


def test_run_leaves_numpy_unloaded(tmp_path):
    runs = []
    for name, experiment in EXPERIMENTS.items():
        argv = ["run", "--experiment", name, "--out", str(tmp_path)]
        if "cfg" in experiment.fields:
            argv += ["--preset", "strong"]
        if "objective" in experiment.fields:
            argv += ["--objective", "visibility"]
        if "n_max" in experiment.fields:
            argv += ["--n-max", "2"]
        runs.append(argv)
    assert len(runs) == 6
    code = (
        "import sys\n"
        "from complement_opt.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'a run loaded numpy'\n"
        "assert main(['verify', '--samples', '5']) == 0\n"
        "assert 'numpy' in sys.modules, 'verify drew no sample'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env()
    )
    assert result.returncode == 0, result.stderr
