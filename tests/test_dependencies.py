"""The package and the demos import no third-party module; the tests import
exactly the ones the ``test`` extra declares.  Every public name is used by
the package or a demo, not by the tests alone.  A run loads none of numpy,
``dataclasses``, ``inspect`` and ``platform``; the last three cost a fresh
process about 17 ms."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import complement_opt
from complement_opt.experiments import EXPERIMENTS
from helpers import SRC, package_env

tomllib = pytest.importorskip("tomllib")

REPO = SRC.parent
TESTS = Path(__file__).resolve().parent


def third_party_imports(path: Path, local: set[str] = frozenset()) -> set[str]:
    """Top-level modules ``path`` imports, function bodies included, that are
    neither the standard library, the package itself nor one of ``local``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"complement_opt"} - local


def declared(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def project_table() -> dict:
    with (REPO / "pyproject.toml").open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_imports_match_declared_dependencies():
    files = [*(SRC / "complement_opt").glob("*.py"), *(REPO / "demos").glob("*.py")]
    found = {path.name: third_party_imports(path) for path in files}
    assert set().union(*found.values()) == declared(project_table()["dependencies"]) == set(), found


def test_test_imports_match_the_test_extra():
    files = sorted(TESTS.glob("*.py"))
    local = {path.stem for path in files}
    imported = set().union(*(third_party_imports(path, local) for path in files))
    extra = declared(project_table()["optional-dependencies"]["test"])
    assert imported == extra == {"numpy", "pytest", "hypothesis"}


def test_every_public_name_is_used_outside_the_tests():
    # a name in __all__ that only the tests call is a wrapper kept for them
    files = [
        *(path for path in (SRC / "complement_opt").glob("*.py") if path.name != "__init__.py"),
        *(REPO / "demos").glob("*.py"),
    ]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    unused = set(complement_opt.__all__) - {"__version__"} - used
    assert not unused, sorted(unused)


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
        "assert main(['verify', '--samples', '5']) == 0\n"
        "loaded = {'numpy', 'scipy', 'dataclasses', 'inspect', 'platform'} & set(sys.modules)\n"
        "assert not loaded, f'run or verify loaded {loaded}'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env()
    )
    assert result.returncode == 0, result.stderr
