"""Every narrative script in demos/ runs to completion."""
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import package_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=package_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
