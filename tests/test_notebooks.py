"""Every notebook script runs to completion against the package in src/.

Each runs in its own process and working directory, because some write
figures to ./out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("script", sorted((ROOT / "notebooks").glob("*.py")),
                         ids=lambda path: path.stem)
def test_notebook_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
