"""The package's import graph: networkx is an export target, not a dependency."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_leaves_networkx_unloaded():
    """Importing the package, the sweep runner, every experiment and the
    CLI never loads networkx; only ``to_networkx()`` imports it, lazily."""
    code = (
        "import sys\n"
        "import repro, repro.sweeps.runner, repro.experiments, repro.__main__\n"
        "print('networkx' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
