"""numpy is the only runtime dependency: importing the package and its CLI
loads no module from outside the standard library but numpy."""

import os
import subprocess
import sys
from pathlib import Path

IMPORTS = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import eaftlab, eaftlab.cli\n"
    "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
)


def test_imports_only_numpy_and_the_standard_library():
    # a fresh interpreter, so modules other tests imported do not hide any
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS], env=env, capture_output=True, text=True, check=True
    )
    new = proc.stdout.split()
    assert {"eaftlab", "numpy"} <= set(new)
    outside = [
        name for name in new
        if name not in sys.stdlib_module_names and name not in ("numpy", "eaftlab") and not name.startswith("__")
    ]
    assert outside == []
