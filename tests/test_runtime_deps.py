"""numpy is the only runtime dependency: importing the package and its CLI
loads no module from outside the standard library but numpy, and no
``multiprocessing``."""

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


def fresh_imports() -> list[str]:
    """The top-level modules ``import eaftlab, eaftlab.cli`` loads in a fresh
    interpreter, so modules other tests imported do not hide any."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_imports_only_numpy_and_the_standard_library():
    new = fresh_imports()
    assert {"eaftlab", "numpy"} <= set(new)
    outside = [
        name for name in new
        if name not in sys.stdlib_module_names and name not in ("numpy", "eaftlab") and not name.startswith("__")
    ]
    assert outside == []


def test_import_loads_no_multiprocessing():
    # every CLI start would pay for importing multiprocessing; only a
    # parallel `run_grid` needs it, and imports it there
    assert "multiprocessing" not in fresh_imports()
