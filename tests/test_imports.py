import os
import subprocess
import sys
from pathlib import Path

import weierp


def test_import_loads_neither_sympy_nor_scipy():
    # numpy is the only runtime dependency (pyproject.toml), and every CLI
    # run pays the import: sympy alone would add about 0.5 s
    src = str(Path(weierp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, weierp; print(sorted({'sympy', 'scipy'} & {m.split('.')[0] for m in sys.modules}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
