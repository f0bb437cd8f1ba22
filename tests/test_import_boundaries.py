"""Guard the package's import boundaries.

`spectral` is the only module that imports scipy.fft, as its docstring
says; every other module transforms through it. scipy.optimize, which
loads scipy.linalg and OpenBLAS, is imported only where the decay
character is fitted, so importing the experiments (what the CLI and every
run do) leaves it unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _imported_modules(tree: ast.AST) -> set[str]:
    """Absolute module names an ast imports, at any depth (`from scipy import fft` gives scipy.fft)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module)
            out |= {f"{node.module}.{alias.name}" for alias in node.names}
    return out


def test_only_spectral_imports_scipy_fft():
    importers = {
        path.stem
        for path in sorted((SRC / "critheat").glob("*.py"))
        if any(
            name == "scipy.fft" or name.startswith("scipy.fft.")
            for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        )
    }
    assert importers == {"spectral"}


def test_importing_the_experiments_leaves_scipy_optimize_unloaded():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, critheat.experiments; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
