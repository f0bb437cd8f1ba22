"""Guard the package's import boundaries.

`spectral` is the only module that imports scipy.fft, as its docstring
says; every other module transforms through it. scipy.optimize, which
loads scipy.linalg and OpenBLAS, is imported only where the decay
character is fitted, so importing the experiments (what the CLI and every
run do) leaves it unloaded. A private attribute (`x._name`) is used
outside `self` only in the module that declares it, so a cache such as
the solver state's rates stays one module's business. No module rebinds
a module-level name from a function (`global`), so no call sets state
that every later caller in the process shares.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _declared_private(tree: ast.AST) -> set[str]:
    """Private names a module declares: class-body names and methods, `self._x` targets."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    out.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    out |= {t.id for t in item.targets if isinstance(t, ast.Name)}
                elif isinstance(item, ast.FunctionDef):
                    out.add(item.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if _is_self(node.value):
                out.add(node.attr)
    return {name for name in out if _is_private(name)}


def _private_uses(tree: ast.AST) -> set[str]:
    """Private attribute names a module reads or writes on anything but `self`."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _is_private(node.attr) and not _is_self(node.value)
    }


def test_private_attributes_stay_in_their_module():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "critheat").glob("*.py"))
    }
    uses = {(module, name) for module, tree in trees.items() for name in _private_uses(tree)}
    assert uses  # the walk finds the uses there are, e.g. spectral's grid._sobolev_weights
    outside = {
        (module, name) for module, name in uses if name not in _declared_private(trees[module])
    }
    assert outside == set()


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


def test_no_global_statement():
    rebinding = {
        (path.stem, node.lineno)
        for path in sorted((SRC / "critheat").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    }
    assert rebinding == set()
