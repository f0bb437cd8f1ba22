"""Guard against code that only tests call.

Walks `src/critheat` with `ast` and collects every public top-level
function and class. A name counts as used when some code in `src/`
outside its own definition refers to it: by its bare name in its own
module or in a module that imports it, or as an attribute of a module
alias (`ev.step`). Imports, strings and same-named attributes of other
objects (`cfg.t_box`) do not count. The search runs to a fixed point, so
a name whose only users are themselves unused is unused too. Names on the
allow-list count as used, each for the reason given.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "critheat"

ALLOWED = {
    "evolution.duhamel_sample": "test oracle: samples for the mild-solution check",
    "evolution.duhamel_residual": "test oracle: the Duhamel form of a run",
    "spectral.hermitian_defect": "test oracle: realness of spectral fields",
    "evolution.heat_propagate": "test oracle: the heat semigroup that linear stepping reproduces",
    "decay.decay_indicator": "test oracle: the indicator P_r that defines the decay character",
    "evolution.save_checkpoint": "the checkpoint writer the benchmark uses for its file datum",
    "spectral.apply_multiplier": "package export",
    "bubble.rescale_field": "kept for the scale-covariance oracle",
}


def _is_public_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


class _Module:
    """One source module: its definitions, its imports, and what its code refers to."""

    def __init__(self, path: Path):
        self.name = path.stem
        self.body = ast.parse(path.read_text(encoding="utf-8")).body
        self.aliases: dict[str, str] = {}    # local name -> imported critheat module
        self.imported: dict[str, str] = {}   # local name -> qualified critheat name
        for node in self.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.aliases[local] = alias.name
                    else:
                        self.imported[local] = f"{node.module}.{alias.name}"
        self.top_level = {
            node.name for node in self.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }

    def references(self, node: ast.AST) -> set[str]:
        """Qualified critheat names that `node` refers to."""
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.imported:
                    out.add(self.imported[sub.id])
                elif sub.id in self.top_level:
                    out.add(f"{self.name}.{sub.id}")
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in self.aliases
            ):
                out.add(f"{self.aliases[sub.value.id]}.{sub.attr}")
        return out


def _modules() -> list[_Module]:
    return [_Module(path) for path in sorted(SRC.glob("*.py"))]


def unused_names() -> list[str]:
    """Public top-level names that nothing live in src/ refers to."""
    defs: dict[str, set[str]] = {}
    used_elsewhere: set[str] = set(ALLOWED)
    for mod in _modules():
        for node in mod.body:
            if _is_public_def(node):
                qualified = f"{mod.name}.{node.name}"
                defs[qualified] = mod.references(node) - {qualified}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                used_elsewhere |= mod.references(node)
    live = set(defs)
    while True:
        used = used_elsewhere.union(*(defs[q] for q in live))
        dead = live - used
        if not dead:
            return sorted(set(defs) - live)
        live -= dead


def test_every_public_name_has_a_caller_in_src():
    assert unused_names() == []


def test_allow_list_names_exist():
    defs = {
        f"{mod.name}.{node.name}" for mod in _modules() for node in mod.body if _is_public_def(node)
    }
    assert set(ALLOWED) <= defs
