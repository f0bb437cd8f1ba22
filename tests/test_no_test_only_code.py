"""Guard against code that only tests call.

Walks `src/critheat` with `ast` and collects every public top-level
function and class. A name counts as used when some code in `src/`
outside its own definition refers to it: by its bare name in its own
module or in a module that imports it, or as an attribute of a module
alias (`ev.step`). Imports, strings and same-named attributes of other
objects (`cfg.t_box`) do not count. The search runs to a fixed point, so
a name whose only users are themselves unused is unused too. Names on the
allow-list count as used, each for the reason given.

The members of public classes get a looser check: each annotated field,
attribute set in `__init__` and public method must be read as an
attribute (`x.name`) somewhere in `src/`, on any object. A class whose
fields are enumerated with `fields(...)` is exempt, since that reads
them all.

A module binds a name from another critheat module only to use it: each
name it imports from one is referenced in its own code. A binding kept
only so that a test can wrap it there fails this. `__init__.py` is exempt,
since its imports are the package's public API.

A defaulted parameter of a top-level function or method needs two values
in `src/`: the values its calls there give it, an omitted argument
counting as the default, a literal as its value and any other expression
as varying. A call is resolved by name as above, and through a class
(`RadialQuadrature.build`); a parameter that takes one value is a
constant, and one that no call reaches is test-only. Some call in `src/`
must also omit it, or its default serves only tests. The same holds for
the field defaults of a dataclass that `src/` constructs by name: its
fields are the parameters of its constructor, a `field(init=False)` is
none. `HarnessConfig` is left to the config-key rule below, since its
defaults are what a config file leaves unset.

A config key, a field of `HarnessConfig`, needs two values across its
default and the per-experiment defaults, or it is a constant; the
allow-list names the keys that state the problem rather than how a run
is judged, each set by a user or the benchmark.
"""

import ast
from dataclasses import fields
from pathlib import Path

from critheat.config import _EXPERIMENT_DEFAULTS, HarnessConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "critheat"

ALLOWED = {
    "evolution.duhamel_sample": "test oracle: samples for the mild-solution check",
    "evolution.duhamel_residual": "test oracle: the Duhamel form of a run",
    "evolution.heat_propagate": "test oracle: the heat semigroup that linear stepping reproduces",
    "decay.decay_indicator": "test oracle: the indicator P_r that defines the decay character",
    "evolution.save_checkpoint": "the checkpoint writer the benchmark uses for its file datum",
}

MEMBERS_ALLOWED: dict[str, str] = {}

DEFAULTS_ALLOWED = {
    "cli.main.argv": "the console entry point calls main() with no argument; tests pass argv",
    "evolution.step.forcing": "the manufactured-solution hook of criterion 10a; advance passes none",
}

CONFIG_ALLOWED = {
    "side_length": "the grid of a problem: the benchmark's workloads set it",
    "snapshot_count": "how densely a problem is sampled: the benchmark's workloads set it",
    "delta": "defines the datum: its size against ||grad W||",
    "profile_r": "defines the datum: its q*",
    "cutoff_rho": "defines the datum: its frequency cutoff",
    "datum_file": "the path of a file datum",
}

_VARYING = object()


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


def unreferenced_imports() -> list[str]:
    """Names a module imports from another critheat module and never refers to."""
    out = []
    for mod in _modules():
        if mod.name == "__init__":
            continue
        referenced = {
            sub.id
            for node in mod.body
            if not isinstance(node, (ast.Import, ast.ImportFrom))
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name)
        }
        bound = set(mod.aliases) | set(mod.imported)
        out += [f"{mod.name}.{name}" for name in sorted(bound - referenced)]
    return out


def _members(cls: ast.ClassDef) -> list[str]:
    """Annotated fields, attributes set in `__init__` and methods of a class."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            names += [
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ]
        elif isinstance(node, ast.FunctionDef):
            names.append(node.name)
    return [name for name in names if not name.startswith("_")]


def unread_members() -> list[str]:
    """Members of public classes that no code in src/ reads as an attribute."""
    modules = _modules()
    read: set[str] = set()
    enumerated: set[str] = set()
    for mod in modules:
        for sub in ast.walk(ast.Module(body=mod.body, type_ignores=[])):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "fields"
            ):
                enumerated |= {arg.id for arg in sub.args if isinstance(arg, ast.Name)}
    unread = []
    for mod in modules:
        for cls in mod.body:
            if not (isinstance(cls, ast.ClassDef) and _is_public_def(cls)):
                continue
            if cls.name in enumerated:
                continue
            unread += [
                f"{mod.name}.{cls.name}.{name}"
                for name in _members(cls)
                if name not in read and f"{mod.name}.{cls.name}.{name}" not in MEMBERS_ALLOWED
            ]
    return sorted(unread)


def _dataclass_init(cls: ast.ClassDef) -> tuple[list[str], dict[str, ast.AST]] | None:
    """The constructor's parameters and their defaults of a dataclass, None for another class."""
    decorators = {
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) for d in cls.decorator_list
    }
    if "dataclass" not in decorators:
        return None
    positional, defaults = [], {}
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        default = node.value
        if isinstance(default, ast.Call):  # dataclasses.field(...)
            options = {kw.arg: kw.value for kw in default.keywords}
            if "init" in options and _value(options["init"]) is False:
                continue
            default = options.get("default", options.get("default_factory"))
        positional.append(node.target.id)
        if default is not None:
            defaults[node.target.id] = default
    return positional, defaults


def _dataclass_inits() -> dict[str, tuple[list[str], dict[str, ast.AST], int]]:
    """Qualified class name -> its constructor, as `_defaulted_functions` gives a function."""
    out = {}
    for mod in _modules():
        for node in mod.body:
            init = isinstance(node, ast.ClassDef) and _dataclass_init(node)
            if init and init[1] and f"{mod.name}.{node.name}" != "config.HarnessConfig":
                out[f"{mod.name}.{node.name}"] = (*init, 0)
    return out


def _defaulted_functions() -> dict[str, tuple[list[str], dict[str, object], int]]:
    """Qualified name -> (positional parameters, defaults by parameter, bound leading ones)."""
    out = {}
    for mod in _modules():
        for node in mod.body:
            defs = [(f"{mod.name}.{node.name}", node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [
                    (f"{mod.name}.{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
            for qualified, fn in defs:
                args = fn.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaults = dict(zip(defaulted, args.defaults))
                defaults.update(
                    (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                )
                bound = any(
                    isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list
                )
                if defaults:
                    out[qualified] = (positional, defaults, int(bound))
    return out


def _value(node: ast.AST) -> object:
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _VARYING


def _qualified_callee(mod: _Module, func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        if func.id in mod.imported:
            return mod.imported[func.id]
        return f"{mod.name}.{func.id}" if func.id in mod.top_level else None
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in mod.aliases:
            return f"{mod.aliases[func.value.id]}.{func.attr}"
        owner = _qualified_callee(mod, func.value)
        return None if owner is None else f"{owner}.{func.attr}"
    return None


def single_valued_defaults() -> list[str]:
    """Defaulted parameters that every call in src/ gives one value, or none leaves to default.

    A dataclass counts only if src/ constructs it.
    """
    classes = _dataclass_inits()
    functions = {**_defaulted_functions(), **classes}
    values: dict[str, list[object]] = {
        f"{q}.{name}": [] for q, (_, defaults, _) in functions.items() for name in defaults
    }
    defaulted: set[str] = set()
    called: set[str] = set()
    for mod in _modules():
        for call in ast.walk(ast.Module(body=mod.body, type_ignores=[])):
            if not isinstance(call, ast.Call):
                continue
            callee = _qualified_callee(mod, call.func)
            if callee not in functions:
                continue
            called.add(callee)
            positional, defaults, bound = functions[callee]
            given = dict(zip(positional[bound:], call.args))
            given.update((kw.arg, kw.value) for kw in call.keywords)
            spread = any(isinstance(a, ast.Starred) for a in call.args) or None in given
            for name, default in defaults.items():
                node = given.get(name, default)
                values[f"{callee}.{name}"].append(_VARYING if spread else _value(node))
                if spread or node is default:
                    defaulted.add(f"{callee}.{name}")
    return sorted(
        name
        for name, seen in values.items()
        if name not in DEFAULTS_ALLOWED
        and (name.rsplit(".", 1)[0] not in classes or name.rsplit(".", 1)[0] in called)
        and (
            name not in defaulted
            or _VARYING not in seen and len({repr(v) for v in seen}) < 2
        )
    )


def test_every_public_name_has_a_caller_in_src():
    assert unused_names() == []


def test_allow_list_names_exist():
    defs = {
        f"{mod.name}.{node.name}" for mod in _modules() for node in mod.body if _is_public_def(node)
    }
    assert set(ALLOWED) <= defs


def test_every_class_member_is_read_in_src():
    assert unread_members() == []


def test_member_allow_list_names_exist():
    members = {
        f"{mod.name}.{cls.name}.{name}"
        for mod in _modules()
        for cls in mod.body
        if isinstance(cls, ast.ClassDef)
        for name in _members(cls)
    }
    assert set(MEMBERS_ALLOWED) <= members


def test_every_critheat_import_is_referenced():
    assert unreferenced_imports() == []


def test_every_default_takes_two_values_in_src():
    assert single_valued_defaults() == []


def test_default_allow_list_names_exist():
    params = {
        f"{q}.{name}"
        for q, (_, defaults, _) in _defaulted_functions().items()
        for name in defaults
    }
    assert set(DEFAULTS_ALLOWED) <= params


def single_valued_config_keys() -> list[str]:
    """Config keys that take one value across their default and every experiment default."""
    default = HarnessConfig()
    return sorted(
        f.name
        for f in fields(HarnessConfig)
        if f.name not in CONFIG_ALLOWED
        and len(
            {repr(getattr(default, f.name))}
            | {repr(over[f.name]) for over in _EXPERIMENT_DEFAULTS.values() if f.name in over}
        )
        < 2
    )


def test_every_config_key_takes_two_values():
    assert single_valued_config_keys() == []


def test_config_allow_list_names_exist():
    assert set(CONFIG_ALLOWED) <= {f.name for f in fields(HarnessConfig)}
