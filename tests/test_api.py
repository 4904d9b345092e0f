"""The package keeps no knob that no caller turns, no function that nothing
reads, and exports what it imports.

A defaulted parameter stays only if a call inside `src/loopstar` sets it
and another leaves it, or if it is one of the few kept for a stated reason
below.  Calls are matched by the called name alone (a plain name or the
attribute after the last dot), so a call of any function of that name
counts, and a call through a stored reference, such as `check.run(*args)`
in `run_checks`, is not seen.  A function or method stays only if
`src/loopstar` reads its name, matched the same way, or `loopstar.__all__`
exports it.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "loopstar"

# Defaulted parameters that no call inside the package sets, each with its reason.
ALLOWED = {
    "cli.main(argv)",                               # the test hook; the console script passes none
    "suites.product_formula_failures(N)",           # the acceptance gate sets its scale through N
    "suites.product_formula_failures(R)",           # the acceptance gate sets its scale through R
}

# Defaulted parameters that every call inside the package sets, each with its reason.
KEPT = {
    "config.parse_config(where)",                   # a document read from no file has no path
}


def _defaulted(module: str, tree: ast.Module):
    """(label, called name, positional index or None, parameter) per defaulted parameter."""
    owner = {id(fn): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for fn in node.body if isinstance(fn, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = owner.get(id(fn))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        shift = 1 if cls and not static else 0              # self or cls is not passed
        called = cls if cls and fn.name in ("__init__", "__new__") else fn.name
        label = f"{module}.{cls + '.' if cls else ''}{fn.name}"
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield label, called, i - shift, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield label, called, None, arg.arg


def _calls(tree: ast.Module):
    """(called name, positional count, keyword names) per call; `cls(...)` calls its class."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                owners.setdefault(id(sub), node.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "cls":
            name = owners.get(id(node), name)
        yield name, len(node.args), {k.arg for k in node.keywords}


def _setting(want) -> list[str]:
    """Defaulted parameters for which `want` holds of their calls in the package.

    `want` gets one bool per call of the parameter's called name: whether it sets it.
    """
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    out = []
    for module, tree in trees.items():
        for label, called, index, param in _defaulted(module, tree):
            sets = [param in keywords or (index is not None and n > index)
                    for name, n, keywords in calls if name == called]
            if want(sets):
                out.append(f"{label}({param})")
    return sorted(out)


def test_every_default_is_set_by_a_caller():
    assert _setting(lambda sets: not any(sets)) == sorted(ALLOWED)


def test_no_default_is_set_by_every_caller():
    # A default that every call overrides is a second copy of a value kept elsewhere.
    assert _setting(lambda sets: sets and all(sets)) == sorted(KEPT)


def test_public_names_resolve():
    """`loopstar.__all__` names each public name of the package once, and each resolves."""
    import loopstar
    assert len(loopstar.__all__) == len(set(loopstar.__all__))
    assert [name for name in loopstar.__all__ if not hasattr(loopstar, name)] == []
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(name for name in imported
                  if not name.startswith("_") and name not in loopstar.__all__) == []


def _defined(module: str, tree: ast.Module):
    """(label, name) of each function and method `tree` defines, nested ones too."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                yield f"{prefix}{child.name}", child.name
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, f"{module}.")


def _read_names(tree: ast.Module) -> set[str]:
    """Names `tree` reads: a plain name, or the attribute after the last dot."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_function_is_read():
    """A function or method that the package never reads and does not export is dead."""
    import loopstar
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()), loopstar.__all__)
    assert sorted(label for module, tree in trees.items() for label, name in _defined(module, tree)
                  if not (name.startswith("__") and name.endswith("__")) and name not in read) == []


def _unread_imports(path: Path) -> list[str]:
    """Names `path` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read - {"annotations"})


def test_no_unread_imports():
    root = SRC.parents[1]
    files = [p for d in (SRC, root / "tests", root / "demos") for p in sorted(d.glob("*.py"))
             if p.name != "__init__.py"]
    assert {str(p.relative_to(root)): names for p in files
            if (names := _unread_imports(p))} == {}


# Modules that importing loopstar loads beyond what numpy has loaded.  Each
# one is set-up time of every `verify` run; `concurrent.futures`, for one,
# costs 5-8 ms after numpy (`python -X importtime`) and is not on the list.
IMPORT_ALLOWED = {"__future__", "_decimal", "_json", "copy", "dataclasses", "decimal",
                  "fractions", "json", "json.decoder", "json.encoder", "json.scanner"}

IMPORT_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
import loopstar
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_allowed_modules():
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "loopstar" in loaded
    assert sorted(m for m in loaded - IMPORT_ALLOWED
                  if m != "loopstar" and not m.startswith("loopstar.")) == []
