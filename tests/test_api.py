"""The package keeps no knob that no caller turns.

A defaulted parameter stays only if a call inside `src/loopstar` sets it,
or if it is one of the few kept for a stated reason below.  Calls are
matched by the called name alone (a plain name or the attribute after the
last dot), so a call of any function of that name counts, and a call
through a stored reference, such as `check.run(*args)` in `run_checks`,
is not seen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "loopstar"

# Defaulted parameters that no call inside the package sets, each with its reason.
ALLOWED = {
    "cli.main(argv)",                               # the test hook; the console script passes none
    "serialization.deserialize_fock(scalar_mode)",  # parses outside input; a reader may force its mode
    "modes.profile_table(order)",                   # pinned bit for bit to mode_profile(order)
    "poisson.moyal_star(max_degree)",               # mirrors star_A(max_degree)
    "suites.product_formula_failures(N)",           # the acceptance gate sets its scale through N
    "suites.product_formula_failures(R)",           # the acceptance gate sets its scale through R
    "suites._covariance(xi)",                       # replay: run(cfg, seed) draws the batch itself
    "suites._holder_bounded(xi)",                   # replay: run(cfg, seed) draws the batch itself
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


def unset_defaults() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    out = []
    for module, tree in trees.items():
        for label, called, index, param in _defaulted(module, tree):
            if not any(name == called and (param in keywords or (index is not None and n > index))
                       for name, n, keywords in calls):
                out.append(f"{label}({param})")
    return sorted(out)


def test_every_default_is_set_by_a_caller():
    assert unset_defaults() == sorted(ALLOWED)
