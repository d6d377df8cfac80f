"""Every function in ``src/meskf`` is called from the package, or is a
hook that something else calls.

A function or method passes when any of these holds:

- its name appears elsewhere in ``src/meskf``, as a name, an attribute
  or an import alias (so the ``meskf/__init__`` exports count);
- it is a method that overrides one of a base class, such as
  ``cli._Parser.error``, or a dunder hook that Python or ``dataclasses``
  calls, such as ``__post_init__``;
- the benchmark's tracer names it in ``BOUNDARIES`` (``bench/tracer.py``,
  read from the file as ``test_bench_boundaries`` reads it).

What fails is code that nothing runs; the fix is to delete it, or to
move a test oracle into the tests.

The test oracles in ``tests/oracles.py`` are held to the same rule:
every function there is referenced from a test module, or from an
oracle function that is, so a deleted oracle leaves no orphan helper.
"""
import ast
import importlib
from pathlib import Path

from test_bench_boundaries import bench_module

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "meskf"


def _module_name(path):
    rel = path.relative_to(PACKAGE.parent).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def _definitions(tree):
    """(class name or None, function name) of every def, methods with
    their class."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item] = node.name
    return [(methods.get(node), node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
            names.add(node.asname)
    return names


def _is_hook(modname, cls, name):
    if cls is None:
        return False
    if name.startswith("__") and name.endswith("__"):
        return True
    bases = getattr(importlib.import_module(modname), cls).__mro__[1:]
    return any(hasattr(base, name) for base in bases)


def test_every_function_has_a_caller():
    traced = {(modname, qual.rsplit(".", 1)[-1])
              for _, modname, qual in bench_module("tracer").BOUNDARIES}
    trees = {_module_name(p): ast.parse(p.read_text())
             for p in sorted(PACKAGE.rglob("*.py"))}
    referenced = set().union(*map(_referenced, trees.values()))
    dead = [f"{modname}.{name if cls is None else f'{cls}.{name}'}"
            for modname, tree in trees.items()
            for cls, name in _definitions(tree)
            if name not in referenced
            and (modname, name) not in traced
            and not _is_hook(modname, cls, name)]
    assert not dead, f"defined in src/meskf but never called: {dead}"


def _oracle_uses(tree):
    """The names that a test module takes from the oracles:
    ``oracles.<name>`` and ``from oracles import <name>``."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "oracles"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
            names.update(alias.name for alias in node.names)
    return names


def test_every_oracle_is_used_by_a_test():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    # what each top-level function or class calls in the module: bare
    # names, not attributes such as projection.project_position
    bodies = {node.name: {n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name)}
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set().union(*(_oracle_uses(ast.parse(p.read_text()))
                         for p in TESTS.glob("test_*.py")))
    reached, todo = set(), used & bodies.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (bodies[name] & bodies.keys()) - reached
    unused = sorted(bodies.keys() - reached)
    assert not unused, f"in tests/oracles.py but used by no test: {unused}"
