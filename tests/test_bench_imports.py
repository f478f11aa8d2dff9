"""The benchmark's view of the package: every ``strata_kit`` module
attribute that ``bench/*.py`` names exists, so deleting or renaming one
that the benchmark still calls fails here rather than in the benchmark."""

import ast
import importlib
import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
PACKAGE = "strata_kit"


def _submodule(module, name):
    """``module.name`` when that is a module of the package, else None."""
    if module == PACKAGE and importlib.util.find_spec(f"{module}.{name}"):
        return f"{module}.{name}"
    return None


def _exists(module, name):
    return (_submodule(module, name) is not None
            or hasattr(importlib.import_module(module), name))


def bench_references():
    """(where, module, name) for each ``from strata_kit.m import name`` and
    each ``m.name`` with ``m`` bound to a strata_kit module in bench/*.py."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}      # local name -> the strata_kit module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == PACKAGE:
                        bound[alias.asname or PACKAGE] = (alias.name if alias.asname
                                                          else PACKAGE)
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == PACKAGE:
                for alias in node.names:
                    yield f"{path.name}:{node.lineno}", node.module, alias.name
                    sub = _submodule(node.module, alias.name)
                    if sub:
                        bound[alias.asname or alias.name] = sub
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in bound:
                yield f"{path.name}:{node.lineno}", bound[node.value.id], node.attr


def test_bench_names_only_existing_attributes():
    refs = list(bench_references())
    assert len(refs) >= 50      # the guard reads the benchmark at all
    missing = [f"{where} {module}.{name}" for where, module, name in refs
               if not _exists(module, name)]
    assert missing == []
