"""Package hygiene: every name a module imports is used in that module,
every private helper is named somewhere in the package besides its def,
every public name is used somewhere in src/, tests/ or bench/, and every
name a function assigns is read."""

import ast
import pathlib

import strata_kit


def imported_names(tree):
    """(name, lineno) for every binding an import statement creates."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    unused = []
    for path in sorted(pathlib.Path(strata_kit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree) if name not in used]
    assert unused == []


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_defs(tree):
    """(name, lineno) for every _private top-level function or class and
    every _private method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and is_private(item.name):
                    yield item.name, item.lineno
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and is_private(node.name)):
            yield node.name, node.lineno


def named(trees):
    """Every name the trees use: as a variable, an attribute or an import."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def test_no_orphaned_private_helpers():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(strata_kit.__file__).parent.glob("*.py")}
    used = named(trees.values())
    orphans = [f"{file}:{line} {name}" for file, tree in sorted(trees.items())
               for name, line in private_defs(tree) if name not in used]
    assert orphans == []


def public_defs(tree):
    """(name, lineno) for every public top-level function or class and every
    public method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item.lineno
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.lineno


def test_no_dead_entry_points():
    """Every public name the package defines is used in src/, tests/ or
    bench/, besides its def."""
    package = pathlib.Path(strata_kit.__file__).parent
    root = package.parent.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (package, root / "tests", root / "bench")
             for path in folder.glob("*.py")}
    used = named(trees.values())
    dead = [f"{path.name}:{line} {name}"
            for path, tree in sorted(trees.items()) if path.parent == package
            for name, line in public_defs(tree) if name not in used]
    assert dead == []


def unused_locals(tree):
    """(function, name, lineno) for every name a function body assigns but
    never reads, nested functions included; ``_`` and names declared global
    or nonlocal are exempt, and ``x += ...`` counts as a read of x."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        stored, loaded = {}, {"_"}
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                loaded.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                loaded.add(node.target.id)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    loaded.add(node.id)
        for name, line in stored.items():
            if name not in loaded:
                yield fn.name, name, line


def test_no_unused_locals():
    unused = []
    for path in sorted(pathlib.Path(strata_kit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused += [f"{path.name}:{line} {fn}: {name}"
                   for fn, name, line in unused_locals(tree)]
    assert unused == []
