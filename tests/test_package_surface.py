"""Static checks of the package surface: exports resolve, privates stay home."""

import ast
from pathlib import Path

import kinetic_flow

PACKAGE_DIR = Path(kinetic_flow.__file__).resolve().parent

# no module imports another module's private names
ALLOWED_PRIVATE_IMPORTS = set()


def modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE_DIR.glob("*.py"))}


def top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return names


def declared_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def test_every_exported_name_resolves():
    trees = modules()
    assert "__init__" in trees and len(trees) > 10
    checked = 0
    for name, tree in trees.items():
        exported = declared_all(tree)
        if exported is None:
            continue
        missing = sorted(set(exported) - top_level_names(tree))
        assert not missing, f"{name}.__all__ names undefined {missing}"
        checked += 1
    assert checked >= 10


def test_no_private_imports_between_modules():
    found = set()
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.add((name, node.module, alias.name))
    assert found <= ALLOWED_PRIVATE_IMPORTS, sorted(found - ALLOWED_PRIVATE_IMPORTS)
