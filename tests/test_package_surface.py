"""Static checks of the package surface: exports resolve, privates stay
home, and the hooks the benchmark's layer tracer patches exist."""

import ast
from dataclasses import fields
from pathlib import Path

import kinetic_flow
from kinetic_flow import config, runner
from kinetic_flow.fields import MollifiedField, library_field

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


# exported names that nothing in the package calls; the list may only
# shrink, and an entry must go once its name gains a caller
UNCALLED_EXPORTS = {
    ("kernel", "kernel_density"),
}


def _definition_nodes(tree, name):
    """Top-level statements that bind ``name`` in ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            yield node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(n, ast.Name) and n.id == name
                   for t in targets for n in ast.walk(t)):
                yield node


def _loads(tree, module, name, own):
    """Does ``tree`` load ``module.name``?  ``own`` marks the defining
    module, where loads inside the name's own definition do not count."""
    skip = set()
    if own:
        for node in _definition_nodes(tree, name):
            skip.update(id(n) for n in ast.walk(node))
    local_names = {name} if own else set()
    module_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            for alias in node.names:
                if node.module == module and alias.name == name:
                    local_names.add(alias.asname or alias.name)
                elif node.module is None and alias.name == module:
                    module_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in local_names):
            return True
        if (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases):
            return True
    return False


def test_every_exported_name_has_a_caller():
    trees = modules()
    callers = {key: tree for key, tree in trees.items() if key != "__init__"}
    uncalled = set()
    for module, tree in callers.items():
        for name in declared_all(tree) or ():
            if not any(_loads(other, module, name, key == module)
                       for key, other in callers.items()):
                uncalled.add((module, name))
    assert uncalled == UNCALLED_EXPORTS, (
        f"exported without a caller: {sorted(uncalled - UNCALLED_EXPORTS)}; "
        f"called now, drop from UNCALLED_EXPORTS: "
        f"{sorted(UNCALLED_EXPORTS - uncalled)}")


def test_only_integrator_builds_philox_streams():
    # path streams and tagged non-path streams share one home
    builders = set()
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "Philox"
                    or isinstance(node, ast.alias) and node.name == "Philox"):
                builders.add(name)
    assert builders == {"integrator"}, sorted(builders - {"integrator"})


def test_only_integrator_reads_grid_tol():
    # every on-grid decision goes through integrator.step_index and
    # uniform_step, so no other module may fork the tolerance
    readers = set()
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "GRID_TOL"
                    or isinstance(node, ast.Attribute) and node.attr == "GRID_TOL"
                    or isinstance(node, ast.alias) and node.name == "GRID_TOL"):
                readers.add(name)
    assert readers == {"integrator"}, sorted(readers - {"integrator"})


def test_tracer_hooks_resolve():
    # the benchmark's layer tracer replaces the mollified field's drift
    # and sigma on the class and a library field's on the instance; the
    # runner must dispatch every experiment the config accepts, and every
    # config key must set a config field or a library-field parameter
    assert {"drift", "sigma"} <= set(MollifiedField.__dict__)
    field = library_field("hoelder-drift", 1)
    wrapper = lambda t, z: None  # noqa: E731
    field.drift = field.sigma = wrapper
    assert field.drift is wrapper and field.sigma is wrapper
    assert set(runner._DISPATCH) == set(config.EXPERIMENTS)
    names = {f.name for f in fields(config.ExperimentConfig)}
    for key, (target, _) in config._KEYS.items():
        if target not in names:
            # a field parameter: the library accepts it
            library_field("free", 1, **{target: 1.0})
