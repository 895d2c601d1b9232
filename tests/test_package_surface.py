"""Checks of the package surface: exports resolve, privates stay home,
the hooks the benchmark's layer tracer patches exist, no module imports a
scipy subpackage at module top, and a cold start leaves the scipy modules
that load at their call sites unloaded."""

import ast
import inspect
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import kinetic_flow
from kinetic_flow import config, fokker_planck, integrator, runner, zvonkin
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


# optional parameters of public functions and methods that no call in the
# package passes; the list may only shrink, and each entry gives its reason
UNPASSED_OPTIONS = {
    ("zvonkin", "duhamel_resolvent", "method"):
        "'direct' is the O(slices^2) reference the tests check the "
        "recursion against",
    ("cli", "main", "argv"):
        "the console entry point reads sys.argv; tests pass their own",
}


def _optional_parameters(fn, bound):
    """(name, positional index or None) of each parameter of ``fn`` with
    a default; ``bound`` drops the leading self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    skip = 1 if bound else 0
    for i, arg in enumerate(positional[first_default:], first_default):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _public_options(tree):
    """(definition, called name, parameter, index) of every optional
    parameter of a public top-level function, public method or
    constructor of a public class; a constructor is called by its class
    name, and calls are matched by name only."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for param, index in _optional_parameters(node, False):
                yield node.name, node.name, param, index
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name == "__init__":
                    called = node.name
                elif method.name.startswith("_"):
                    continue
                else:
                    called = method.name
                static = any(_named(d, "staticmethod")
                             for d in method.decorator_list)
                for param, index in _optional_parameters(method, not static):
                    yield node.name, called, param, index


def _passes(call, param, index):
    """Does ``call`` pass ``param``, by keyword, by position or through
    an unpacked argument?"""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return (len(call.args) > index
            or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_option_is_passed_by_a_package_caller():
    # an optional parameter that only tests set is a constant in disguise:
    # the package runs it at its default, so it should be one
    trees = modules()
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = {
        (module, definition, param)
        for module, tree in trees.items()
        for definition, called, param, index in _public_options(tree)
        if not any(_named(call.func, called) and _passes(call, param, index)
                   for call in calls)}
    assert unpassed == set(UNPASSED_OPTIONS), (
        f"options no package call passes: "
        f"{sorted(unpassed - set(UNPASSED_OPTIONS))}; passed now, drop from "
        f"UNPASSED_OPTIONS: {sorted(set(UNPASSED_OPTIONS) - unpassed)}")


def _named(node, name):
    """Is ``node`` a Name, an Attribute, an import alias, a keyword
    argument or a parameter of ``name``?"""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name
            or isinstance(node, (ast.keyword, ast.arg)) and node.arg == name)


def modules_reading(name):
    return {module for module, tree in modules().items()
            if any(_named(node, name) for node in ast.walk(tree))}


def test_only_integrator_builds_philox_streams():
    # path streams and tagged non-path streams share one home
    builders = modules_reading("Philox")
    assert builders == {"integrator"}, sorted(builders - {"integrator"})


def test_only_integrator_reads_grid_tol():
    # every on-grid decision goes through integrator.step_index and
    # uniform_step, so no other module may fork the tolerance
    readers = modules_reading("GRID_TOL")
    assert readers == {"integrator"}, sorted(readers - {"integrator"})


def test_only_integrator_reads_work_chunk_or_passes_path_offset():
    # a path task is one WORK_CHUNK chunk on streams lo .. hi - 1, and
    # integrator.map_walk is the one place that lays chunks out
    for name in ("WORK_CHUNK", "path_offset"):
        readers = modules_reading(name)
        assert readers == {"integrator"}, (name, sorted(readers))


def test_only_integrator_raises_divergence():
    # integrator.walk is the one place a path can diverge, so no other
    # module may raise DivergenceError or apply its own threshold
    raisers = set()
    for module, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                if _named(getattr(exc, "func", exc), "DivergenceError"):
                    raisers.add(module)
    assert raisers == {"integrator"}, sorted(raisers - {"integrator"})
    readers = modules_reading("DIVERGENCE_THRESHOLD")
    assert readers == {"integrator"}, sorted(readers - {"integrator"})


def test_only_integrator_flow_zvonkin_and_fokker_planck_call_parallel_map():
    # map_walk maps the estimators' path chunks, the convergence ladder and
    # the lambda search their own tasks, and the weak residual and the atom
    # table their member groups and checkpoints, so no caller of theirs
    # may wrap them in a second map
    callers = {module for module, tree in modules().items()
               if any(isinstance(node, ast.Call)
                      and _named(node.func, "parallel_map")
                      for node in ast.walk(tree))}
    assert callers == {"integrator", "flow", "zvonkin", "fokker_planck"}, (
        sorted(callers))


def test_kf_workers_is_the_one_worker_count():
    # the count means forked workers only: parallel_map reads it, the
    # lambda batches, the residual's member groups and the manifest read it
    # too, and no call in the package passes a count of its own
    readers = modules_reading("worker_count")
    assert readers == {"parallel", "zvonkin", "fokker_planck", "runner"}, (
        sorted(readers))
    passing = {module for module, tree in modules().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and any(kw.arg == "workers" for kw in node.keywords)}
    assert passing == set(), sorted(passing)


def test_tracer_hooks_resolve():
    # the benchmark's layer tracer replaces the mollified field's drift
    # and sigma on the class and a library field's on the instance; the
    # runner must dispatch every experiment the config accepts, and every
    # config key must set a config field or a library-field parameter
    assert {"drift", "sigma"} <= set(MollifiedField.__dict__)
    # it replaces these methods through the class __dict__, reads these
    # dataclass fields, constants and call parameters
    member = fokker_planck.TestFunction
    assert "generator_apply" in member.__dict__
    assert ({"value", "grad_x", "grad_v", "hess_v"}
            <= {f.name for f in fields(member)})
    assert isinstance(integrator.KEY_CHUNK, int)
    assert "normals" in integrator.BrownianGrid.__dict__
    assert ({"z0", "brownian"}
            <= set(inspect.signature(integrator.evolve).parameters))
    assert "lam" in inspect.signature(zvonkin.picard_solve).parameters
    assert "grad_v" in zvonkin.SpaceTimeField.__dict__
    assert ({"shift", "velocity_gradient"}
            <= set(zvonkin.ZvonkinTransform.__dict__))
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


COLD_START = """
import sys
sys.path.insert(0, {src!r})
import kinetic_flow.config, kinetic_flow.runner
deferred = ("scipy.ndimage", "scipy.stats")
print(sorted(m for m in deferred if m in sys.modules))
import numpy as np
from kinetic_flow import fokker_planck, krylov, zvonkin
atoms = np.random.default_rng(0).standard_normal((200, 2))
law = fokker_planck.exact_measure_constant(0.5, [0.0, 0.0], 1.0)
print(fokker_planck.measure_distance(
    fokker_planck.EmpiricalMeasure(1.0, atoms), law) > 0.0)
print(len(krylov.bump_family()))
transform = zvonkin.zvonkin_transform(
    zvonkin.SpaceTimeField.zeros(2, 0.5, 6.0, 8, 1, 0.5), np.eye(1))
print(np.array_equal(transform.shift(1, atoms), np.zeros((200, 1))))
print(sorted(m for m in deferred if m in sys.modules))
"""


def test_cold_import_defers_scipy_stats_and_ndimage():
    # a fresh `kinetic-flow run` process imports config and runner; the
    # Gaussian distance, the Halton centres and the spline interpolation
    # import their scipy modules when they run
    script = COLD_START.format(src=str(PACKAGE_DIR.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "[]", "True", "20", "True", "['scipy.ndimage', 'scipy.stats']", ""]


def module_top_imports(tree):
    """Import statements that run when the module is imported: outside
    every function body, class bodies included."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_module_imports_a_scipy_subpackage_at_module_top():
    # every scipy subpackage loads at its call site; only runner's bare
    # `import scipy`, for the manifest's version line, loads at import
    found = set()
    for module, tree in modules().items():
        for node in module_top_imports(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif node.level == 0 and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found.update((module, name) for name in names
                         if name.split(".")[0] == "scipy")
    assert found == {("runner", "scipy")}, sorted(found)


# scipy's own bootstrap, which a bare `import scipy` loads
SCIPY_BOOTSTRAP = ("_lib", "_cyutility", "_distributor_init", "__config__",
                   "version")

NUMPY_ONLY_RUNS = r"""
import os, sys, tempfile
src, bootstrap = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
os.environ["KF_WORKERS"] = "2"
from kinetic_flow.config import parse_config_text
from kinetic_flow.runner import run_experiment
print("numpy.random" in sys.modules)
texts = [
    "experiment = converge\nT = 0.25\ndt = 0.0625\nN = 128\np = 7\n"
    "n_ladder = 2,4,8\n",
    "experiment = flow\nT = 0.25\ndt = 0.0625\nN = 128\n",
    "experiment = fokker-planck\nT = 0.25\ndt = 0.0625\nN = 1000\n",
]
with tempfile.TemporaryDirectory() as tmp:
    for i, text in enumerate(texts):
        run_experiment(parse_config_text(
            text + f"seed = 3\nfield.name = hoelder-drift\noutput = {tmp}/{i}\n"))
print(sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
             - set(bootstrap)))
"""


def test_converge_flow_and_fokker_planck_runs_load_no_scipy_subpackage():
    # a fresh `kinetic-flow run` process of the mollification ladder, the
    # coupled flow or the particle measure needs numpy only; numpy.random
    # loads with the package, so forked workers do not import it each
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_RUNS, str(PACKAGE_DIR.parent),
         *SCIPY_BOOTSTRAP], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n[]\n"
