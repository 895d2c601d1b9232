"""Spans and counters around the layers of ``kinetic_flow``, from outside.

`Tracer.install` replaces public callables of the loaded package with
wrappers that record a span (name, start, end, parent) and count work
done at the same boundary.  Nothing inside the package changes: module
functions are rebound in every ``kinetic_flow`` module that bound them
(a ``from ... import`` copies the name), methods are replaced on their
class, and the per-instance closures of library fields and of the
weak-form test dictionary are wrapped by wrapping the factories that
build them.  Spans stay in memory until `write_spans`; `summary` turns
them into the benchmark's per-layer metrics.

Base-drift evaluations made inside ``MollifiedField.drift`` are counted
but get no span of their own, so ``fields.mollified_drift_s`` includes
the base-drift work the mollifier pays for.  Every other ``*_s`` metric
is a self time: span duration minus the part of it that child spans
cover, children on pool threads included.  ``parallel.map_s`` is the
exception: its children run on other threads, so it reports the map's
whole duration.
"""

import dataclasses
import functools
import inspect
import json
import math
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "kinetic_flow"


def _states(z):
    """Number of phase-space states in an array of shape (..., 2d)."""
    return math.prod(np.shape(z)[:-1])


class Tracer:
    """In-memory span and counter store for one traced experiment run."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, thread id]
        self.counts = Counter()
        self.picard_calls = []     # (lam, sweeps, converged)
        self.accepted_lam = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parent = None
        self._patches = []
        self._live_path_bytes = 0
        self._noise_paths = defaultdict(set)

    # -- spans and counters ------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        start = time.perf_counter()
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, start, None, parent, threading.get_ident()])
        stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def timed(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args, kwargs) and after(result, args,
        kwargs) record counts at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace ``original`` in every package module that bound it."""
        bound = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{original!r} is bound in no {PACKAGE} module")

    def _replace_method(self, cls, attr, factory):
        original = cls.__dict__[attr]
        setattr(cls, attr, factory(original))
        self._patches.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def install(self):
        """Wrap the package's layer boundaries; the package must be imported."""
        from kinetic_flow import (fields, flow, fokker_planck, integrator,
                                  parallel, runner, zvonkin)

        self._install_integrator(integrator)
        self._install_fields(fields)
        for name in ("convergence_study", "two_point_moment"):
            self._rebind(getattr(flow, name),
                         self.timed(f"flow.{name}", getattr(flow, name)))
        self._install_zvonkin(zvonkin)
        self._install_fokker_planck(fokker_planck)
        self._rebind(runner.run_experiment,
                     self.timed("runner.run_experiment", runner.run_experiment))
        self._rebind(parallel.parallel_map,
                     self._pool_wrapper(parallel.parallel_map))

    def _install_integrator(self, integrator):
        chunk = integrator.KEY_CHUNK
        evolve_sig = inspect.signature(integrator.evolve)

        def before_evolve(args, kwargs):
            bound = evolve_sig.bind(*args, **kwargs).arguments
            paths = np.atleast_2d(np.asarray(bound["z0"])).shape[0]
            self.count("integrator.path_steps", paths * bound["brownian"].num_steps)

        def after_evolve(traj, args, kwargs):
            nbytes = traj.states.nbytes
            with self._lock:
                self._live_path_bytes += nbytes
                peak = max(self.counts["integrator.path_bytes_peak"],
                           self._live_path_bytes)
                self.counts["integrator.path_bytes_peak"] = peak
            weakref.finalize(traj.states, self._release_path_bytes, nbytes)

        self._rebind(integrator.evolve, self.timed(
            "integrator.evolve", integrator.evolve, before_evolve, after_evolve))

        def before_normals(args, kwargs):
            grid, lo, hi = args[0], args[1], args[2]
            per_path = grid.num_steps * 2 * grid.dim
            blocks = (hi - 1) // chunk - lo // chunk + 1
            self.count("integrator.normals_drawn", blocks * chunk * per_path)
            key = (grid.master_seed, grid.dt, grid.num_steps, grid.dim)
            with self._lock:
                self._noise_paths[key].update(range(lo, hi))

        self._replace_method(integrator.BrownianGrid, "normals", lambda fn: self.timed(
            "integrator.normals", fn, before_normals))

    def _release_path_bytes(self, nbytes):
        with self._lock:
            self._live_path_bytes -= nbytes

    def _install_fields(self, fields):
        def plain_drift(fn):
            timed = self.timed(
                "fields.drift", fn,
                lambda args, kw: self.count("fields.drift_states", _states(args[1])))

            @functools.wraps(fn)
            def drift(t, z):
                if self.current() == "fields.mollified_drift":
                    self.count("fields.base_drift_evals", _states(z))
                    return fn(t, z)
                return timed(t, z)

            return drift

        def library_field(fn):
            @functools.wraps(fn)
            def build(*args, **kwargs):
                field = fn(*args, **kwargs)
                field.drift = plain_drift(field.drift)
                field.sigma = self.timed("fields.sigma", field.sigma)
                return field

            return build

        self._rebind(fields.library_field, library_field(fields.library_field))
        self._replace_method(fields.MollifiedField, "drift", lambda fn: self.timed(
            "fields.mollified_drift", fn,
            lambda args, kw: self.count("fields.mollified_drift_states",
                                        _states(args[2]))))
        self._replace_method(fields.MollifiedField, "sigma",
                             lambda fn: self.timed("fields.sigma", fn))

    def _install_zvonkin(self, zvonkin):
        def before_resolvent(args, kwargs):
            self.count("zvonkin.slice_updates", args[0].num_slices - 1)
            if self.current() == "zvonkin.picard":
                self.count("zvonkin.picard_sweeps")

        self._rebind(zvonkin.duhamel_resolvent, self.timed(
            "zvonkin.resolvent", zvonkin.duhamel_resolvent, before_resolvent))

        picard_sig = inspect.signature(zvonkin.picard_solve)
        original_picard = zvonkin.picard_solve

        @functools.wraps(original_picard)
        def picard_solve(*args, **kwargs):
            lam = picard_sig.bind(*args, **kwargs).arguments["lam"]
            self.count("zvonkin.lambda_tried")
            sweeps_before = self.counts["zvonkin.picard_sweeps"]
            converged = False
            sid = self.open("zvonkin.picard")
            try:
                result = original_picard(*args, **kwargs)
                converged = True
                return result
            finally:
                self.close(sid)
                sweeps = self.counts["zvonkin.picard_sweeps"] - sweeps_before
                self.picard_calls.append((float(lam), sweeps, converged))

        self._rebind(original_picard, picard_solve)

        def after_search(result, args, kwargs):
            self.accepted_lam = float(result.u.lam)

        self._rebind(zvonkin.search_lambda, self.timed(
            "zvonkin.search_lambda", zvonkin.search_lambda, after=after_search))
        self._rebind(zvonkin.zvonkin_transform, self.timed(
            "zvonkin.transform", zvonkin.zvonkin_transform))
        self._rebind(zvonkin.transformed_sde_residual, self.timed(
            "zvonkin.residual", zvonkin.transformed_sde_residual))
        self._replace_method(zvonkin.SpaceTimeField, "grad_v",
                             lambda fn: self.timed("zvonkin.grad_v", fn))

        def count_points(args, kwargs):
            self.count("zvonkin.interp_points", _states(args[2]))

        for method in ("shift", "velocity_gradient"):
            self._replace_method(zvonkin.ZvonkinTransform, method, lambda fn: self.timed(
                "zvonkin.interp", fn, count_points))

    def _install_fokker_planck(self, fp):
        for name, span in (("particle_measure", "fokker_planck.particle_measure"),
                           ("weak_residual", "fokker_planck.weak_residual"),
                           ("checkpoints_to_csv", "fokker_planck.atoms_csv")):
            self._rebind(getattr(fp, name), self.timed(span, getattr(fp, name)))
        self._replace_method(fp.TestFunction, "generator_apply", lambda fn: self.timed(
            "fokker_planck.generator_apply", fn,
            lambda args, kw: self.count("fokker_planck.generator_apply_calls")))

        def counted(closure):
            if closure is None:
                return None

            @functools.wraps(closure)
            def evaluate(z):
                self.count("fokker_planck.test_evals", _states(z))
                return closure(z)

            return evaluate

        original = fp.test_dictionary

        @functools.wraps(original)
        def test_dictionary(*args, **kwargs):
            return [
                dataclasses.replace(
                    member, value=counted(member.value),
                    grad_x=counted(member.grad_x), grad_v=counted(member.grad_v),
                    hess_v=counted(member.hess_v))
                for member in original(*args, **kwargs)
            ]

        self._rebind(original, test_dictionary)

    def _pool_wrapper(self, fn):
        @functools.wraps(fn)
        def parallel_map(func, items, *args, **kwargs):
            items = list(items)
            self.count("parallel.tasks", len(items))
            sid = self.open("parallel.map")
            outer, self._pool_parent = self._pool_parent, sid
            try:
                return fn(func, items, *args, **kwargs)
            finally:
                self._pool_parent = outer
                self.close(sid)

        return parallel_map

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the union of child intervals."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def _has_ancestor(self, sid, prefix):
        parent = self.spans[sid][3]
        while parent is not None:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self):
        """The benchmark's per-layer metrics for this run (values only)."""
        self_s = defaultdict(float)
        for (name, *_), value in zip(self.spans, self.self_times()):
            self_s[name] += value
        counts = self.counts
        needed = sum(len(paths) * key[2] * 2 * key[3]
                     for key, paths in self._noise_paths.items())
        drawn = counts["integrator.normals_drawn"]
        sweeps = sum(s for _, s, _ in self.picard_calls)
        accepted = sum(s for lam, s, ok in self.picard_calls
                       if ok and lam == self.accepted_lam)
        map_s = sum(end - start for name, start, end, _, _ in self.spans
                    if name == "parallel.map")
        evolve_calls = sum(
            1 for sid, span in enumerate(self.spans)
            if span[0] == "integrator.evolve" and self._has_ancestor(sid, "flow."))
        return {
            "integrator.evolve_s": self_s["integrator.evolve"],
            "integrator.noise_s": self_s["integrator.normals"],
            "integrator.path_steps": counts["integrator.path_steps"],
            "integrator.normals_drawn": drawn,
            "integrator.normals_needed": needed,
            "integrator.noise_use_ratio": needed / drawn if drawn else 0.0,
            "integrator.path_bytes_peak": counts["integrator.path_bytes_peak"],
            "fields.drift_s": self_s["fields.drift"],
            "fields.drift_states": counts["fields.drift_states"],
            "fields.sigma_s": self_s["fields.sigma"],
            "fields.mollified_drift_s": self_s["fields.mollified_drift"],
            "fields.mollified_drift_states": counts["fields.mollified_drift_states"],
            "fields.base_drift_evals": counts["fields.base_drift_evals"],
            "flow.convergence_study_s": self_s["flow.convergence_study"],
            "flow.two_point_moment_s": self_s["flow.two_point_moment"],
            "flow.evolve_calls": evolve_calls,
            "zvonkin.resolvent_s": self_s["zvonkin.resolvent"],
            "zvonkin.slice_updates": counts["zvonkin.slice_updates"],
            "zvonkin.picard_sweeps": counts["zvonkin.picard_sweeps"],
            "zvonkin.lambda_tried": counts["zvonkin.lambda_tried"],
            "zvonkin.sweep_use_ratio": accepted / sweeps if sweeps else 0.0,
            "zvonkin.grad_v_s": self_s["zvonkin.grad_v"],
            "zvonkin.interp_s": self_s["zvonkin.interp"],
            "zvonkin.interp_points": counts["zvonkin.interp_points"],
            "zvonkin.residual_s": self_s["zvonkin.residual"],
            "fokker_planck.particle_measure_s": self_s["fokker_planck.particle_measure"],
            "fokker_planck.weak_residual_s": self_s["fokker_planck.weak_residual"],
            "fokker_planck.generator_apply_s": self_s["fokker_planck.generator_apply"],
            "fokker_planck.generator_apply_calls":
                counts["fokker_planck.generator_apply_calls"],
            "fokker_planck.test_evals": counts["fokker_planck.test_evals"],
            "fokker_planck.atoms_csv_s": self_s["fokker_planck.atoms_csv"],
            "parallel.tasks": counts["parallel.tasks"],
            "parallel.map_s": map_s,
        }

    def write_spans(self, path):
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, ((name, start, end, parent, thread), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "thread": thread,
                    "self": own,
                }) + "\n")
