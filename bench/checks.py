"""Output checks for the benchmark workloads.

Each check reads the files one `kinetic-flow run` wrote and tests them
against a computation made apart from the program or against a property
the method must have; none compares with a stored copy of earlier output.
A check returns a list of failure messages, empty when the output passes.

The particle check simulates the `hoelder-drift` SDE again with its own
Euler-Maruyama loop, drift formula, test functions and random generator.
Both sides use the same scheme and step, so they share the O(dt) bias and
differ only by Monte Carlo noise, which the two-sample z-tests allow for.
"""

import csv
import math
import os

import numpy as np

# Two-sample tests and residual zero tests: |z| above this fails.  Five
# standard errors keep the chance of a false alarm per test under 1e-6,
# small across the few dozen tests of a run and the runs of a campaign.
Z_LIMIT = 5.0


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(out_dir):
    notes, echo = {}, []
    with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    in_echo = False
    for line in lines:
        if line.startswith("# --- config echo"):
            in_echo = True
        elif in_echo:
            echo.append(line)
        elif " = " in line:
            key, _, value = line.partition(" = ")
            notes[key] = value
    return notes, echo


def check_manifest(out_dir, experiment, config_text, outputs):
    """The manifest names the experiment and the outputs before it (run_experiment
    lists the manifest last) and echoes the config."""
    errors = []
    notes, echo = read_manifest(out_dir)
    if notes.get("experiment") != experiment:
        errors.append(f"manifest experiment {notes.get('experiment')!r} != {experiment!r}")
    if notes.get("outputs", "").split(",") + ["manifest.txt"] != outputs:
        errors.append(f"manifest outputs {notes.get('outputs')!r} != {outputs[:-1]}")
    if echo != config_text.splitlines():
        errors.append("manifest config echo differs from the config")
    for name in outputs:
        if not os.path.isfile(os.path.join(out_dir, name)):
            errors.append(f"missing output {name}")
    return errors


def _floats(rows, col):
    return np.array([float(row[col]) for row in rows])


def _finite_positive(name, values):
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        return [f"{name} not finite and positive: {values.tolist()}"]
    return []


# ---------------------------------------------------------------------------
# rough-ladder: converge.csv


def check_rough_ladder(out_dir, spec):
    """e_n > 0 and decreasing; B_n = (L^p gap > 0) + n^(2d/p-1); spread <= 4."""
    header, rows = read_csv(os.path.join(out_dir, "converge.csv"))
    errors = []
    if header != ["n", "e_n", "B_n", "ratio"]:
        return [f"converge.csv header {header}"]
    ladder = [int(n) for n in spec["n_ladder"].split(",")]
    n = [int(row[0]) for row in rows]
    if n != ladder[:-1]:
        return [f"converge.csv rungs {n} != {ladder[:-1]}"]
    e, bound, ratio = _floats(rows, 1), _floats(rows, 2), _floats(rows, 3)
    errors += _finite_positive("e_n", e)
    if np.any(np.diff(e) >= 0):
        errors.append(f"e_n does not decrease along the ladder: {e.tolist()}")
    floor = np.array(n, dtype=float) ** (2.0 * spec["d"] / spec["p"] - 1.0)
    lp_gap = bound - floor
    if np.any(lp_gap <= 0) or np.any(np.diff(lp_gap) >= 0):
        errors.append(f"B_n - n^(2d/p-1) is not a positive decreasing L^p gap: "
                      f"{lp_gap.tolist()}")
    if not np.allclose(ratio, e / bound, rtol=1e-12, atol=0.0):
        errors.append("ratio column != e_n / B_n")
    if np.all(ratio > 0):
        spread = float(ratio.max() / ratio.min())
        if spread > 4.0:
            errors.append(f"ratio spread {spread:.4g} > 4")
        notes, _ = read_manifest(out_dir)
        if notes.get("note.ratio_spread") != "%.6g" % spread:
            errors.append(f"manifest ratio_spread {notes.get('note.ratio_spread')} "
                          f"!= {spread:.6g}")
    return errors


# ---------------------------------------------------------------------------
# resolvent: contraction.csv, residual.csv, manifest notes

# |mean residual| may exceed its zero by the Euler scheme's weak error,
# which is O(dt); the allowance per unit step is 3x the largest bias seen
# on this workload (about 0.03 dt).
RESIDUAL_DT_ALLOWANCE = 0.1


def check_resolvent(out_dir, spec):
    """lambda* = lambda_init 2^k, |grad_v u| <= 1/2, contraction, E R_t = 0."""
    errors = []
    notes, _ = read_manifest(out_dir)
    lam_star = float(notes.get("note.lambda_star", "nan"))
    doublings = math.log2(lam_star / spec["lambda"]) if lam_star > 0 else math.nan
    if not (math.isfinite(doublings) and doublings >= 0
            and lam_star == spec["lambda"] * 2.0 ** round(doublings)):
        errors.append(f"lambda* {lam_star} is not lambda_init * 2^k")
    grad = float(notes.get("note.grad_v_sup", "nan"))
    if not 0.0 <= grad <= 0.5:
        errors.append(f"sup |grad_v u| = {grad} not in [0, 1/2]")

    header, rows = read_csv(os.path.join(out_dir, "contraction.csv"))
    if header != ["iter", "increment_sup"] or not rows:
        return errors + [f"contraction.csv header {header} or no rows"]
    if [int(row[0]) for row in rows] != list(range(1, len(rows) + 1)):
        errors.append("contraction.csv iterations are not 1..K")
    inc = _floats(rows, 1)
    if not inc[-1] < 1e-8:
        errors.append(f"last Picard increment {inc[-1]:.3g} >= 1e-8")
    ratios = inc[1:] / inc[:-1]
    if not np.all(ratios < 1.0):
        errors.append(f"Picard increment ratios not all below 1: max {ratios.max():.3g}")

    header, rows = read_csv(os.path.join(out_dir, "residual.csv"))
    if header != ["t", "mean_residual", "std_error"]:
        return errors + [f"residual.csv header {header}"]
    t = _floats(rows, 0)
    if t.shape != (4,) or not np.allclose(t, spec["T"] * np.array([0.25, 0.5, 0.75, 1.0])):
        errors.append(f"residual checkpoints {t.tolist()}")
    mean, se = np.abs(_floats(rows, 1)), _floats(rows, 2)
    errors += _finite_positive("residual std_error", se)
    allowed = Z_LIMIT * se + RESIDUAL_DT_ALLOWANCE * spec["dt"]
    if np.any(~(mean <= allowed)):
        errors.append(f"|mean residual| {mean.tolist()} exceeds "
                      f"{Z_LIMIT:g} SE + {RESIDUAL_DT_ALLOWANCE:g} dt: {allowed.tolist()}")
    return errors


# ---------------------------------------------------------------------------
# particles: atoms.csv, residual.csv against an independent simulation

Z0 = (0.3, 0.0)                  # the fokker-planck experiment's start
RESIDUAL_MEMBERS = {"x2v0[2.5,4]": 2, "x3v0[2.5,4]": 3}
_CUT_IN, _CUT_OUT = 2.5, 4.0


def _plateau(r, r_in, r_out):
    """1 on [0, r_in], 0 beyond r_out, C-infinity logistic-type ramp between."""
    u = np.clip((r - r_in) / (r_out - r_in), 0.0, 1.0)
    inner = np.clip(u, 1e-300, 1.0 - 1e-16)
    with np.errstate(over="ignore"):
        ramp = 1.0 / (1.0 + np.exp(1.0 / inner - 1.0 / (1.0 - inner)))
    return np.where(u <= 0.0, 1.0, np.where(u >= 1.0, 0.0, 1.0 - ramp))


def hoelder_drift(x, v, kappa=1.0, radius=4.0):
    """b(x, v) = kappa sign(x) |x|^(2/3), cut off smoothly from |z| = radius/2."""
    cut = _plateau(np.hypot(x, v), 0.5 * radius, radius)
    return kappa * np.sign(x) * np.abs(x) ** (2.0 / 3.0) * cut


def _quintic_cut(s):
    """Value, first and second derivative of the quintic C^2 cutoff."""
    width = _CUT_OUT - _CUT_IN
    u = np.clip((np.abs(s) - _CUT_IN) / width, 0.0, 1.0)
    value = 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
    d1 = -30.0 * u * u * (1.0 - u) ** 2 * np.sign(s) / width
    d2 = -60.0 * u * (1.0 - u) * (1.0 - 2.0 * u) / width**2
    return value, d1, d2


def _member(power, x, v, b):
    """phi = x^i c(x) c(v) and L phi = v phi_x + b phi_v + phi_vv / 2."""
    cx, cx1, _ = _quintic_cut(x)
    cv, cv1, cv2 = _quintic_cut(v)
    fx = x**power * cx
    fx1 = power * x ** (power - 1) * cx + x**power * cx1
    return fx * cv, v * fx1 * cv + b * fx * cv1 + 0.5 * fx * cv2


def reference_particles(seed, num_atoms, horizon, dt, checkpoints):
    """Independent Euler-Maruyama run: states and per-atom weak residuals.

    Returns {t: (x, v, {member: per-atom residual})} at each checkpoint.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    steps = int(round(horizon / dt))
    marks = {int(round(t / dt)): t for t in checkpoints}
    x = np.full(num_atoms, Z0[0])
    v = np.full(num_atoms, Z0[1])
    b = hoelder_drift(x, v)
    phi0 = {name: _member(p, x, v, b)[0] for name, p in RESIDUAL_MEMBERS.items()}
    integral = {name: np.zeros(num_atoms) for name in RESIDUAL_MEMBERS}
    out = {}
    for k in range(1, steps + 1):
        for name, power in RESIDUAL_MEMBERS.items():
            integral[name] += dt * _member(power, x, v, b)[1]
        dw = math.sqrt(dt) * rng.standard_normal(num_atoms)
        x, v = x + v * dt, v + b * dt + dw
        b = hoelder_drift(x, v)
        if k in marks:
            out[marks[k]] = (x.copy(), v.copy(), {
                name: _member(p, x, v, b)[0] - phi0[name] - integral[name]
                for name, p in RESIDUAL_MEMBERS.items()})
    return out


def _moments(values):
    """Mean, its SE, variance, its SE (asymptotic, from the 4th moment)."""
    n = values.size
    mean = values.mean()
    centred = values - mean
    var = centred.var(ddof=1)
    m4 = np.mean(centred**4)
    return mean, math.sqrt(var / n), var, math.sqrt(max(m4 - var * var, 0.0) / n)


def _z(a, se_a, b, se_b):
    scale = math.hypot(se_a, se_b)
    return abs(a - b) / scale if scale > 0 else (0.0 if a == b else math.inf)


def check_particles(out_dir, spec):
    """Atom moments and weak residuals agree with an independent simulation."""
    errors = []
    notes, _ = read_manifest(out_dir)
    integrability = float(notes.get("note.integrability", "nan"))
    if not (math.isfinite(integrability) and integrability > 0):
        errors.append(f"integrability {integrability} not finite and > 0")

    header, rows = read_csv(os.path.join(out_dir, "atoms.csv"))
    if header != ["t", "atom_id", "x1", "v1"]:
        return errors + [f"atoms.csv header {header}"]
    table = np.array([[float(c) for c in row] for row in rows])
    horizon, n = spec["T"], spec["N"]
    quarters = [0.0, 0.25 * horizon, 0.5 * horizon, 0.75 * horizon, horizon]
    times = sorted(set(table[:, 0].tolist()))
    if len(times) != len(quarters) or not np.allclose(times, quarters, rtol=0, atol=1e-12):
        return errors + [f"atoms.csv checkpoints {times} != {quarters}"]
    reference = reference_particles(spec["seed"], n, horizon, spec["dt"], quarters[1:])
    for t in quarters:
        rows_t = table[table[:, 0] == t]
        if not np.array_equal(rows_t[:, 1], np.arange(n)):
            errors.append(f"t={t:g}: atom ids are not 0..{n - 1} in order")
            continue
        if t == 0.0:
            if np.any(rows_t[:, 2] != Z0[0]) or np.any(rows_t[:, 3] != Z0[1]):
                errors.append("t=0 atoms are not all at the start point")
            continue
        ref_x, ref_v, _ = reference[t]
        for label, prog, ref in (("x", rows_t[:, 2], ref_x), ("v", rows_t[:, 3], ref_v)):
            pm, pm_se, pv, pv_se = _moments(prog)
            rm, rm_se, rv, rv_se = _moments(ref)
            z_mean, z_var = _z(pm, pm_se, rm, rm_se), _z(pv, pv_se, rv, rv_se)
            if z_mean > Z_LIMIT:
                errors.append(f"t={t:g}: mean {label} {pm:.5g} vs reference "
                              f"{rm:.5g} ({z_mean:.1f} SE)")
            if z_var > Z_LIMIT:
                errors.append(f"t={t:g}: var {label} {pv:.5g} vs reference "
                              f"{rv:.5g} ({z_var:.1f} SE)")

    header, rows = read_csv(os.path.join(out_dir, "residual.csv"))
    if header != ["phi_id", "t", "residual", "se"]:
        return errors + [f"residual.csv header {header}"]
    found = {(row[0], float(row[1])): (float(row[2]), float(row[3])) for row in rows}
    for name in RESIDUAL_MEMBERS:
        for t in quarters[1:]:
            if (name, t) not in found:
                errors.append(f"residual.csv has no row for {name} at t={t:g}")
                continue
            res, se = found[(name, t)]
            per_atom = reference[t][2][name]
            ref, ref_se = per_atom.mean(), per_atom.std(ddof=1) / math.sqrt(n)
            z = _z(res, se, ref, ref_se)
            if not math.isfinite(res) or z > Z_LIMIT:
                errors.append(f"{name} t={t:g}: residual {res:.5g} vs reference "
                              f"{ref:.5g} ({z:.1f} SE)")
    return errors


# ---------------------------------------------------------------------------
# coupled-flow: flow.csv

DELTA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def check_coupled_flow(out_dir, spec):
    """Every two-point ratio >= 1 (sup includes t = 0), finite; spread <= 3."""
    header, rows = read_csv(os.path.join(out_dir, "flow.csv"))
    if header != ["delta", "q", "ratio", "std_error"]:
        return [f"flow.csv header {header}"]
    errors = []
    if _floats(rows, 0).tolist() != list(DELTA_LADDER):
        errors.append(f"flow.csv deltas {[row[0] for row in rows]}")
    if np.any(_floats(rows, 1) != 1.0):
        errors.append("flow.csv q column is not 1")
    ratio, se = _floats(rows, 2), _floats(rows, 3)
    if not np.all(np.isfinite(ratio)) or np.any(ratio < 1.0):
        errors.append(f"two-point ratios not finite and >= 1: {ratio.tolist()}")
    errors += _finite_positive("flow std_error", se)
    if np.all(ratio > 0) and ratio.max() / ratio.min() > 3.0:
        errors.append(f"ratio spread {ratio.max() / ratio.min():.4g} > 3")
    return errors


CHECKS = {
    "converge": check_rough_ladder,
    "zvonkin": check_resolvent,
    "fokker-planck": check_particles,
    "flow": check_coupled_flow,
}


def check_outputs(out_dir, spec, config_text, outputs):
    """All checks for one run's output directory."""
    try:
        errors = check_manifest(out_dir, spec["experiment"], config_text, outputs)
        if errors:
            return errors
        return CHECKS[spec["experiment"]](out_dir, spec)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs in {out_dir} are unreadable: {exc!r}"]
