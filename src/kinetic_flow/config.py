"""Flat key=value experiment configs.

One experiment per file, no nesting, `#` comments; every key is from a
closed table so a typo is a line-numbered error instead of a silently
ignored setting.  Two tables are the whole language: `_KEYS` maps each
key to the ExperimentConfig field (or library-field parameter) it sets
and to its value parser, and `_EXPERIMENTS` maps each experiment to the
keys it requires and the rules it obeys.  The parsed form is a plain
dataclass; defaults are filled at parse time so a config echo reproduces
the run exactly, and every value the run could not honour, the field's
parameters included, is refused before anything is written.
"""

import math
import os
from dataclasses import dataclass, field as dc_field, fields as dc_fields

from .errors import ValidationError
from .fields import library_field
from .flow import check_convergence_study, check_path_count
from .fokker_planck import RESIDUAL_TEMPORARIES, check_atom_count
from .integrator import BrownianGrid, walk_noise_floats
from .krylov import (BUMP_TEMPORARIES, check_integrability,
                     experiment_windows, window_steps)

__all__ = ["EXPERIMENTS", "ExperimentConfig", "parse_config", "parse_config_text"]

# name -> (required keys, rules).  Rules: "p", the integrability index
# feeds an occupation exponent and passes krylov.check_integrability
# (p > 2d+1); "paths", N passes flow.check_path_count; "ladder", the
# mollification ladder, p and N pass flow.check_convergence_study;
# "d1", runs at d = 1 only (krylov's bumps, fokker-planck's test
# dictionary and the spaces probe are one dimensional, and zvonkin's 129
# slices of a 128^{2d} grid and converge's 129^{2d} drift mesh do not fit
# in memory beyond d = 1); "steps", steps paths from 0 to T, which must be
# a whole number of dt; "windows", every window of krylov.experiment_windows
# passes krylov.window_steps on the dt grid of the 2T ensemble; "atoms",
# N passes fokker_planck.check_atom_count; "memory" (with "steps"), the
# paths held at once fit in the machine's physical memory: with s = T/dt,
# fokker-planck's checkpoint at every grid time, (s + 1) N 2d float64s,
# plus fokker_planck.RESIDUAL_TEMPORARIES arrays of N float64s for the
# weak residual's running sums and row temporaries, plus the
# integrator.walk_noise_floats float64s of the walk's chunk noise,
# krylov's 2T ensemble with its restart from T/2 to 2T,
# (2s + 1 + 3s/2 + 1) N 2d float64s, plus krylov.BUMP_TEMPORARIES arrays
# of (N, 2s + 1) float64s for the bump values over the (0, 2T) window, and
# converge's L ladder levels on the dt and dt/2 grids,
# L (s + 1 + 2s + 1) N 2d float64s
_EXPERIMENTS = {
    "kernel": (("T",), ()),
    "flow": (("T", "dt", "N"), ("paths", "steps")),
    "converge": (("T", "dt", "N", "p", "n_ladder"),
                 ("p", "ladder", "d1", "steps", "memory")),
    "zvonkin": (("T", "dt", "lambda"), ("d1", "steps")),
    "krylov": (("T", "dt", "N", "p"), ("p", "d1", "steps", "windows", "memory")),
    "fokker-planck": (("T", "dt", "N"), ("d1", "steps", "atoms", "memory")),
    "spaces": ((), ("d1",)),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _parse_int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {raw!r}")
    return value


def _parse_ladder(raw):
    try:
        ladder = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValidationError(
            f"expected comma-separated integers, got {raw!r}"
        ) from None
    if not ladder:
        raise ValidationError("empty ladder")
    return ladder


def _parse_str(raw):
    return raw


# key -> (ExperimentConfig field or library-field parameter it sets, value
# parser); this table IS the config language
_KEYS = {
    "experiment": ("experiment", _parse_str),
    "seed": ("seed", _parse_int),
    "d": ("d", _parse_int),
    "T": ("horizon", _parse_float),
    "dt": ("dt", _parse_float),
    "N": ("num_paths", _parse_int),
    "p": ("p", _parse_float),
    "lambda": ("lam", _parse_float),
    "n_ladder": ("n_ladder", _parse_ladder),
    "field.name": ("field_name", _parse_str),
    "field.kappa": ("kappa", _parse_float),
    "field.support_radius": ("support_radius", _parse_float),
    "field.mollify": ("mollify", _parse_int),
    "output": ("output", _parse_str),
}

# time slices of the zvonkin experiment's resolvent grid; its paths must
# step on the same grid
ZVONKIN_SLICES = 128


def _physical_memory():
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed experiment: typed values plus the verbatim source text."""

    experiment: str
    seed: int
    output: str
    d: int = 1
    horizon: float = 1.0
    dt: float = 1.0 / 64
    num_paths: int = 1000
    p: float = 7.0
    lam: float = 1.0
    n_ladder: tuple = (4, 8, 16, 32)
    field_name: str = "free"
    field_params: dict = dc_field(default_factory=dict)
    mollify: int = 0
    source_text: str = ""

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {self.experiment!r}; "
                f"choose one of {', '.join(EXPERIMENTS)}"
            )
        rules = _EXPERIMENTS[self.experiment][1]
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        if self.horizon <= 0 or self.dt <= 0:
            raise ValidationError("T and dt must be positive")
        if self.num_paths < 1:
            raise ValidationError("N must be >= 1")
        if not self.lam > 0:
            raise ValidationError("lambda must be positive")
        # the library table refuses an unknown name or parameter and a bad
        # kappa or support radius
        library_field(self.field_name, self.d, **self.field_params)
        if self.mollify < 0:
            raise ValidationError("field.mollify must be >= 0")
        if any(n < 1 for n in self.n_ladder):
            raise ValidationError("n_ladder entries must be >= 1")
        if "p" in rules:
            check_integrability(self.d, self.p, self.experiment)
        if "d1" in rules and self.d != 1:
            raise ValidationError(
                f"{self.experiment} runs at d = 1 only, got d = {self.d}")
        if "paths" in rules:
            check_path_count(self.num_paths)
        if "ladder" in rules:
            check_convergence_study(self.d, self.n_ladder, self.num_paths, self.p)
        if "steps" in rules:
            steps = BrownianGrid.for_horizon(self.seed, self.horizon, self.dt,
                                             self.d).num_steps
            if self.experiment == "zvonkin" and steps != ZVONKIN_SLICES:
                raise ValidationError(
                    f"zvonkin runs on a fixed {ZVONKIN_SLICES}-slice time "
                    f"grid: need T/dt = {ZVONKIN_SLICES}, got {steps}")
            if "memory" in rules:
                rows, temps, noise = steps + 1, 0, 0
                if self.experiment == "fokker-planck":
                    temps = RESIDUAL_TEMPORARIES
                    noise = walk_noise_floats(self.num_paths, steps, self.d)
                elif self.experiment == "krylov":
                    rows = (2 * steps + 1) + (3 * steps // 2 + 1)
                    temps = BUMP_TEMPORARIES * (2 * steps + 1)
                elif self.experiment == "converge":
                    rows = len(self.n_ladder) * ((steps + 1) + (2 * steps + 1))
                need = ((rows * 2 * self.d + temps) * self.num_paths
                        + noise) * 8
                have = _physical_memory()
                if have is not None and need > have:
                    raise ValidationError(
                        f"{self.experiment} keeps its paths at every grid "
                        f"time: {need / 2**30:.1f} GiB exceeds the "
                        f"{have / 2**30:.1f} GiB of physical memory")
        if "atoms" in rules:
            check_atom_count(self.num_paths)
        if "windows" in rules:
            for window in experiment_windows(self.horizon):
                window_steps(window, self.dt, 2.0 * self.horizon)


_CONFIG_FIELDS = {f.name for f in dc_fields(ExperimentConfig)}


def parse_config_text(text):
    """Parse config source text; errors carry the offending line number."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        if value == "":
            raise ValidationError(f"line {lineno}: empty value for {key!r}")
        try:
            raw[key] = _KEYS[key][1](value)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None

    for key in ("experiment", "seed", "output"):
        if key not in raw:
            raise ValidationError(f"missing required key {key!r}")
    experiment = raw["experiment"]
    if experiment not in _EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {experiment!r}; "
            f"choose one of {', '.join(EXPERIMENTS)}"
        )
    missing = [key for key in _EXPERIMENTS[experiment][0] if key not in raw]
    if missing:
        raise ValidationError(
            f"experiment {experiment!r} needs keys: {', '.join(missing)}"
        )

    kwargs = {"field_params": {}, "source_text": text}
    for key, value in raw.items():
        target = _KEYS[key][0]
        if target in _CONFIG_FIELDS:
            kwargs[target] = value
        else:
            kwargs["field_params"][target] = value
    return ExperimentConfig(**kwargs)


def parse_config(path):
    """Parse a config file (UTF-8)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)
