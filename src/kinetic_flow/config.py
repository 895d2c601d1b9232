"""Flat key=value experiment configs.

One experiment per file, no nesting, `#` comments; every key is from a
closed table so a typo is a line-numbered error instead of a silently
ignored setting.  The parsed form is a plain dataclass; defaults are
filled at parse time so a config echo reproduces the run exactly.
"""

from dataclasses import dataclass, field as dc_field

from .errors import ValidationError
from .fields import LIBRARY

__all__ = ["EXPERIMENTS", "ExperimentConfig", "parse_config", "parse_config_text"]

EXPERIMENTS = (
    "kernel",
    "flow",
    "converge",
    "zvonkin",
    "krylov",
    "fokker-planck",
    "spaces",
)

def _parse_int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw):
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"expected a number, got {raw!r}") from None


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


# key -> value parser; this table IS the config language
_KEYS = {
    "experiment": _parse_str,
    "seed": _parse_int,
    "d": _parse_int,
    "T": _parse_float,
    "dt": _parse_float,
    "N": _parse_int,
    "p": _parse_float,
    "lambda": _parse_float,
    "n_ladder": _parse_ladder,
    "field.name": _parse_str,
    "field.kappa": _parse_float,
    "field.support_radius": _parse_float,
    "field.mollify": _parse_int,
    "output": _parse_str,
}

_REQUIRED = {
    "kernel": ("T",),
    "spaces": (),
    "flow": ("T", "dt", "N"),
    "converge": ("T", "dt", "N", "p", "n_ladder"),
    "zvonkin": ("T", "lambda"),
    "krylov": ("T", "dt", "N", "p"),
    "fokker-planck": ("T", "dt", "N"),
}

# experiments whose integrability index feeds an occupation/convergence
# exponent and must satisfy p > 2d+1
_P_GATED = ("krylov", "converge")
# experiments that run at d = 1 only: krylov's bumps and fokker-planck's
# test dictionary are one dimensional, and zvonkin's 129 slices of a
# 128^{2d} grid and converge's 129^{2d} drift mesh do not fit in memory
# beyond d = 1
_D1_ONLY = ("krylov", "fokker-planck", "zvonkin", "converge")


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
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {self.experiment!r}; "
                f"choose one of {', '.join(EXPERIMENTS)}"
            )
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        if self.horizon <= 0 or self.dt <= 0:
            raise ValidationError("T and dt must be positive")
        if self.num_paths < 1:
            raise ValidationError("N must be >= 1")
        if self.lam < 0:
            raise ValidationError("lambda must be nonnegative")
        if self.field_name not in LIBRARY:
            raise ValidationError(
                f"unknown field.name {self.field_name!r}; "
                f"library: {', '.join(LIBRARY)}"
            )
        if self.mollify < 0:
            raise ValidationError("field.mollify must be >= 0")
        if any(n < 1 for n in self.n_ladder):
            raise ValidationError("n_ladder entries must be >= 1")
        if self.experiment in _P_GATED and self.p <= 2 * self.d + 1:
            raise ValidationError(
                f"{self.experiment} needs p > 2d+1 = {2 * self.d + 1}, "
                f"got p = {self.p:g}"
            )
        if self.experiment in _D1_ONLY and self.d != 1:
            raise ValidationError(
                f"{self.experiment} runs at d = 1 only, got d = {self.d}")


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
            raw[key] = _KEYS[key](value)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None

    for key in ("experiment", "seed", "output"):
        if key not in raw:
            raise ValidationError(f"missing required key {key!r}")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {experiment!r}; "
            f"choose one of {', '.join(EXPERIMENTS)}"
        )
    missing = [key for key in _REQUIRED[experiment] if key not in raw]
    if missing:
        raise ValidationError(
            f"experiment {experiment!r} needs keys: {', '.join(missing)}"
        )

    field_params = {}
    if "field.kappa" in raw:
        field_params["kappa"] = raw["field.kappa"]
    if "field.support_radius" in raw:
        field_params["support_radius"] = raw["field.support_radius"]

    kwargs = dict(
        experiment=experiment,
        seed=raw["seed"],
        output=raw["output"],
        field_params=field_params,
        mollify=raw.get("field.mollify", 0),
        source_text=text,
    )
    if "d" in raw:
        kwargs["d"] = raw["d"]
    if "T" in raw:
        kwargs["horizon"] = raw["T"]
    if "dt" in raw:
        kwargs["dt"] = raw["dt"]
    if "N" in raw:
        kwargs["num_paths"] = raw["N"]
    if "p" in raw:
        kwargs["p"] = raw["p"]
    if "lambda" in raw:
        kwargs["lam"] = raw["lambda"]
    if "n_ladder" in raw:
        kwargs["n_ladder"] = raw["n_ladder"]
    if "field.name" in raw:
        kwargs["field_name"] = raw["field.name"]
    return ExperimentConfig(**kwargs)


def parse_config(path):
    """Parse a config file (UTF-8)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)
