"""Flat key=value experiment configuration with bracketed section headers.

The format is deliberately trivial to parse from any language: blank lines
and # comments are skipped, [section] lines are organizational only, and
every key must be unique across the whole file. A key the named experiment
does not read is an error, never silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, UnknownExperimentError
from .lifted import D_MAX
from .relocation import RelocationLaw
from .simulate import _burnin

# The keys each experiment reads, besides `experiment` itself.
EXPERIMENT_KEYS = {
    "fig1": ("sigma", "epsilons", "steps", "burnin", "thin", "seed", "outdir", "emit_svg"),
    "fig2": ("sigma", "epsilons", "dtail", "dmax", "seed", "outdir", "emit_svg"),
    "conjecture-scan": ("count", "m", "seed", "outdir"),
}
_ALL_KEYS = {"experiment"}.union(*EXPERIMENT_KEYS.values())

FIG1_EPSILONS = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
FIG2_EPSILONS = tuple(float(x) for x in np.geomspace(0.5, 0.001, 12))
# The values a config of each experiment takes for the fields it leaves None.
_DEFAULTS = {
    "fig1": {"epsilons": FIG1_EPSILONS, "outdir": "out_fig1"},
    "fig2": {"epsilons": FIG2_EPSILONS, "outdir": "out_fig2"},
    "conjecture-scan": {"outdir": "out_conjecture"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, checked when built so that a bad value fails before any output exists."""

    experiment: str
    sigma_path: str | None = None
    epsilons: tuple[float, ...] | None = None
    steps: int = 400_000
    burnin: int | None = None
    thin: int = 20
    seed: int = 12345
    outdir: str | None = None
    emit_svg: bool = False
    dtail: float = 1e-6
    dmax: int = D_MAX
    count: int = 20
    m: int = 2

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KEYS:
            known = ", ".join(EXPERIMENT_KEYS)
            raise UnknownExperimentError(f"unknown experiment {self.experiment!r}; expected one of {known}")
        for key, value in _DEFAULTS[self.experiment].items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.dtail < math.inf:
            raise ValueError(f"dtail must be positive and finite, got {self.dtail}")
        if self.dmax < 0:
            raise ValueError(f"dmax must be nonnegative, got {self.dmax}")
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.epsilons is not None:
            eps = np.asarray(self.epsilons, dtype=float)
            if eps.size == 0:
                raise ValueError("epsilons must name at least one value")
            if not ((eps > 0) & (eps < 1)).all():
                raise ValueError("epsilon values must lie in (0, 1)")
            if (np.diff(eps) >= 0).any():
                raise ValueError("epsilon values must be strictly decreasing")
        if self.experiment == "fig1":
            # The weighted run's own rule, per law, so that no run it accepts is refused.
            for eps in self.epsilons:
                _burnin(RelocationLaw.geometric(eps), self.steps, self.burnin, self.thin)


def _check_keys(values: dict, where: dict) -> None:
    """Reject each key the named experiment does not read; `where` maps keys to (line, column)."""
    experiment = values.get("experiment")
    allowed = EXPERIMENT_KEYS.get(experiment, _ALL_KEYS)
    for key in values:
        if key != "experiment" and key not in allowed:
            reader = f"experiment {experiment!r}" if experiment in EXPERIMENT_KEYS else "any experiment"
            raise ConfigParseError(f"key {key!r} is not read by {reader}", *where.get(key, ()))


def parse_config_text(text: str) -> dict:
    """Parse the key=value format, returning the flat dict of raw strings."""
    values: dict[str, str] = {}
    where: dict[str, tuple[int, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ConfigParseError("malformed section header", lineno, line.index("[") + 1)
            continue
        if "=" not in stripped:
            col = len(line) - len(line.lstrip()) + 1
            raise ConfigParseError("expected key = value", lineno, col)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigParseError("empty key", lineno, 1)
        if key in values:
            raise ConfigParseError(f"duplicate key {key!r}", lineno, 1)
        values[key] = value
        where[key] = (lineno, line.index(key) + 1)
    _check_keys(values, where)
    return values


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.replace(",", " ").split())


def config_from_values(values: dict) -> ExperimentConfig:
    """Build the config of the named experiment from raw string values."""
    _check_keys(values, {})
    kwargs = {"experiment": values.get("experiment"), "sigma_path": values.get("sigma")}
    for key, conv in (
        ("epsilons", _parse_floats), ("outdir", str), ("steps", int), ("thin", int), ("seed", int),
        ("dmax", int), ("count", int), ("m", int), ("burnin", int), ("dtail", float), ("emit_svg", _parse_bool),
    ):
        if key in values:
            kwargs[key] = conv(values[key])
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_values(parse_config_text(fh.read()))
