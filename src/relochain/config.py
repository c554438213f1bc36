"""Flat key=value experiment configuration with bracketed section headers.

The format is deliberately trivial to parse from any language: blank lines
and # comments are skipped, [section] lines are organizational only, and
every key must be unique across the whole file. A key the named experiment
does not read is an error, never silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, UnknownExperimentError
from .lifted import D_MAX

# The keys each experiment reads, besides `experiment` itself.
EXPERIMENT_KEYS = {
    "fig1": ("sigma", "epsilons", "steps", "burnin", "thin", "seed", "outdir", "emit_svg"),
    "fig2": ("sigma", "epsilons", "dtail", "dmax", "seed", "outdir", "emit_svg"),
    "conjecture-scan": ("count", "m", "seed", "outdir"),
}
_ALL_KEYS = {"experiment"}.union(*EXPERIMENT_KEYS.values())

DEFAULT_OUTDIRS = {"fig1": "out_fig1", "fig2": "out_fig2", "conjecture-scan": "out_conjecture"}
FIG1_EPSILONS = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
FIG2_EPSILONS = tuple(float(x) for x in np.geomspace(0.5, 0.001, 12))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    sigma_path: str | None = None
    epsilons: tuple[float, ...] = ()
    steps: int = 400_000
    burnin: int | None = None
    thin: int = 20
    seed: int = 12345
    outdir: str = "out"
    emit_svg: bool = False
    dtail: float = 1e-6
    dmax: int = D_MAX
    count: int = 20
    m: int = 2

    def __post_init__(self):
        if self.dmax < 0:
            raise ValueError(f"dmax must be nonnegative, got {self.dmax}")
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.epsilons:
            eps = np.asarray(self.epsilons)
            if (eps <= 0).any() or (eps >= 1).any():
                raise ValueError("epsilon values must lie in (0, 1)")
            if (np.diff(eps) >= 0).any():
                raise ValueError("epsilon values must be strictly decreasing")


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


def config_from_values(values: dict) -> ExperimentConfig:
    """Build the config of the named experiment from raw string values."""
    experiment = values.get("experiment")
    if experiment not in EXPERIMENT_KEYS:
        known = ", ".join(EXPERIMENT_KEYS)
        raise UnknownExperimentError(f"unknown experiment {experiment!r}; expected one of {known}")
    _check_keys(values, {})

    eps: tuple[float, ...]
    if "epsilons" in values:
        eps = tuple(float(tok) for tok in values["epsilons"].replace(",", " ").split())
    elif experiment == "fig1":
        eps = FIG1_EPSILONS
    elif experiment == "fig2":
        eps = FIG2_EPSILONS
    else:
        eps = ()

    kwargs = dict(
        experiment=experiment,
        sigma_path=values.get("sigma"),
        epsilons=eps,
        outdir=values.get("outdir", DEFAULT_OUTDIRS[experiment]),
    )
    for key, conv in (
        ("steps", int), ("thin", int), ("seed", int), ("dmax", int),
        ("count", int), ("m", int), ("burnin", int), ("dtail", float),
    ):
        if key in values:
            kwargs[key] = conv(values[key])
    if "emit_svg" in values:
        kwargs["emit_svg"] = _parse_bool(values["emit_svg"])
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_values(parse_config_text(fh.read()))
