"""Flat key=value experiment configuration with bracketed section headers.

The format is deliberately trivial to parse from any language: blank lines
and # comments are skipped, [section] lines are organizational only, and
every key must be unique across the whole file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigParseError, UnknownExperimentError

KNOWN_EXPERIMENTS = ("fig1", "fig2", "conjecture-scan")

_KNOWN_KEYS = {
    "experiment", "sigma", "epsilons", "steps", "burnin", "thin", "seed",
    "stream", "outdir", "emit_svg", "dtail", "dmax", "restarts", "count", "m",
}

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
    stream: int = 0
    outdir: str = "out"
    emit_svg: bool = False
    dtail: float = 1e-6
    dmax: int = 16
    restarts: int = 8
    count: int = 20
    m: int = 2
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in KNOWN_EXPERIMENTS:
            raise UnknownExperimentError(f"unknown experiment {self.experiment!r}")
        if self.epsilons:
            eps = np.asarray(self.epsilons)
            if (eps <= 0).any() or (eps >= 1).any():
                raise ValueError("epsilon values must lie in (0, 1)")
            if (np.diff(eps) >= 0).any():
                raise ValueError("epsilon values must be strictly decreasing")


def parse_config_text(text: str) -> dict:
    """Parse the key=value format, returning the flat dict of raw strings."""
    values: dict[str, str] = {}
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
        if key not in _KNOWN_KEYS:
            col = line.index(key) + 1 if key in line else 1
            raise ConfigParseError(f"unknown key {key!r}", lineno, col)
        if key in values:
            raise ConfigParseError(f"duplicate key {key!r}", lineno, 1)
        values[key] = value
    return values


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def config_from_values(values: dict) -> ExperimentConfig:
    if "experiment" not in values:
        raise UnknownExperimentError("config does not name an experiment")
    experiment = values["experiment"]

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
        outdir=values.get("outdir", "out"),
        raw=dict(values),
    )
    for key, conv in (
        ("steps", int), ("thin", int), ("seed", int), ("stream", int),
        ("dmax", int), ("restarts", int), ("count", int), ("m", int),
        ("burnin", int), ("dtail", float),
    ):
        if key in values:
            kwargs[key] = conv(values[key])
    if "emit_svg" in values:
        kwargs["emit_svg"] = _parse_bool(values["emit_svg"])
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_values(parse_config_text(fh.read()))
