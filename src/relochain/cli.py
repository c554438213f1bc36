"""Command-line interface.

Subcommands mirror the library: spectral queries (perron, lifted-radius),
simulation (simulate-survival, weighted-run), variational bounds (bound-c3,
rate-function), and the packaged experiments (fig1, fig2, conjecture-scan,
run). Exit codes: 0 success, 1 numerical failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bounds import optimize_j, rate_function_lifted
from .config import EXPERIMENT_KEYS, config_from_values, parse_config_text
from .errors import (
    ConfigParseError,
    NoConvergenceError,
    OverflowGuardError,
    RelochainError,
    StateCapExceededError,
    UnknownExperimentError,
)
from .experiments import _load_sigma, run_config, write_csv, write_weighted_csv
from .lifted import D_MAX, bracket_radius
from .matrices import perron_triple
from .relocation import HistoryWindow, parse_relocation_law
from .simulate import RngSpec, run_killed_chain, run_weighted_chains


def _sigma_arg(parser):
    parser.add_argument(
        "--sigma",
        help="matrix text file (first line m, then m rows); defaults to the built-in two-state benchmark",
    )


def _parse_a(spec, sigma):
    if spec in (None, "ones", "1"):
        return np.ones(sigma.m)
    if spec == "h":
        return perron_triple(sigma).h
    return np.array([float(tok) for tok in spec.replace(",", " ").split()])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relochain",
        description="persistence of killed Markov chains with preferential relocations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perron", help="spectral elements of a benchmark matrix")
    p.set_defaults(handler=_cmd_perron)
    _sigma_arg(p)

    p = sub.add_parser("lifted-radius", help="certified radius bracket for a relocation law")
    p.set_defaults(handler=_cmd_lifted_radius)
    _sigma_arg(p)
    p.add_argument("--tau", required=True, help="relocation law: 'dirac d' | 'geometric eps' | 'explicit p0 ...'")
    p.add_argument("--dtail", type=float, default=1e-6)
    p.add_argument("--dmax", type=int, default=D_MAX)

    p = sub.add_parser("simulate-survival", help="Monte Carlo survival curve of the killed chain")
    p.set_defaults(handler=_cmd_simulate_survival)
    _sigma_arg(p)
    p.add_argument("--tau", required=True)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--init-state", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = sub.add_parser("weighted-run", help="20 chains of the conservative weighted chain")
    p.set_defaults(handler=_cmd_weighted_run)
    _sigma_arg(p)
    p.add_argument("--tau", required=True)
    p.add_argument("--a", default="ones", help="'ones' | 'h' | comma-separated positive weights")
    p.add_argument("--steps", type=int, default=400_000)
    p.add_argument("--burnin", type=int, default=None)
    p.add_argument("--thin", type=int, default=20)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = sub.add_parser("bound-c3", help="optimize the dispersed-relocation objective")
    p.set_defaults(handler=_cmd_bound_c3)
    _sigma_arg(p)
    p.add_argument("--seed", type=int, default=12345)

    p = sub.add_parser("rate-function", help="benchmark and lifted rate functions on a grid")
    p.set_defaults(handler=_cmd_rate_function)
    _sigma_arg(p)
    p.add_argument("--tau", required=True, help="bounded relocation law")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out", help="CSV output path (default stdout)")

    for name, help_text, int_keys in (
        ("fig1", "run the fig1 experiment", ("steps", "seed")),
        ("fig2", "run the fig2 experiment", ("dmax", "seed")),
        ("conjecture-scan", "randomized search for ceiling violations", ("count", "m", "seed")),
    ):
        # Flags default to None so that only the flags given override --config.
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=_cmd_experiment)
        p.add_argument("--config", help="config file; the flags given override its values")
        if "sigma" in EXPERIMENT_KEYS[name]:
            _sigma_arg(p)
        p.add_argument("--outdir")
        for key in int_keys:
            p.add_argument(f"--{key}", type=int)
        if "emit_svg" in EXPERIMENT_KEYS[name]:
            p.add_argument("--emit-svg", action="store_true", default=None)

    p = sub.add_parser("run", help="run an experiment described by a config file")
    p.set_defaults(handler=_cmd_experiment)
    p.add_argument("--config", required=True)

    return parser


def _cmd_perron(args):
    triple = perron_triple(_load_sigma(args.sigma))
    print(json.dumps({"r": triple.r, "h": [float(x) for x in triple.h], "rho": [float(x) for x in triple.rho]}))


def _cmd_lifted_radius(args):
    sigma = _load_sigma(args.sigma)
    law = parse_relocation_law(args.tau)
    bracket = bracket_radius(sigma, law, delta_tail=args.dtail, d_max=args.dmax)
    print(json.dumps({"lo": bracket.lo, "hi": bracket.hi, "d_used": bracket.d_used, "tail_mass": bracket.tail_mass}))


def _cmd_simulate_survival(args):
    sigma = _load_sigma(args.sigma)
    law = parse_relocation_law(args.tau)
    result = run_killed_chain(
        sigma, law, HistoryWindow.constant(args.init_state), args.n, args.replicas, RngSpec(args.seed)
    )
    curve = result.curve
    rows = zip(curve.ns, curve.p_hat, curve.se)
    write_csv(args.out, ["n", "p_hat", "se"], ([str(n), p, s] for n, p, s in rows))


def _cmd_weighted_run(args):
    sigma = _load_sigma(args.sigma)
    law = parse_relocation_law(args.tau)
    a = _parse_a(args.a, sigma)
    (stats,) = run_weighted_chains(
        sigma, [law], a, steps=args.steps, burnin=args.burnin, thin=args.thin, rng=RngSpec(args.seed)
    )
    write_weighted_csv(args.out, stats)


def _cmd_bound_c3(args):
    sigma = _load_sigma(args.sigma)
    result = optimize_j(sigma, RngSpec(args.seed))
    print(json.dumps({
        "a_star": [float(x) for x in result.a_star],
        "J_star": result.j_star,
        "J_at_one": result.j_at_one,
        "J_at_h": result.j_at_h,
    }))


def _cmd_rate_function(args):
    sigma = _load_sigma(args.sigma)
    law = parse_relocation_law(args.tau)
    table = rate_function_lifted(sigma, law, grid_points=args.grid)
    header = [*(f"nu_{i+1}" for i in range(sigma.m)), "I", "I_bold"]
    rows = zip(table.nu_grid, table.i_values, table.i_lifted)
    write_csv(args.out, header, ([*nu, iv, ib] for nu, iv, ib in rows))


def _cmd_experiment(args):
    """Run the subcommand's experiment (for `run`, the one its config names) with the flags given laid over --config."""
    name = args.command
    values = {"experiment": name}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
        if name != "run" and values.get("experiment") != name:
            raise UnknownExperimentError(f"config names {values.get('experiment')!r}, expected {name!r}")
    flags = {k: str(v) for k, v in vars(args).items() if k in EXPERIMENT_KEYS.get(name, ()) and v is not None}
    run_config(config_from_values({**values, **flags}))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.handler(args)
    except (NoConvergenceError, StateCapExceededError, OverflowGuardError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigParseError, UnknownExperimentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RelochainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
