"""Experiment orchestration: occupation concentration, radius comparison, conjecture scan.

Every experiment writes CSV files with a header row and 12-significant-digit
floats, then a manifest recording the effective value of each config key
the experiment reads, per-stage wall-clock, and a content digest of each
output. Reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import _optimize_j_batch, optimize_j
from .config import EXPERIMENT_KEYS, ExperimentConfig
from .errors import PeriodicError, ReducibleError
from .lifted import bracket_radius, build_lifted, lifted_spectral_radius
from .matrices import (
    SubStochasticMatrix,
    load_matrix,
    perron_triple,
    validate_substochastic,
)
from .relocation import RelocationLaw
from .simulate import RngSpec, WeightedChainStats, run_weighted_chains
from . import svg

BENCHMARK_ENTRIES = ((0.72, 0.08), (0.18, 0.58))


CSV_CHUNK = 64  # rows per printf template; 256 rows added 0.4 MB to the peak RSS of a fig1 unit, 64 rows 0.2 MB


def write_csv(path, header, rows):
    """Write a CSV to `path`, or to stdout when it is None.

    Rows are rendered CSV_CHUNK at a time by one printf template, built from
    the cell types of the chunk's first row: %s for strings, %.12g (12
    significant digits) for any other cell. A column must hold strings in
    every row or in none; a chunk that mixes them raises TypeError.
    """
    stream = open(path, "w", encoding="utf-8", newline="\n") if path else contextlib.nullcontext(sys.stdout)
    rows = iter(rows)
    with stream as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, CSV_CHUNK)):
            text = [k for k, cell in enumerate(chunk[0]) if isinstance(cell, str)]
            if not all(isinstance(row[k], str) for row in chunk for k in text):
                raise TypeError("a CSV column mixes strings and numbers")
            template = ",".join("%s" if isinstance(cell, str) else "%.12g" for cell in chunk[0]) + "\n"
            fh.write((template * len(chunk)) % tuple(itertools.chain.from_iterable(chunk)))


def write_weighted_csv(path, stats: WeightedChainStats) -> None:
    """The rows j, theta_1..theta_m, c2_running of a weighted run, one per chain and sampled step."""
    m = stats.theta_samples.shape[1]

    def rows():
        for start in range(0, len(stats.sample_steps), CSV_CHUNK):
            part = slice(start, start + CSV_CHUNK)
            js, thetas = stats.sample_steps[part].tolist(), stats.theta_samples[part].tolist()
            for j, theta, c2 in zip(js, thetas, stats.c2_running[part].tolist()):
                yield [str(j), *theta, c2]

    write_csv(path, ["j", *(f"theta_{i+1}" for i in range(m)), "c2_running"], rows())


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def benchmark_matrix() -> SubStochasticMatrix:
    """The two-state benchmark used by the shipped experiment configs."""
    return validate_substochastic(np.array(BENCHMARK_ENTRIES))


def _load_sigma(path) -> SubStochasticMatrix:
    """The matrix in the text file at `path`, or the benchmark when no path is given."""
    return load_matrix(path) if path else benchmark_matrix()


def _eps_name(eps: float) -> str:
    return f"{eps:g}"


@contextlib.contextmanager
def _stage(stages: dict, name: str):
    """Record the wall-clock of the enclosed block as stages[name], in seconds to the millisecond."""
    t0 = time.perf_counter()
    yield
    stages[name] = round(time.perf_counter() - t0, 3)


def run_fig1(config: ExperimentConfig):
    """Occupation-measure concentration for geometric laws at decreasing eps.

    One weighted run of N_CHAINS chains with flat weights per eps, all laws
    side by side in one `run_weighted_chains` call (law k on stream k); each
    run emits the occupation samples of every chain, N_CHAINS rows per
    sampled step, and the summary collects mean and spread of the first
    coordinate against the benchmark quasi-stationary mass. The stage
    "weighted chains" times the joint run, and "eps <eps>" each law's outputs.
    """
    sigma = _load_sigma(config.sigma_path)
    rho1 = float(perron_triple(sigma).rho[0])
    os.makedirs(config.outdir, exist_ok=True)
    outputs = []
    stages = {}
    summary_rows = []
    panel_data = []
    with _stage(stages, "weighted chains"):
        runs = run_weighted_chains(
            sigma, [RelocationLaw.geometric(eps) for eps in config.epsilons], np.ones(sigma.m),
            steps=config.steps, burnin=config.burnin, thin=config.thin, rng=RngSpec(config.seed),
        )
    for eps, stats in zip(config.epsilons, runs):
        with _stage(stages, f"eps {_eps_name(eps)}"):
            path = os.path.join(config.outdir, f"fig1_eps{_eps_name(eps)}.csv")
            write_weighted_csv(path, stats)
            outputs.append(path)
            theta1 = stats.theta_samples[:, 0]
            summary_rows.append([_eps_name(eps), float(theta1.mean()), float(theta1.std(ddof=1)), rho1])
            panel_data.append((f"eps={_eps_name(eps)}", theta1))
    summary = os.path.join(config.outdir, "fig1_summary.csv")
    write_csv(summary, ["eps", "mean_theta_1", "std_theta_1", "rho_1"], summary_rows)
    outputs.append(summary)
    if config.emit_svg:
        panel = os.path.join(config.outdir, "fig1_histograms.svg")
        svg.histogram_panel(
            panel, panel_data, title="occupation measure of state 1", xlabel="theta_1"
        )
        outputs.append(panel)
    return outputs, stages


def run_fig2(config: ExperimentConfig):
    """Radius brackets for geometric laws against the variational ceiling.

    Each row holds the certified bracket of the relocation-chain radius, the
    benchmark radius, and the optimized objective, all in log scale.
    """
    sigma = _load_sigma(config.sigma_path)
    os.makedirs(config.outdir, exist_ok=True)
    stages = {}
    with _stage(stages, "optimize_j"):
        opt = optimize_j(sigma, RngSpec(config.seed))
        log_jstar, log_r = math.log(opt.j_star), math.log(opt.j_at_one)  # J(1) = r

    rows = []
    for eps in config.epsilons:
        with _stage(stages, f"eps {_eps_name(eps)}"):
            law = RelocationLaw.geometric(eps)
            bracket = bracket_radius(sigma, law, delta_tail=config.dtail, d_max=config.dmax)
            rows.append([_eps_name(eps), math.log(bracket.lo), math.log(bracket.hi), log_r, log_jstar])
    path = os.path.join(config.outdir, "fig2.csv")
    write_csv(path, ["eps", "log_r_lo", "log_r_hi", "log_r_benchmark", "log_Jstar"], rows)
    outputs = [path]
    if config.emit_svg:
        xs = [math.log10(float(r[0])) for r in rows]
        chart = os.path.join(config.outdir, "fig2_rates.svg")
        svg.line_chart(
            chart,
            xs,
            [
                ("log r_lo", [r[1] for r in rows]),
                ("log r_hi", [r[2] for r in rows]),
                ("log r benchmark", [r[3] for r in rows]),
                ("log J*", [r[4] for r in rows]),
            ],
            title="persistence log-rates for geometric relocation laws",
            xlabel="log10 eps",
            ylabel="log rate",
        )
        outputs.append(chart)
    return outputs, stages


def _random_substochastic(gen, m):
    """Rejection-sample a validated matrix: uniform entries, rows scaled below 1.

    Only a reducible or periodic draw is redrawn; any other error is raised.
    """
    while True:
        raw = gen.random((m, m))
        targets = gen.uniform(0.2, 0.98, size=m)
        raw = raw / raw.sum(axis=1, keepdims=True) * targets[:, None]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return validate_substochastic(raw)
        except (ReducibleError, PeriodicError):
            continue


def _random_bounded_law(gen):
    d = int(gen.integers(1, 4))
    masses = gen.dirichlet(np.ones(d + 1))
    return RelocationLaw.explicit(masses)


def run_conjecture_scan(config: ExperimentConfig):
    """Search randomized cases for an exact radius above the variational ceiling.

    Case k draws a matrix and a bounded law from the config's seed, in case
    order, and solves its exact lift (`build_lifted`, once per case); then
    the ceilings J* of all cases are maximized as one batch
    (`_optimize_j_batch`), case k on the stream RngSpec(seed, k + 1). The
    rows, and the error raised, are those of a loop that solves and
    optimizes one case after another: a failed optimization of an earlier
    case is raised before a failed draw or lift of a later one.

    Violations are counted and reported, never asserted away: the question
    whether the ceiling binds for every relocation law is open.
    """
    os.makedirs(config.outdir, exist_ok=True)
    gen = RngSpec(config.seed).generator()
    stages = {}
    with _stage(stages, "scan"):
        sigmas, radii, failure = [], [], None
        for _ in range(config.count):
            try:
                sigma = _random_substochastic(gen, config.m)
                law = _random_bounded_law(gen)
                radii.append(lifted_spectral_radius(build_lifted(sigma, law, mode="exact")).radius)
            except Exception as exc:  # raised once the cases before it are optimized
                failure = exc
                break
            sigmas.append(sigma)
        opts = _optimize_j_batch(sigmas, [RngSpec(config.seed, case + 1) for case in range(len(sigmas))])
        for opt in opts:
            if isinstance(opt, Exception):
                raise opt
        if failure is not None:
            raise failure
        # J(1) = r, so the optimizer's J(1) is the benchmark radius.
        rows = [
            [str(case), opt.j_at_one, opt.j_star, r_bold, str(int(r_bold > opt.j_star + 1e-6))]
            for case, (opt, r_bold) in enumerate(zip(opts, radii))
        ]
        violations = sum(row[-1] == "1" for row in rows)
        path = os.path.join(config.outdir, "conjecture.csv")
        write_csv(path, ["case_id", "r", "J_star", "r_bold", "violated"], rows)
    print(f"conjecture scan: {violations} violation(s) in {config.count} case(s)")
    return [path], stages


_EXPERIMENTS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "conjecture-scan": run_conjecture_scan,
}


def run_config(config: ExperimentConfig) -> dict:
    """Run the named experiment, write manifest.json beside its outputs and return the manifest."""
    outputs, stages = _EXPERIMENTS[config.experiment](config)
    fields = asdict(config)
    fields["sigma"] = fields.pop("sigma_path")
    manifest = {
        "config": {key: fields[key] for key in ("experiment", *EXPERIMENT_KEYS[config.experiment])},
        "version": __version__,
        "stage_seconds": stages,
        "outputs": [{"path": os.path.basename(p), "sha256": sha256_of(p)} for p in outputs],
    }
    with open(os.path.join(config.outdir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def verify_manifest(outdir) -> bool:
    """Recompute digests for every file a manifest lists; True when all match."""
    path = os.path.join(outdir, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for entry in data["outputs"]:
        full = os.path.join(outdir, entry["path"])
        if not os.path.exists(full) or sha256_of(full) != entry["sha256"]:
            return False
    return True
