"""The four benchmark workloads: fig1, fig2, scan and survival.

A workload is built from the repository root, a seed and an output
directory. `run()` is one timed unit of work through the public relochain
API; `check(result)` compares its outputs with the oracles; `quality(result)`
returns the result-quality numbers that the traced run reports. References
that do not depend on the unit's output are computed once, in `__init__`,
outside the timed region.

Sizes are cut from the shipped configs so that one unit takes about three
seconds and a run holds several units (see run.py for why):
- fig1 runs three of the six eps (0.1, 0.01, 0.001) at 100,000 steps each
  (shipped: 400,000). At that length mean theta_1 at eps=0.001 spreads by
  about 0.005 over seeds, a quarter of the oracle's 0.02 tolerance.
- fig2 keeps all twelve eps at dmax=14 (shipped: 16), so each bracket runs on
  32,768-window chains: still the array-bound regime of LiftedChain.apply.
- scan runs 5 of the 20 random cases and the rate table on every fourth
  point of the 101-point grid (26 points, spacing 0.04); that grid keeps the
  101-point grid's minimizer nu_1 = 0.76, so the duality check is as strict.
  The cases are always those of the shipped seed: their cost depends on the
  draw (over seeds 101-110 the rescaled time of 5 cases spread by 0.39 and
  of 20 cases by 0.21, quartile distance over median), which would swamp a
  change in speed. The scan is the one workload that does not use --seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

import relochain as rc
from relochain import experiments
from relochain.config import config_from_values, parse_config_text

import oracles

FIG1_STEPS = 100_000
FIG1_EPSILONS = "0.1 0.01 0.001"
FIG2_DMAX = 14
SCAN_COUNT = 5
RATE_GRID = 26
FK_N = 50
FK_REPLICAS = 100_000
KILLED_N = 20
KILLED_REPLICAS = 100_000
GEOMETRIC_EPS = 0.5
GEOMETRIC_DTAIL = 1e-9
GEOMETRIC_DMAX = 16


def load_shipped_config(root: str, name: str, **overrides):
    """A shipped config with the matrix path made absolute and values overridden."""
    with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
        values = parse_config_text(fh.read())
    if "sigma" in values:
        values["sigma"] = os.path.join(root, values["sigma"])
    values.update({k: str(v) for k, v in overrides.items()})
    return config_from_values(values)


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def _floats(rows, keys):
    return [{k: float(row[k]) for k in keys} for row in rows]


class Workload:
    name = ""
    config_name = ""  # shipped config loaded by the set-up probe, if any
    # Result-quality guards: each `quality()` value must stay at or below its
    # limit, or the unit counts one more failed check.
    quality_limits: dict = {}

    def __init__(self, root: str, seed: int, outdir: str):
        self.root = root
        self.seed = seed
        self.outdir = outdir
        self.sigma = np.loadtxt(os.path.join(root, "configs", "benchmark2.txt"), skiprows=1)

    def setup_code(self) -> str:
        """Python source for one set-up probe: import, config load, matrix validation."""
        if self.config_name:
            return (
                "import os, relochain as rc\n"
                "from relochain.config import load_config\n"
                f"cfg = load_config(os.path.join('configs', {self.config_name!r}))\n"
                "rc.load_matrix(cfg.sigma_path) if cfg.sigma_path else rc.benchmark_matrix()\n"
            )
        return "import relochain as rc\nrc.load_matrix('configs/benchmark2.txt')\n"

    def run(self):
        raise NotImplementedError

    def check(self, result) -> list:
        raise NotImplementedError

    def quality(self, result) -> dict:
        return {}


class Fig1(Workload):
    """run_config on configs/fig1.cfg: one weighted chain per geometric law."""

    name = "fig1"
    config_name = "fig1.cfg"

    def __init__(self, root, seed, outdir):
        super().__init__(root, seed, outdir)
        self.config = load_shipped_config(
            root, self.config_name, seed=seed, steps=FIG1_STEPS, epsilons=FIG1_EPSILONS, outdir=outdir
        )
        _, self.rho1 = oracles.closed_form_2x2(self.sigma)

    def run(self):
        return rc.run_config(self.config)

    def check(self, manifest):
        summary = read_csv(os.path.join(self.outdir, "fig1_summary.csv"))
        means = {float(row["eps"]): float(row["mean_theta_1"]) for row in summary}
        tables = {}
        for row in summary:
            path = os.path.join(self.outdir, f"fig1_eps{row['eps']}.csv")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            tables[float(row["eps"])] = data[:, 1 : 1 + self.sigma.shape[0]]
        return oracles.check_fig1(tables, means, self.rho1)


class Fig2(Workload):
    """run_config on configs/fig2.cfg: twelve radius brackets and one optimize_j."""

    name = "fig2"
    config_name = "fig2.cfg"
    # The bracket may only get tighter: the widest log bracket at the parent
    # commit is the envelope log(0.8) - log(r) at the small eps.
    quality_limits = {"lifted.bracket_radius.log_width_max": 0.013941178335 + 1e-11}

    def __init__(self, root, seed, outdir):
        super().__init__(root, seed, outdir)
        self.config = load_shipped_config(root, self.config_name, seed=seed, dmax=FIG2_DMAX, outdir=outdir)
        self.j_star = oracles.j_star_2x2(self.sigma)

    def run(self):
        return rc.run_config(self.config)

    def _rows(self):
        rows = read_csv(os.path.join(self.outdir, "fig2.csv"))
        return _floats(rows, ("eps", "log_r_lo", "log_r_hi", "log_Jstar"))

    def check(self, manifest):
        return oracles.check_fig2(self._rows(), self.sigma, self.j_star)

    def quality(self, manifest):
        width = max(row["log_r_hi"] - row["log_r_lo"] for row in self._rows())
        return {"lifted.bracket_radius.log_width_max": width}


class Scan(Workload):
    """run_config on configs/conjecture.cfg, then the rate table of the law (0.5, 0.5)."""

    name = "scan"
    config_name = "conjecture.cfg"

    def __init__(self, root, seed, outdir):
        super().__init__(root, seed, outdir)
        self.config = load_shipped_config(root, self.config_name, count=SCAN_COUNT, outdir=outdir)
        self.matrix = rc.validate_substochastic(self.sigma)
        self.law = rc.RelocationLaw.explicit([0.5, 0.5])

    def run(self):
        # The oracle needs each scanned case; record what the scan hands to
        # build_lifted rather than re-deriving its random draws.
        cases = []
        build = experiments.build_lifted

        def capture(sigma, law, *args, **kwargs):
            cases.append((sigma, law))
            return build(sigma, law, *args, **kwargs)

        experiments.build_lifted = capture
        try:
            manifest = rc.run_config(self.config)
        finally:
            experiments.build_lifted = build
        table = rc.rate_function_lifted(self.matrix, self.law, grid_points=RATE_GRID)
        return manifest, cases, table

    def check(self, result):
        _, cases, table = result
        rows = _floats(read_csv(os.path.join(self.outdir, "conjecture.csv")), ("r", "J_star", "r_bold"))
        dense_cases = [
            (np.array(sigma.entries), [law.mass(i) for i in range(law.support_max + 1)])
            for sigma, law in cases
        ]
        return oracles.check_scan_cases(rows, dense_cases) + oracles.check_rate_table(
            table.i_values, table.i_lifted, table.violations
        )


class Survival(Workload):
    """Feynman-Kac estimates with a=1 and a=h and killed-chain runs, for two laws."""

    name = "survival"
    # Mean FK standard error over estimate, 0.000686 at the parent commit
    # (seeds 1-12 all within 0.2% of it); a faster sampler may not buy its
    # time with more variance.
    quality_limits = {"simulate.fk_survival_estimate.rel_se": 1.25 * 0.000686}

    def __init__(self, root, seed, outdir):
        super().__init__(root, seed, outdir)
        self.matrix = rc.validate_substochastic(self.sigma)
        _, h, _ = oracles.perron_dense(self.sigma)
        self.tilts = (("a=1", np.ones(2)), ("a=h", h))
        two_point = [0.5, 0.5]
        geometric = rc.RelocationLaw.geometric(GEOMETRIC_EPS)
        self.laws = (
            ("two_point", rc.RelocationLaw.explicit(two_point), rc.HistoryWindow((0, 0))),
            ("geometric", geometric, rc.HistoryWindow((0,))),
        )
        # Exact survival of the two-point law from an explicitly built window
        # matrix. The geometric law has no finite window chain; its survival
        # lies between those of the conservative and the tail-majorized
        # truncations, evaluated exactly on the window chain.
        trunc = rc.truncate_law(geometric, GEOMETRIC_DTAIL, GEOMETRIC_DMAX)
        start = rc.HistoryWindow((0,) * (trunc.d + 1))
        lower = rc.build_lifted(self.matrix, trunc, mode="lower")
        upper = rc.build_lifted(self.matrix, trunc, mode="upper")
        self.exact = {}
        for n in (FK_N, KILLED_N):
            p = oracles.window_survival(self.sigma, two_point, 0, n)
            self.exact[("two_point", n)] = (p, p)
            self.exact[("geometric", n)] = (rc.survival_exact(lower, start, n), rc.survival_exact(upper, start, n))

    def run(self):
        fk = []
        killed = []
        stream = 0
        for label, law, init in self.laws:
            for tilt_label, a in self.tilts:
                est = rc.fk_survival_estimate(
                    self.matrix, law, a, init, FK_N, FK_REPLICAS, rc.RngSpec(self.seed, stream)
                )
                fk.append((f"{label}.{tilt_label}", label, est))
                stream += 1
            res = rc.run_killed_chain(
                self.matrix, law, init, KILLED_N, KILLED_REPLICAS, rc.RngSpec(self.seed, stream)
            )
            killed.append((label, res))
            stream += 1
        return fk, killed

    def check(self, result):
        fk, killed = result
        checks = []
        for name, label, est in fk:
            lo, hi = self.exact[(label, FK_N)]
            checks.append(oracles.check_within(f"survival.fk.{name}", est.value, est.se, lo, hi))
        for label, res in killed:
            lo, hi = self.exact[(label, KILLED_N)]
            p = 0.5 * (lo + hi)
            se = math.sqrt(p * (1.0 - p) / KILLED_REPLICAS)
            checks.append(oracles.check_within(
                f"survival.killed.{label}", float(res.curve.p_hat[KILLED_N]), se, lo, hi
            ))
        return checks

    def quality(self, result):
        fk, _ = result
        rel = [est.se / est.value for _, _, est in fk]
        return {"simulate.fk_survival_estimate.rel_se": float(np.mean(rel))}


WORKLOADS = {w.name: w for w in (Fig1, Fig2, Scan, Survival)}
