"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete. Frozen reference values were computed from independent
oracles (closed-form 2x2 spectra, a dense 4x4 eigensolve, logarithm
arithmetic) before the library was built.
"""

import math
import os
import time

import numpy as np
import pytest

import relochain as rc

from conftest import R_CLOSED, closed_form_triple

# Frozen pre-build oracle: dense power iteration on the explicit 4x4 window
# chain for the two-point law (0.5, 0.5), cross-checked with numpy.linalg.eigvals.
R_BOLD_HALF_HALF = 0.7893433926663943
MARGIN_HALF_HALF = R_BOLD_HALF_HALF - R_CLOSED

TWO_POINT = rc.RelocationLaw.explicit([0.5, 0.5])


def report(num, detail):
    print(f"[acceptance {num:2d}] PASS  {detail}")


def test_criterion_01_perron_oracle(sigma_fig):
    r_cf, rho_cf, h_cf = closed_form_triple()
    best = math.inf
    for _ in range(30):
        t0 = time.perf_counter()
        triple = rc.perron_triple(sigma_fig)
        best = min(best, time.perf_counter() - t0)
    assert abs(triple.r - r_cf) <= 1e-10
    assert np.abs(triple.rho - rho_cf).max() <= 1e-9
    assert np.abs(triple.h - h_cf).max() <= 1e-9
    assert best < 1e-3
    report(1, f"r err {abs(triple.r - r_cf):.2e}, best runtime {best*1e6:.0f} us")


def test_criterion_02_dirac_matches_benchmark(sigma_fig):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (0, 1, 2, 3):
        chain = rc.build_lifted(sigma_fig, rc.RelocationLaw.dirac(d))
        radius = rc.lifted_spectral_radius(chain).radius
        worst = max(worst, abs(radius - R_CLOSED))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(2, f"max |r_bold - r| over d in 0..3: {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_strict_improvement_margin(sigma_fig):
    t0 = time.perf_counter()
    radius_a = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, TWO_POINT)).radius
    radius_b = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, TWO_POINT)).radius
    elapsed = time.perf_counter() - t0
    margin = radius_a - R_CLOSED
    assert margin > 0
    assert abs(margin - MARGIN_HALF_HALF) <= 1e-10
    assert radius_a == radius_b  # bitwise reproducible across runs
    assert elapsed < 1.0
    report(3, f"margin {margin:.12e} vs frozen {MARGIN_HALF_HALF:.12e}, {elapsed:.2f}s")


def test_criterion_04_feynman_kac_identity(sigma_fig):
    t0 = time.perf_counter()
    init = rc.HistoryWindow((0, 0))
    exact = rc.survival_exact(rc.build_lifted(sigma_fig, TWO_POINT), init, 10)
    h = rc.perron_triple(sigma_fig).h
    hits = {}
    for label, a in (("a=1", np.ones(2)), ("a=h", h)):
        ok = 0
        for rep in range(100):
            est = rc.fk_survival_estimate(
                sigma_fig, TWO_POINT, a, init, 10, 100_000, rc.RngSpec(777, rep)
            )
            if abs(est.value - exact) <= 3 * est.se:
                ok += 1
        hits[label] = ok
        assert ok >= 95
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"3-se hits per 100 reps: {hits}, {elapsed:.1f}s")


def test_criterion_05_c2_strictness(sigma_fig):
    t0 = time.perf_counter()
    h = rc.perron_triple(sigma_fig).h
    est = rc.run_weighted_chains(
        sigma_fig, [TWO_POINT], h, steps=1_500_000, rng=rc.RngSpec(2024)
    )[0]
    log_r = math.log(R_CLOSED)
    log_r_bold = math.log(R_BOLD_HALF_HALF)
    elapsed = time.perf_counter() - t0
    assert est.c2_mean - log_r > 3 * est.c2_se
    assert est.c2_mean <= log_r_bold + 3 * est.c2_se
    assert elapsed < 60.0
    report(
        5,
        f"estimate {est.c2_mean:.6f} in (log r {log_r:.6f}, log r_bold {log_r_bold:.6f}], "
        f"se {est.c2_se:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_occupation_concentration(sigma_fig):
    t0 = time.perf_counter()
    stats = {}
    for k, eps in enumerate((0.3, 0.01)):
        run = rc.run_weighted_chains(
            sigma_fig, [rc.RelocationLaw.geometric(eps)], np.ones(2),
            steps=400_000, thin=20, rng=rc.RngSpec(606, k),
        )[0]
        theta1 = run.theta_samples[:, 0]
        stats[eps] = (float(theta1.mean()), float(theta1.std(ddof=1)))
    elapsed = time.perf_counter() - t0
    mean_small, std_small = stats[0.01]
    _, std_large = stats[0.3]
    assert abs(mean_small - 0.723108) <= 0.02
    assert std_small < 0.5 * std_large
    assert elapsed < 120.0
    report(
        6,
        f"mean theta1(0.01) {mean_small:.4f} (target 0.723108 +- 0.02), "
        f"std {std_small:.4f} < half of {std_large:.4f}, {elapsed:.1f}s",
    )


def test_criterion_07_dispersed_limit_bracket(sigma_fig):
    t0 = time.perf_counter()
    opt = rc.optimize_j(sigma_fig)
    log_jstar = math.log(opt.j_star)
    log_r = math.log(R_CLOSED)
    epsilons = [float(x) for x in np.geomspace(0.5, 0.001, 12)]
    soft_violations = []
    lo_small = None
    for eps in epsilons:
        br = rc.bracket_radius(sigma_fig, rc.RelocationLaw.geometric(eps), delta_tail=1e-6, d_max=16)
        assert math.log(br.lo) >= log_r - 1e-9
        if math.log(br.hi) > log_jstar + 0.02:
            soft_violations.append(eps)
        if eps == epsilons[-1]:
            lo_small = br.lo
    elapsed = time.perf_counter() - t0
    assert math.log(lo_small) >= log_jstar - 0.02
    if soft_violations:
        print(f"[acceptance  7] NOTE expected-ceiling exceeded at eps {soft_violations}")
    assert elapsed < 120.0
    report(
        7,
        f"log lo(0.001) {math.log(lo_small):.6f} >= log J* - 0.02 = {log_jstar - 0.02:.6f}; "
        f"soft ceiling violations: {len(soft_violations)}, {elapsed:.1f}s",
    )


def test_criterion_08_rate_function_ordering(sigma_fig):
    t0 = time.perf_counter()
    table = rc.rate_function_lifted(sigma_fig, TWO_POINT, grid_points=101)
    finite = np.isfinite(table.i_values)
    assert (table.i_lifted[finite] <= table.i_values[finite] + 1e-8).all()
    assert not table.violations.any()

    table0 = rc.rate_function_lifted(sigma_fig, rc.RelocationLaw.dirac(0), grid_points=101)
    finite0 = np.isfinite(table0.i_values)
    gap0 = np.abs(table0.i_values[finite0] - table0.i_lifted[finite0]).max()
    assert gap0 <= 1e-8

    r_bold = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, TWO_POINT)).radius
    duality_err = abs(-table.i_lifted.min() - math.log(r_bold))
    assert duality_err <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        8,
        f"ordering holds on 101 points; dirac gap {gap0:.2e}; duality err {duality_err:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_contraction(sigma_fig):
    delta = math.log((0.72 * 0.58) / (0.08 * 0.18))
    kappa_oracle = math.tanh(delta / 4.0)
    kappa = rc.birkhoff_contraction(sigma_fig)
    assert abs(kappa - kappa_oracle) <= 1e-4
    rng = np.random.default_rng(909)
    worst = -math.inf
    for _ in range(1000):
        a = rng.uniform(0.2, 4.0, size=2)
        sa = rc.tilt(sigma_fig, a)
        kappa_a = rc.birkhoff_contraction(sa)
        x, y = rng.dirichlet(np.ones(2) * 0.8, size=2)
        x = np.clip(x, 1e-7, None)
        y = np.clip(y, 1e-7, None)
        lhs = rc.hilbert_distance(rc.phi_map(x, sa), rc.phi_map(y, sa))
        rhs = kappa_a * rc.hilbert_distance(x, y)
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-12
    report(9, f"kappa {kappa:.6f} (oracle {kappa_oracle:.6f}); worst slack {worst:.2e}")


def test_criterion_10_byte_identical_reruns(tmp_path):
    from relochain.cli import main

    pairs = {}
    for which, flags in (
        ("fig1", ["--steps", "20000", "--seed", "31"]),
        ("fig2", ["--dmax", "10", "--seed", "31"]),
    ):
        digests = []
        for run_id in ("x", "y"):
            outdir = tmp_path / f"{which}_{run_id}"
            assert main([which, *flags, "--outdir", str(outdir)]) == 0
            blob = {
                name: (outdir / name).read_bytes()
                for name in sorted(os.listdir(outdir))
                if name.endswith(".csv") or name.endswith(".svg")
            }
            digests.append(blob)
        assert digests[0] == digests[1]
        pairs[which] = len(digests[0])
    report(10, f"byte-identical reruns: fig1 ({pairs['fig1']} files), fig2 ({pairs['fig2']} files)")
