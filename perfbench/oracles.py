"""Correctness oracles that do not call relochain.

Every reference here comes from closed forms, dense `numpy.linalg`
eigensolves of explicitly built matrices, or frozen values computed that way.
Each check returns a `Check`; a failed check counts as a failed operation.
Tolerances are the acceptance tolerances of the source paper's criteria.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

# Dense eigensolve of the explicit 4 x 4 window chain for the law (0.5, 0.5)
# on the two-state benchmark; `window_matrix` reproduces it (see the tests).
R_BOLD_HALF_HALF = 0.7893433926663943
RHO1_TOL = 0.02
DUALITY_TOL = 1e-4
FK_SE_MULT = 4.0


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def perron_dense(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(r, h, rho) of a positive square matrix from `numpy.linalg.eig`.

    h is the right and rho the left Perron vector, rho normalized to sum 1.
    """
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmax(vals.real))
    r = float(vals[k].real)
    h = np.abs(vecs[:, k].real)
    lvals, lvecs = np.linalg.eig(a.T)
    rho = np.abs(lvecs[:, int(np.argmax(lvals.real))].real)
    return r, h, rho / rho.sum()


def closed_form_2x2(a: np.ndarray) -> tuple[float, float]:
    """Perron root and first left-vector coordinate of a positive 2 x 2 matrix."""
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    r = (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0
    ratio = (r - a[0, 0]) / a[1, 0]  # rho_2 / rho_1 from rho a = r rho
    return r, 1.0 / (1.0 + ratio)


def j_value(sigma: np.ndarray, a: np.ndarray) -> float:
    """J(a) = r_a exp(-rho_a . log a) for the column tilt sigma[s, t] a[t]."""
    r, _, rho = perron_dense(sigma * a[None, :])
    return r * math.exp(-float(rho @ np.log(a)))


def j_star_2x2(sigma: np.ndarray) -> float:
    """sup_a J(a) for two states: a grid over log(a_1 / a_2), then a bounded refine."""
    xs = np.linspace(-12.0, 12.0, 2401)
    vals = [j_value(sigma, np.array([math.exp(x), 1.0])) for x in xs]
    k = int(np.argmax(vals))
    lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]
    res = minimize_scalar(
        lambda x: -j_value(sigma, np.array([math.exp(x), 1.0])),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
    )
    return max(vals[k], -res.fun)


def window_matrix(sigma: np.ndarray, masses) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Explicit transition matrix of the relocation chain on memory windows.

    A window is (s_0, ..., s_d), most recent first; from it the walk moves to
    t with weight sum_i masses[i] sigma[s_i, t] and the window becomes
    (t, s_0, ..., s_{d-1}). Built by enumeration, for small m**(d+1).
    """
    m = sigma.shape[0]
    d = len(masses) - 1
    windows = list(itertools.product(range(m), repeat=d + 1))
    index = {w: k for k, w in enumerate(windows)}
    mat = np.zeros((len(windows), len(windows)))
    for w in windows:
        for t in range(m):
            weight = sum(masses[i] * sigma[w[i], t] for i in range(d + 1))
            mat[index[w], index[(t,) + w[:-1]]] += weight
    return mat, windows


def window_radius(sigma: np.ndarray, masses) -> float:
    mat, _ = window_matrix(sigma, masses)
    return float(np.abs(np.linalg.eigvals(mat)).max())


def window_survival(sigma: np.ndarray, masses, state: int, n: int) -> float:
    """Probability of surviving n steps from the constant window (state, ..., state)."""
    mat, windows = window_matrix(sigma, masses)
    v = np.linalg.matrix_power(mat, n) @ np.ones(len(windows))
    return float(v[windows.index((state,) * len(masses))])


# ---------------------------------------------------------------- fig1


def check_fig1(theta_tables: dict, mean_theta1: dict, rho1: float) -> list[Check]:
    """theta rows on the simplex; mean theta_1 at the smallest eps near rho_1.

    `theta_tables` maps eps to the (k, m) occupation samples read back from
    the CSVs, `mean_theta1` maps eps to the summary's mean theta_1.
    """
    checks = []
    for eps, theta in theta_tables.items():
        worst = float(np.abs(theta.sum(axis=1) - 1.0).max()) if len(theta) else math.inf
        ok = len(theta) > 0 and bool((theta >= 0).all()) and worst <= 1e-9
        checks.append(Check(f"fig1.simplex.eps{eps:g}", ok, f"max |sum - 1| {worst:.1e}"))
    eps_min = min(mean_theta1)
    dev = abs(mean_theta1[eps_min] - rho1)
    checks.append(Check(
        "fig1.mean_theta1", dev <= RHO1_TOL,
        f"|mean theta_1({eps_min:g}) - rho_1| = {dev:.4f} (tol {RHO1_TOL})",
    ))
    return checks


# ---------------------------------------------------------------- fig2


def check_fig2(rows: list[dict], sigma: np.ndarray, j_star: float) -> list[Check]:
    """Bracket ordering and envelopes of fig2.csv against closed forms.

    rows hold the floats eps, log_r_lo, log_r_hi, log_Jstar; j_star comes
    from `j_star_2x2`.
    """
    r, _ = closed_form_2x2(sigma)
    log_r = math.log(r)
    log_row = math.log(float(sigma.sum(axis=1).max()))
    log_jstar = math.log(j_star)
    fmt_tol = 1e-11  # CSV floats carry 12 significant digits
    checks = []
    for row in rows:
        eps, lo, hi = row["eps"], row["log_r_lo"], row["log_r_hi"]
        ok = lo <= hi and lo >= log_r - 1e-9 and hi <= log_row + fmt_tol
        checks.append(Check(
            f"fig2.bracket.eps{eps:g}", ok,
            f"log lo {lo:.9f} log hi {hi:.9f} in [log r {log_r:.9f}, log max row sum {log_row:.9f}]",
        ))
    smallest = min(rows, key=lambda row: row["eps"])
    checks.append(Check(
        "fig2.lo_small_eps", smallest["log_r_lo"] >= log_jstar - 0.02,
        f"log lo({smallest['eps']:g}) {smallest['log_r_lo']:.6f} >= log J* - 0.02 = {log_jstar - 0.02:.6f}",
    ))
    err = max(abs(row["log_Jstar"] - log_jstar) for row in rows)
    checks.append(Check("fig2.jstar", err <= 1e-6, f"|log J* - dense oracle| {err:.1e}"))
    return checks


# ---------------------------------------------------------------- scan


def check_scan_cases(rows: list[dict], cases: list[tuple[np.ndarray, list[float]]]) -> list[Check]:
    """Each conjecture-scan row against dense solves of its own case.

    rows hold the floats r, J_star, r_bold; cases hold the (sigma, masses)
    that the scan passed to `build_lifted`, in order.
    """
    checks = []
    if len(rows) != len(cases):
        return [Check("scan.cases", False, f"{len(rows)} rows for {len(cases)} captured cases")]
    for k, (row, (sigma, masses)) in enumerate(zip(rows, cases)):
        r, h, _ = perron_dense(sigma)
        r_bold = window_radius(sigma, masses)
        j_floor = max(j_value(sigma, np.ones(len(sigma))), j_value(sigma, h))
        err_bold = abs(row["r_bold"] - r_bold)
        err_r = abs(row["r"] - r)
        ok = err_bold <= 1e-9 and err_r <= 1e-9 and row["J_star"] >= j_floor - 1e-9
        checks.append(Check(
            f"scan.case{k}", ok,
            f"|r_bold - dense| {err_bold:.1e}, |r - dense| {err_r:.1e}, "
            f"J* - max(J(1), J(h)) {row['J_star'] - j_floor:.1e}",
        ))
    return checks


def check_rate_table(i_values: np.ndarray, i_lifted: np.ndarray, violations: np.ndarray) -> list[Check]:
    finite = np.isfinite(i_values)
    excess = float((i_lifted[finite] - i_values[finite]).max())
    ordered = excess <= 1e-8 and not bool(np.asarray(violations).any())
    duality = abs(-float(i_lifted.min()) - math.log(R_BOLD_HALF_HALF))
    return [
        Check("scan.rate_ordering", ordered, f"max(I_lifted - I) {excess:.1e}, flagged {int(np.sum(violations))}"),
        Check("scan.rate_duality", duality <= DUALITY_TOL, f"duality err {duality:.1e} (tol {DUALITY_TOL})"),
    ]


# ---------------------------------------------------------------- survival


def check_within(name: str, value: float, se: float, lo: float, hi: float) -> Check:
    """value lies within FK_SE_MULT standard errors of the interval [lo, hi]."""
    slack = FK_SE_MULT * se
    ok = lo - slack <= value <= hi + slack
    ref = f"{lo:.6g}" if lo == hi else f"[{lo:.6g}, {hi:.6g}]"
    return Check(name, ok, f"estimate {value:.6g} +- {se:.2g} vs exact {ref}")
