"""Variational objectives, optimizers, and rate functions.

The dispersed-relocation objective J(a) = r_a exp(-rho_a log a) is
maximized by derivative-free search over log-weights with one coordinate
gauge-fixed (the objective is invariant under scaling of a, so an
unconstrained search would wander along rays). The rate functions are
Legendre transforms of the logarithmic spectral radii of tilted chains:
I from the benchmark matrix, its lifted counterpart from the window chain.
Both transforms at a given point are evaluated on a shared candidate set of
tilts, which enforces the ordering lifted <= benchmark numerically whenever
it holds pointwise in the tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .lifted import build_lifted, lifted_spectral_radius
from .matrices import SubStochasticMatrix, perron_triple, spectral_radius, tilt, tilt_vector
from .relocation import RelocationLaw
from .simulate import RngSpec, run_weighted_chain

BOUNDARY_DRIFT_NORM = 20.0
# Nelder-Mead fatol of optimize_j. The product is one ulp above the literal
# 1e-12; it stays the product so that optimizer outputs do not move.
J_FATOL = 1e-9 * 1e-3
RATE_INF = math.inf


@dataclass(frozen=True)
class ObjectiveEval:
    """One evaluation of the dispersed-relocation objective."""

    a: np.ndarray
    r_a: float
    rho_a: np.ndarray
    j_value: float


@dataclass(frozen=True)
class OptimizeJResult:
    a_star: np.ndarray
    j_star: float
    j_at_one: float
    j_at_h: float
    boundary_drift: bool


@dataclass(frozen=True)
class C2Estimate:
    """Monte Carlo lower-bound estimate for the persistence log-rate."""

    value: float
    se: float
    batch_means: np.ndarray
    steps: int
    burnin: int


@dataclass(frozen=True)
class RateFunctionTable:
    """Benchmark and lifted rate functions on a simplex grid.

    `violations` flags grid points where the lifted value exceeds the
    benchmark one beyond tolerance; the lifted radius dominates the
    benchmark radius at every tilt, so a flag indicates a numerical
    failure, not a discovery.
    """

    nu_grid: np.ndarray  # (k, m)
    i_values: np.ndarray
    i_lifted: np.ndarray
    violations: np.ndarray


def j_objective(sigma: SubStochasticMatrix, a) -> ObjectiveEval:
    """J(a) = r_a exp(-rho_a log a) for a positive weight vector a."""
    av = tilt_vector(a)
    triple = perron_triple(tilt(sigma, av))
    j = triple.r * math.exp(-float(triple.rho @ np.log(av)))
    return ObjectiveEval(a=av, r_a=triple.r, rho_a=triple.rho, j_value=j)


def optimize_j(
    sigma: SubStochasticMatrix,
    restarts: int = 8,
    rng: RngSpec = RngSpec(0),
) -> OptimizeJResult:
    """Multi-start Nelder-Mead maximization of J over log a with a(last) = 1.

    Start points are log a = 0, log a = log h, and Gaussian perturbations;
    the returned value is the best evaluation seen, so it never falls below
    J(1) or J(h) by more than solver tolerance. A best point with a large
    log-weight norm is reported as boundary drift rather than treated as an
    attained supremum.
    """
    m = sigma.m
    j_one = j_objective(sigma, np.ones(m)).j_value
    h = perron_triple(sigma).h
    j_h = j_objective(sigma, h).j_value
    if m == 1:
        return OptimizeJResult(
            a_star=np.ones(1), j_star=j_one, j_at_one=j_one, j_at_h=j_h,
            boundary_drift=False,
        )

    def expand(x):
        return np.exp(np.append(x, 0.0))

    def neg_j(x):
        return -j_objective(sigma, expand(x)).j_value

    log_h = np.log(h)
    starts = [np.zeros(m - 1), (log_h - log_h[-1])[:-1]]
    gen = rng.generator()
    for _ in range(max(0, restarts - 2)):
        starts.append(gen.normal(scale=1.0, size=m - 1))

    best_x = starts[0]
    best = -neg_j(best_x)
    for x0 in starts:
        res = minimize(
            neg_j,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": J_FATOL, "maxiter": 500 * m},
        )
        val = -res.fun
        if val > best:
            best = val
            best_x = res.x
    a_star = expand(best_x)
    drift = bool(np.abs(np.log(a_star)).max() > BOUNDARY_DRIFT_NORM)
    return OptimizeJResult(
        a_star=a_star, j_star=best, j_at_one=j_one, j_at_h=j_h,
        boundary_drift=drift,
    )


def c2_bound_estimate(
    sigma: SubStochasticMatrix,
    law: RelocationLaw,
    a,
    steps: int = 1_500_000,
    burnin: int | None = None,
    rng: RngSpec = RngSpec(0),
) -> C2Estimate:
    """Ergodic-average estimate of the persistence lower bound for weight a.

    Runs the weighted chain and averages log(K a / a) along it; the standard
    error comes from batch means over twenty contiguous blocks, which is
    robust without knowing the mixing time. Every law of the closed-form
    families has a finite mean, so the time average has a unique limit.
    """
    stats = run_weighted_chain(sigma, law, a, steps=steps, burnin=burnin, rng=rng)
    return C2Estimate(
        value=stats.c2_mean,
        se=stats.c2_se,
        batch_means=stats.batch_means,
        steps=stats.steps,
        burnin=stats.burnin,
    )


def _gauge_fixed_objective(nu, log_radius_of_tilt, m):
    """nu lambda - log radius(exp lambda) with lambda(last) = 0."""

    def value(x):
        lam = np.append(x, 0.0)
        return float(nu @ lam) - log_radius_of_tilt(np.exp(lam))

    return value


def _legendre_sup(nu, log_radius_of_tilt, m, starts):
    """Numeric Legendre transform; returns (value, best_lambda_gauged).

    The objective is concave in the tilt exponents, so Nelder-Mead from one
    good start is reliable; the best maximizer is returned so callers can
    share it across related transforms.
    """
    objective = _gauge_fixed_objective(nu, log_radius_of_tilt, m)

    def neg(x):
        return -objective(x)

    best_val = None
    best_x = None
    for x0 in starts:
        res = minimize(
            neg, np.asarray(x0, dtype=float), method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 800 * m},
        )
        if best_val is None or -res.fun > best_val:
            best_val = -res.fun
            best_x = res.x
    return best_val, best_x


def rate_function_I(sigma: SubStochasticMatrix, nu) -> float:
    """Benchmark rate function at a simplex point, by the Legendre route.

    At simplex vertices the supremum has the closed form -log sigma[s, s],
    returned exactly (infinite when the diagonal entry vanishes). Elsewhere
    the transform is computed numerically and the tilt exp(log h) is always
    included as a witness, so the result never falls below -log r.
    """
    nu = np.asarray(nu, dtype=float)
    m = sigma.m
    vertex = int(np.argmax(nu))
    if nu[vertex] >= 1.0 - 1e-15:
        diag = float(sigma.entries[vertex, vertex])
        return RATE_INF if diag == 0.0 else -math.log(diag)

    def log_radius(av):
        return math.log(spectral_radius(tilt(sigma, av)))

    log_h = np.log(perron_triple(sigma).h)
    starts = [np.zeros(m - 1), (log_h - log_h[-1])[:-1]]
    val, _ = _legendre_sup(nu, log_radius, m, starts)
    return val


def rate_function_lifted(
    sigma: SubStochasticMatrix,
    law: RelocationLaw,
    grid_points: int = 101,
) -> RateFunctionTable:
    """Tabulate the benchmark and lifted rate functions on a simplex grid.

    Requires two states and a bounded law; the grid is nu = (x, 1 - x) at
    `grid_points` evenly spaced x in [0, 1]. Each grid point maximizes both
    transforms over a shared candidate set of tilts (the numeric optimum of
    each transform, the benchmark eigenvector tilt, and the flat tilt); since
    the lifted radius dominates the benchmark radius at every tilt,
    evaluating both sides on the same candidates preserves the ordering
    lifted <= benchmark up to solver noise.
    """
    if not law.bounded:
        raise ValueError("rate_function_lifted needs a bounded relocation law")
    m = sigma.m
    if m != 2:
        raise ValueError("the rate-function grid covers two states only")
    xs = np.linspace(0.0, 1.0, grid_points)
    nu_grid = np.column_stack([xs, 1.0 - xs])

    log_h = np.log(perron_triple(sigma).h)
    h_cand = (log_h - log_h[-1])[:-1]

    def log_radius_plain(av):
        return math.log(spectral_radius(tilt(sigma, av)))

    def log_radius_lifted(av):
        chain = build_lifted(tilt(sigma, av), law, mode="exact")
        return math.log(lifted_spectral_radius(chain).radius)

    k = nu_grid.shape[0]
    i_vals = np.empty(k)
    i_bold = np.empty(k)
    warm_plain = None
    warm_bold = None
    for idx in range(k):
        nu = nu_grid[idx]
        vertex = int(np.argmax(nu))
        # The objectives are concave and the optimum drifts smoothly along
        # the grid, so after the first point a single warm-started search
        # suffices per transform.
        starts_plain = [warm_plain] if warm_plain is not None else [np.zeros(m - 1), h_cand]
        starts_bold = [warm_bold] if warm_bold is not None else [np.zeros(m - 1), h_cand]
        if nu[vertex] >= 1.0 - 1e-15:
            # Exact at vertices for the benchmark; the lifted transform is
            # still approached from below, which respects the ordering.
            diag = float(sigma.entries[vertex, vertex])
            i_here = RATE_INF if diag == 0.0 else -math.log(diag)
            _, x_bold = _legendre_sup(nu, log_radius_lifted, m, starts_bold)
            obj_bold = _gauge_fixed_objective(nu, log_radius_lifted, m)
            i_bold_here = max(obj_bold(x_bold), obj_bold(h_cand), obj_bold(np.zeros(m - 1)))
            i_vals[idx] = i_here
            i_bold[idx] = i_bold_here
            continue
        _, x_plain = _legendre_sup(nu, log_radius_plain, m, starts_plain)
        _, x_bold = _legendre_sup(nu, log_radius_lifted, m, starts_bold)
        warm_plain, warm_bold = x_plain, x_bold
        candidates = [x_plain, x_bold, h_cand, np.zeros(m - 1)]
        obj_plain = _gauge_fixed_objective(nu, log_radius_plain, m)
        obj_bold = _gauge_fixed_objective(nu, log_radius_lifted, m)
        i_vals[idx] = max(obj_plain(c) for c in candidates)
        i_bold[idx] = max(obj_bold(c) for c in candidates)

    violations = i_bold > i_vals + 1e-8
    return RateFunctionTable(
        nu_grid=nu_grid, i_values=i_vals, i_lifted=i_bold, violations=violations
    )
