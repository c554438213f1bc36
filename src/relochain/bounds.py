"""Variational objectives, optimizers, and rate functions.

The dispersed-relocation objective J(a) = r_a exp(-rho_a log a) is
maximized by Nelder-Mead over log-weights with one coordinate gauge-fixed
(the objective is invariant under scaling of a, so an unconstrained search
would wander along rays), from three starts: the flat weight, the benchmark
Perron vector h, and one seeded Gaussian draw. The rate functions I and
I_bold are Legendre transforms of the log spectral radii of the tilted
benchmark and window chain. One BFGS solver computes both, for any number
of states, on the exact gradient: the newest-state marginal of rho h. The
benchmark transform is also evaluated at the lifted maximizer, so
I_bold <= I holds by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .lifted import build_lifted
from .matrices import DENSE_MAX_STATES, PerronTriple, SubStochasticMatrix, _perron_triple, perron_triple, tilt_vector
from .relocation import RelocationLaw
from .simulate import RngSpec

BOUNDARY_DRIFT_NORM = 20.0
# Nelder-Mead fatol of optimize_j. The product is one ulp above the literal
# 1e-12; it stays the product so that optimizer outputs do not move.
J_FATOL = 1e-9 * 1e-3


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


def _tilt_triple(sigma: SubStochasticMatrix, a: np.ndarray) -> PerronTriple:
    """Perron triple of sigma diag(a), unchecked: a positive tilt keeps the support validation proved irreducible."""
    return _perron_triple(sigma.entries * a, sigma.m)


def _window_triple(sigma: SubStochasticMatrix, law: RelocationLaw, a: np.ndarray) -> PerronTriple:
    """Perron triple of the window chain of sigma diag(a): dense up to DENSE_MAX_STATES windows, sparse above."""
    chain = build_lifted(sigma.entries * a, law)
    n = chain.n_states
    return _perron_triple(chain.dense() if n <= DENSE_MAX_STATES else chain.operator, n, chain.m)


def j_objective(sigma: SubStochasticMatrix, a) -> ObjectiveEval:
    """J(a) = r_a exp(-rho_a log a) for a validated sigma and a positive weight vector a."""
    av = tilt_vector(a)
    if av.shape[0] != sigma.m:
        raise ValueError("tilt vector length does not match the matrix")
    triple = _tilt_triple(sigma, av)
    j = triple.r * math.exp(-float(triple.rho @ np.log(av)))
    return ObjectiveEval(a=av, r_a=triple.r, rho_a=triple.rho, j_value=j)


def optimize_j(sigma: SubStochasticMatrix, rng: RngSpec = RngSpec(0)) -> OptimizeJResult:
    """Nelder-Mead maximization of J over log a with a(last) = 1, from three starts.

    `sigma` is a validated SubStochasticMatrix. The starts are log a = 0, the
    gauge-fixed log h, and one standard Gaussian draw from `rng`: J is not
    known to be unimodal, and the draw is a cheap hedge against a second
    local maximum. The returned value is the best evaluation seen, so it
    never falls below J(1) or J(h) by more than solver tolerance. A best
    point with a large log-weight norm is reported as boundary drift rather
    than treated as an attained supremum.
    """
    from scipy.optimize import minimize  # deferred: 0.5 s to import, scipy.sparse included

    m = sigma.m
    j_one = j_objective(sigma, np.ones(m)).j_value
    h = perron_triple(sigma).h
    j_h = j_objective(sigma, h).j_value
    if m == 1:
        return OptimizeJResult(a_star=np.ones(1), j_star=j_one, j_at_one=j_one, j_at_h=j_h, boundary_drift=False)

    def expand(x):
        return np.exp(np.append(x, 0.0))

    def neg_j(x):
        return -j_objective(sigma, expand(x)).j_value

    log_h = np.log(h)
    starts = [np.zeros(m - 1), (log_h - log_h[-1])[:-1], rng.generator().normal(size=m - 1)]

    best_x, best = starts[0], j_one
    for x0 in starts:
        res = minimize(neg_j, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": J_FATOL, "maxiter": 500 * m})
        if -res.fun > best:
            best, best_x = -res.fun, res.x
    a_star = expand(best_x)
    drift = bool(np.abs(np.log(a_star)).max() > BOUNDARY_DRIFT_NORM)
    return OptimizeJResult(a_star=a_star, j_star=best, j_at_one=j_one, j_at_h=j_h, boundary_drift=drift)


def _vertex_rate(sigma: SubStochasticMatrix, nu: np.ndarray) -> float | None:
    """-log sigma[v, v] when nu is the vertex e_v of the simplex, else None.

    At e_v the objective lambda_v - log r(exp lambda) increases to its
    supremum as lambda_v grows with the other tilts fixed, and
    r / exp(lambda_v) tends to the radius of the part of the operator that
    moves toward v. For the benchmark that part is the self-loop sigma[v, v].
    For a window chain it moves each window w to (v, w_0, ..., w_{d-1}), so
    every path reaches the constant-v window within d + 1 steps and the only
    cycle is that window's self-loop, of weight sum_i mass(i) sigma[v, v] =
    sigma[v, v]. The part is a DAG apart from that loop, its radius is
    sigma[v, v] for every law, and both transforms equal -log sigma[v, v]
    (infinite when the entry vanishes).
    """
    vertex = int(np.argmax(nu))
    if nu[vertex] < 1.0 - 1e-15:
        return None
    diag = float(sigma.entries[vertex, vertex])
    return math.inf if diag == 0.0 else -math.log(diag)


def _legendre(triple_at, nu: np.ndarray, witness=None) -> tuple[float, np.ndarray]:
    """(value, maximizer) of sup over lambda of nu lambda - log r(exp lambda), gauge lambda(last) = 0.

    `triple_at(a)` is the Perron triple of the tilt by a of the benchmark or of
    a window chain (windows indexed newest state first). By first-order
    perturbation, d log r / d lambda_t sums rho h over the windows a move
    toward t enters, those with newest state t. BFGS maximizes the concave
    objective on that exact gradient from the flat tilt, where it is -log r.
    A `witness` tilt bounds the value from below.
    """
    from scipy.optimize import minimize  # deferred: 0.5 s to import, scipy.sparse included

    def neg_objective(x):
        lam = np.append(x, 0.0)
        with np.errstate(over="ignore"):
            a = np.exp(lam)
        if not (np.isfinite(a).all() and (a > 0.0).all()):  # the maximizing tilt runs to infinity
            raise NoConvergenceError(f"Legendre transform at nu = {nu.tolist()}: the supremum is not attained")
        triple = triple_at(a)
        grad = (triple.rho * triple.h).reshape(len(nu), -1).sum(axis=1) - nu
        return math.log(triple.r) - float(nu @ lam), grad[:-1]

    # At a gradient of 1e-8 the value sits within about 1e-16 of the optimum.
    res = minimize(neg_objective, np.zeros(len(nu) - 1), jac=True, method="BFGS", options={"gtol": 1e-8})
    if witness is not None:
        return max(-res.fun, -neg_objective(witness)[0]), res.x
    return -res.fun, res.x


def rate_function_I(sigma: SubStochasticMatrix, nu) -> float:
    """Benchmark rate function of a validated sigma at a simplex point, by the Legendre route.

    At simplex vertices the supremum has the closed form -log sigma[s, s],
    returned exactly (infinite when the diagonal entry vanishes). Elsewhere
    the concave transform is maximized by BFGS on its exact gradient, started
    at the flat tilt, so the result never falls below -log r.
    """
    nu = np.asarray(nu, dtype=float)
    at_vertex = _vertex_rate(sigma, nu)
    return at_vertex if at_vertex is not None else _legendre(lambda a: _tilt_triple(sigma, a), nu)[0]


def rate_function_lifted(sigma: SubStochasticMatrix, law: RelocationLaw, grid_points: int = 101) -> RateFunctionTable:
    """Tabulate the benchmark and lifted rate functions on a simplex grid.

    Requires a validated sigma and a bounded law. The grid is every nu with
    coordinates in multiples of 1/(grid_points - 1), lexicographic in
    nu_1..nu_{m-1}: for two states nu = (x, 1 - x) with x rising. Both
    columns are exact at the vertices; elsewhere `_legendre` maximizes the
    lifted transform, then the benchmark one, also evaluated at the lifted
    maximizer lambda_bold. The lifted radius dominates the benchmark one at
    every tilt, so I_bold = lifted(lambda_bold) <= benchmark(lambda_bold) <= I
    by construction.
    """
    if not law.bounded:
        raise ValueError("rate_function_lifted needs a bounded relocation law")
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    m, k = sigma.m, grid_points - 1
    # Stars and bars: lexicographic bar positions give k * nu lexicographic.
    bars = np.array(list(itertools.combinations(range(k + m - 1), m - 1)), dtype=float)
    nu_grid = (np.diff(bars, axis=1, prepend=-1.0, append=k + m - 1.0) - 1.0) / k

    i_vals, i_bold = np.empty((2, len(nu_grid)))
    for idx, nu in enumerate(nu_grid):
        at_vertex = _vertex_rate(sigma, nu)
        if at_vertex is not None:
            i_vals[idx] = i_bold[idx] = at_vertex
            continue
        i_bold[idx], lam_bold = _legendre(lambda a: _window_triple(sigma, law, a), nu)
        i_vals[idx] = _legendre(lambda a: _tilt_triple(sigma, a), nu, witness=lam_bold)[0]
    return RateFunctionTable(nu_grid=nu_grid, i_values=i_vals, i_lifted=i_bold, violations=i_bold > i_vals + 1e-8)
