"""Variational objectives, optimizers, and rate functions.

The dispersed-relocation objective J(a) = r_a exp(-rho_a log a) is
maximized over log-weights lambda = log a with one coordinate gauge-fixed
(the objective is invariant under scaling of a, so an unconstrained search
would wander along rays), from three starts: the flat weight, the benchmark
Perron vector h, and one seeded Gaussian draw. The rate functions I and
I_bold are Legendre transforms of the log spectral radii of the tilted
benchmark and window chain. One BFGS solver serves all three, for any
number of states, on exact gradients. For the transforms the gradient is
the newest-state marginal of rho h. For log J = log r - rho lambda it is
rho h minus the derivative of rho lambda, which takes one bordered solve
with the tilted matrix A: [[A - rI, h], [rho, 0]] (x, mu) =
(lambda - (rho lambda) 1, 0) gives d(rho lambda)/d lambda_t =
rho_t + r rho_t h_t (rho x) - r rho_t x_t (derivatives of Perron vectors:
Golub and Meyer, SIAM J. Algebraic Discrete Methods 7, 1986; Meyer and
Stewart, SIAM J. Numer. Anal. 25, 1988). The benchmark transform is also
evaluated at the lifted maximizer, so I_bold <= I holds by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoConvergenceError
from .lifted import build_lifted
from .matrices import DENSE_MAX_STATES, PerronTriple, SubStochasticMatrix, _perron_triple, tilt_vector
from .relocation import RelocationLaw
from .simulate import RngSpec

BOUNDARY_DRIFT_NORM = 20.0
# A search never asks for a Perron solve at log-weights that spread wider
# than this, so the tilted entries span at most e^100 (about 1e43), far
# inside double range. Without the bound, a line search toward an unattained
# supremum asks for tilts so large that the power iteration overflows.
MAX_TILT_SPREAD = 100.0


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
    evaluations: int


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


def _window_triple(sigma: SubStochasticMatrix, law: RelocationLaw, a: np.ndarray) -> PerronTriple:
    """Perron triple of the window chain of sigma diag(a): dense up to DENSE_MAX_STATES windows, sparse above."""
    chain = build_lifted(sigma.entries * a, law)
    n = chain.n_states
    return _perron_triple(chain.dense() if n <= DENSE_MAX_STATES else chain.operator, chain.m)


def _benchmark_triple(sigma: SubStochasticMatrix, a: np.ndarray) -> PerronTriple:
    """Perron triple of sigma diag(a), unchecked: a positive tilt keeps the support validation proved irreducible."""
    return _perron_triple(sigma.entries * a)


def _reuse(triple_at, keep: bytes | None = None):
    """`triple_at`, serving a tilt it has already solved from the triple it kept.

    Tilts are keyed by their bytes; the solver is deterministic, so a kept
    triple is the one a new solve would return, bit for bit. Without `keep`
    every tilt is kept; with it only the tilt of those bytes, so the memo
    holds one triple however many tilts are asked for. The memo lives as long
    as the returned function, which no caller keeps past its own return.
    """
    memo = {}

    def at(a: np.ndarray) -> PerronTriple:
        key = a.tobytes()
        triple = memo.get(key)
        if triple is None:
            triple = triple_at(a)
            if keep is None or key == keep:
                memo[key] = triple
        return triple

    return at


def _j_value(triple: PerronTriple, a: np.ndarray) -> float:
    """J(a) = r_a exp(-rho_a log a) from the Perron triple of sigma diag(a)."""
    return triple.r * math.exp(-float(triple.rho @ np.log(a)))


def j_objective(sigma: SubStochasticMatrix, a) -> ObjectiveEval:
    """J(a) = r_a exp(-rho_a log a) for a validated sigma and a positive weight vector a."""
    av = tilt_vector(a, sigma.m)
    triple = _benchmark_triple(sigma, av)
    return ObjectiveEval(a=av, r_a=triple.r, rho_a=triple.rho, j_value=_j_value(triple, av))


@dataclass(frozen=True)
class _Descent:
    """End of one BFGS search; `bounded` is False when a step left MAX_TILT_SPREAD."""

    x: np.ndarray  # lambda without its gauge-fixed last coordinate
    value: float
    evaluations: int
    bounded: bool


class _OffScale(Exception):
    """A search step asked for log-weights that spread wider than MAX_TILT_SPREAD."""


def _bfgs(objective, x0: np.ndarray, gtol: float) -> _Descent:
    """BFGS minimum of `objective` over lambda with lambda(last) = 0, started at lambda[:-1] = x0.

    `objective(lam)` returns the value and the full gradient at the tilt
    exp(lam). A step to log-weights that spread wider than MAX_TILT_SPREAD
    stops the search before its Perron solve; the result is then the best
    point evaluated, with `bounded` False.
    """
    from scipy.optimize import minimize  # deferred: 0.5 s to import, scipy.sparse included

    best_value, best_x, evaluations = math.inf, x0, 0

    def gauged(x):
        nonlocal best_value, best_x, evaluations
        lam = np.append(x, 0.0)
        if not lam.max() - lam.min() <= MAX_TILT_SPREAD:  # also catches NaN
            raise _OffScale
        value, grad = objective(lam)
        evaluations += 1
        if value < best_value:
            best_value, best_x = value, lam[:-1]
        return value, grad[:-1]

    try:
        res = minimize(gauged, x0, jac=True, method="BFGS", options={"gtol": gtol})
    except _OffScale:
        return _Descent(x=best_x, value=best_value, evaluations=evaluations, bounded=False)
    return _Descent(x=res.x, value=float(res.fun), evaluations=evaluations, bounded=True)


def _neg_log_j(sigma: SubStochasticMatrix, lam: np.ndarray, triple_at=None) -> tuple[float, np.ndarray]:
    """-log J and its exact gradient at log-weights lam, for a validated sigma.

    With A = sigma diag(exp(lam)) and its Perron triple (r, h, rho),
    log J = log r - rho lam and d log r / d lam_t = rho_t h_t. The bordered
    system [[A - rI, h], [rho, 0]] (x, mu) = (lam - (rho lam) 1, 0) is
    nonsingular because r is simple, and d(rho lam)/d lam_t =
    rho_t + r rho_t h_t (rho x) - r rho_t x_t for any solution x of its
    first block (the border fixes rho x = 0). The system goes straight to
    LAPACK's dgesv through the gufunc np.linalg.solve wraps, same bits; a
    singular one still raises np.linalg.LinAlgError, so no NaN gradient
    reaches the search. `triple_at(a)` gives the triple of sigma diag(a),
    a fresh solve when omitted.
    """
    m = sigma.m
    a = np.exp(lam)
    triple = _benchmark_triple(sigma, a) if triple_at is None else triple_at(a)
    r, h, rho = triple.r, triple.h, triple.rho
    mean = float(rho @ lam)
    border = np.zeros((m + 1, m + 1))
    border[:m, :m] = sigma.entries * a - r * np.eye(m)
    border[:m, m] = h
    border[m, :m] = rho
    with np.errstate(all="ignore"):  # dgesv marks a singular system with NaN
        x = _umath_linalg.solve1(border, np.append(lam - mean, 0.0), signature="dd->d")[:m]
    rho_x = float(rho @ x)  # rho > 0, so this is finite exactly when x is
    if not math.isfinite(rho_x):
        raise np.linalg.LinAlgError("Singular matrix")
    d_mean = rho + r * rho * h * rho_x - r * rho * x
    return mean - math.log(r), d_mean - rho * h


def optimize_j(sigma: SubStochasticMatrix, rng: RngSpec = RngSpec(0)) -> OptimizeJResult:
    """Maximize J over log a with a(last) = 1 by BFGS on the exact gradient, from three starts.

    `sigma` is a validated SubStochasticMatrix. The starts are log a = 0, the
    gauge-fixed log h, and one standard Gaussian draw from `rng`: J is not
    known to be unimodal, and the draw is a cheap hedge against a second
    local maximum. Each search minimizes -log J on the gradient of
    `_neg_log_j` (one bordered (m+1) x (m+1) solve per evaluation) to a
    gradient of 1e-10. Some searches end on scipy's precision-loss status at
    that tolerance; their end points are kept. Each end point is re-scored
    as `j_objective` scores it, and the result is the best of those values
    and J(1), so it never falls below J(1) or J(h) by more than solver
    tolerance. A search that steps past MAX_TILT_SPREAD keeps its best finite
    point. That, or a best point with a log-weight norm above
    BOUNDARY_DRIFT_NORM, is reported as boundary drift rather than treated
    as an attained supremum.

    `evaluations` counts every evaluation of J: J(1) (the benchmark's own
    triple, which also gives h), J(h), the steps of the three searches and
    the re-scoring of their ends. They are not one Perron solve each: the
    call solves each distinct tilt once (`_reuse`), so the flat start reuses
    J(1)'s triple and a re-scored end point the one its search solved.
    """
    m = sigma.m
    triple_at = _reuse(lambda a: _benchmark_triple(sigma, a))
    flat = triple_at(np.ones(m))
    j_one, h = flat.r, flat.h  # J(1) = r exp(-rho . log 1) = r
    j_h = _j_value(triple_at(h), h)
    if m == 1:
        return OptimizeJResult(
            a_star=np.ones(1), j_star=j_one, j_at_one=j_one, j_at_h=j_h, boundary_drift=False, evaluations=2
        )

    log_h = np.log(h)
    starts = [np.zeros(m - 1), (log_h - log_h[-1])[:-1], rng.generator().normal(size=m - 1)]

    best_x, best, evaluations, drift = starts[0], j_one, 2, False
    for x0 in starts:
        run = _bfgs(lambda lam: _neg_log_j(sigma, lam, triple_at), x0, gtol=1e-10)
        a = np.exp(np.append(run.x, 0.0))
        j = _j_value(triple_at(a), a)
        evaluations += run.evaluations + 1
        drift = drift or not run.bounded
        if j > best:
            best, best_x = j, run.x
    a_star = np.exp(np.append(best_x, 0.0))
    drift = drift or bool(np.abs(np.log(a_star)).max() > BOUNDARY_DRIFT_NORM)
    return OptimizeJResult(
        a_star=a_star, j_star=best, j_at_one=j_one, j_at_h=j_h, boundary_drift=drift, evaluations=evaluations
    )


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
    A search that steps past MAX_TILT_SPREAD follows a maximizing tilt that
    runs to infinity and raises NoConvergenceError. A `witness` tilt bounds
    the value from below.
    """

    def objective(lam):
        triple = triple_at(np.exp(lam))
        grad = (triple.rho * triple.h).reshape(len(nu), -1).sum(axis=1) - nu
        return math.log(triple.r) - float(nu @ lam), grad

    # At a gradient of 1e-8 the value sits within about 1e-16 of the optimum.
    run = _bfgs(objective, np.zeros(len(nu) - 1), gtol=1e-8)
    if not run.bounded:
        raise NoConvergenceError(f"Legendre transform at nu = {nu.tolist()}: the supremum is not attained")
    if witness is not None:
        return max(-run.value, -objective(np.append(witness, 0.0))[0]), run.x
    return -run.value, run.x


def rate_function_I(sigma: SubStochasticMatrix, nu) -> float:
    """Benchmark rate function of a validated sigma at a simplex point, by the Legendre route.

    At simplex vertices the supremum has the closed form -log sigma[s, s],
    returned exactly (infinite when the diagonal entry vanishes). Elsewhere
    the concave transform is maximized by BFGS on its exact gradient, started
    at the flat tilt, so the result never falls below -log r.
    """
    nu = np.asarray(nu, dtype=float)
    at_vertex = _vertex_rate(sigma, nu)
    return at_vertex if at_vertex is not None else _legendre(lambda a: _benchmark_triple(sigma, a), nu)[0]


def rate_function_lifted(sigma: SubStochasticMatrix, law: RelocationLaw, grid_points: int = 101) -> RateFunctionTable:
    """Tabulate the benchmark and lifted rate functions on a simplex grid.

    Requires a validated sigma and a bounded law. The grid is every nu with
    coordinates in multiples of 1/(grid_points - 1), lexicographic in
    nu_1..nu_{m-1}: for two states nu = (x, 1 - x) with x rising. Both
    columns are exact at the vertices; elsewhere `_legendre` maximizes the
    lifted transform, then the benchmark one, also evaluated at the lifted
    maximizer lambda_bold. The lifted radius dominates the benchmark one at
    every tilt, so I_bold = lifted(lambda_bold) <= benchmark(lambda_bold) <= I
    by construction. Every search starts at the flat tilt, so the table
    solves the flat window triple and the flat benchmark triple once each
    and keeps no other: a 101-point m = 3 table makes about 10^5 solves.
    """
    if not law.bounded:
        raise ValueError("rate_function_lifted needs a bounded relocation law")
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    m, k = sigma.m, grid_points - 1
    # Stars and bars: lexicographic bar positions give k * nu lexicographic.
    bars = np.array(list(itertools.combinations(range(k + m - 1), m - 1)), dtype=float)
    nu_grid = (np.diff(bars, axis=1, prepend=-1.0, append=k + m - 1.0) - 1.0) / k

    flat = np.ones(m).tobytes()
    window_at = _reuse(lambda a: _window_triple(sigma, law, a), keep=flat)
    benchmark_at = _reuse(lambda a: _benchmark_triple(sigma, a), keep=flat)
    i_vals, i_bold = np.empty((2, len(nu_grid)))
    for idx, nu in enumerate(nu_grid):
        at_vertex = _vertex_rate(sigma, nu)
        if at_vertex is not None:
            i_vals[idx] = i_bold[idx] = at_vertex
            continue
        i_bold[idx], lam_bold = _legendre(window_at, nu)
        i_vals[idx] = _legendre(benchmark_at, nu, witness=lam_bold)[0]
    return RateFunctionTable(nu_grid=nu_grid, i_values=i_vals, i_lifted=i_bold, violations=i_bold > i_vals + 1e-8)
