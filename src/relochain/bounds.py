"""Variational objectives, optimizers, and rate functions.

The dispersed-relocation objective J(a) = r_a exp(-rho_a log a) is
maximized over log-weights lambda = log a with one coordinate gauge-fixed
(the objective is invariant under scaling of a, so an unconstrained search
would wander along rays), from three starts: the flat weight, the benchmark
Perron vector h, and one seeded Gaussian draw. The rate functions I and
I_bold are Legendre transforms of the log spectral radii of the tilted
benchmark and window chain. One in-house BFGS search (`_descent`, numpy
only: no part of the package imports scipy.optimize) serves all three, for
any number of states, on exact gradients. It is a generator that yields
each tilt it wants evaluated and is sent the value and gradient, so one
driver (`_lockstep`) can advance many searches a round at a time and
evaluate each round's tilts together. `_optimize_j_batch` runs the three
starts of every matrix of a batch so (`optimize_j` is its batch of one,
the conjecture scan's batch holds all its cases), keeping a memo per
matrix so that a call solves each distinct tilt once; a rate table runs
the searches of all its grid points so, and `rate_function_I` is the
table's benchmark round on one point. Each round solves the tilts it has
not solved yet in one place (`_solved`): operators of at most
DENSE_MAX_STATES states as one stack (`_perron_triples`), larger ones,
`optimize_j`'s benchmark matrices included, one at a time. It evaluates
all its gradients as one array step. For
the transforms the gradient is the newest-state marginal of rho h. For
log J = log r - rho lambda it is rho h minus the derivative of rho lambda,
which takes one bordered solve with the tilted matrix A (a round's solves
are one stacked dgesv call):
[[A - rI, h], [rho, 0]] (x, mu) = (lambda - (rho lambda) 1, 0) gives
d(rho lambda)/d lambda_t = rho_t + r rho_t h_t (rho x) - r rho_t x_t
(derivatives of Perron vectors: Golub and Meyer, SIAM J. Algebraic
Discrete Methods 7, 1986; Meyer and Stewart, SIAM J. Numer. Anal. 25,
1988). The benchmark transform is also evaluated at the lifted maximizer,
so I_bold <= I holds by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoConvergenceError
from .lifted import _affordable_depth, _dense_lifts, build_lifted
from .matrices import DENSE_MAX_STATES, PerronTriple, SubStochasticMatrix, _perron_triple, _perron_triples, tilt_vector
from .relocation import RelocationLaw
from .simulate import RngSpec

BOUNDARY_DRIFT_NORM = 20.0
# A search never asks for a Perron solve at log-weights that spread wider
# than this, so the tilted entries span at most e^100 (about 1e43), far
# inside double range. Without the bound, a line search toward an unattained
# supremum asks for tilts so large that the power iteration overflows.
MAX_TILT_SPREAD = 100.0
# Operator bytes of one stacked Perron solve. A rate-table round with more
# distinct tilts solves them in parts: a 101-point m = 3 table runs about
# 5,000 searches at once, whose 27-window operators would take over 100 MB.
ROUND_BYTES = 2**20
# Gradient at which a Legendre transform's search stops: the value then sits
# within about 1e-16 of the optimum.
TRANSFORM_GTOL = 1e-8


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
    """Perron triple of the window chain of sigma diag(a), of more than DENSE_MAX_STATES windows, on its sparse operator."""
    chain = build_lifted(sigma.entries * a, law)
    return _perron_triple(chain.operator, chain.m)


def _benchmark_triple(sigma: SubStochasticMatrix, a: np.ndarray) -> PerronTriple:
    """Perron triple of sigma diag(a), unchecked: a positive tilt keeps the support validation proved irreducible."""
    return _perron_triple(sigma.entries * a)


def _tilt_keys(tilts: np.ndarray) -> list[bytes]:
    """The keys under which the solved triples of the rows of a (K, m) array of tilts are kept: their bytes.

    The solver is deterministic, so a kept triple is the one a new solve of
    the same tilt would return, bit for bit.
    """
    return [a.tobytes() for a in tilts]


def _attempt(solve, *args):
    """solve(*args), or the exception it raised."""
    try:
        return solve(*args)
    except Exception as exc:  # handed back as this member's result
        return exc


def _solved(keys: list, stack_of, n: int | None, terms: int | None, alone, memo: dict) -> list:
    """The Perron triple of each of a round's operators, keyed by `keys`, each or the exception its solve raised.

    Each key not in `memo` is solved once, from one of the operators it keys,
    and kept there. Up to DENSE_MAX_STATES states `stack_of(rows)` builds the
    operators at an index list, and `_perron_triples` solves them in parts of
    at most ROUND_BYTES of operators; a part whose solve raises is solved
    again one operator at a time, so only the members that raise fail.
    Larger operators, and those past the state cap (n None), are solved one
    at a time by `alone(k)`, the solve of operator k.
    """
    fresh = {key: k for k, key in enumerate(keys) if key not in memo}
    rows = list(fresh.values())
    if n is not None and n <= DENSE_MAX_STATES:
        size = max(1, ROUND_BYTES // (8 * n * n))
        triples = []
        for at in range(0, len(rows), size):
            stack = stack_of(rows[at : at + size])
            try:
                triples += _perron_triples(stack, terms)
            except Exception:  # the members that raise alone fail alone
                triples += [_attempt(_perron_triple, op, terms) for op in stack]
    else:
        triples = [_attempt(alone, k) for k in rows]
    memo.update(zip(fresh, triples))
    return [memo[key] for key in keys]


def _replies(found: list, point) -> list:
    """`found` with each PerronTriple replaced by its reply; an exception stays in its place.

    `point(rows, triples)` returns, in order, the replies of the members at
    `rows` (an index list, or slice(None) when every member is a triple),
    whose triples are `triples`.
    """
    rows = [k for k, triple in enumerate(found) if isinstance(triple, PerronTriple)]
    if rows and len(rows) == len(found):  # the usual round: a slice takes no copy
        return point(slice(None), found)
    replies = list(found)
    if rows:
        for k, reply in zip(rows, point(rows, [found[k] for k in rows])):
            replies[k] = reply
    return replies


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


def _descent(x0: np.ndarray, gtol: float):
    """BFGS search for the minimum of an objective over lambda with lambda(last) = 0, started at lambda[:-1] = x0.

    A generator: it yields each gauged tilt lambda (the full vector) whose
    value and full gradient it needs, is sent them as a pair, and returns its
    `_Descent`. Each iteration moves along -H g, H the inverse-Hessian
    estimate of the BFGS update (Nocedal and Wright, Numerical Optimization,
    2006, ch. 6), by the first of the steps 1, 1/2, 1/4, ... that brings a
    strict decrease of at least 1e-4 of the linear prediction (Armijo). The
    search ends when max |g| <= gtol, after 200 iterations per coordinate
    (scipy's default), or when the decrease a halved step predicts is lost
    in the rounding of the value (the precision-loss end). A trial step to
    log-weights that spread wider than MAX_TILT_SPREAD ends the search
    before it is asked for, with `bounded` False. Every end returns the last
    accepted point, the lowest value the search has reached.
    """
    evaluations = 0

    def gauged(x):
        nonlocal evaluations
        lam = np.zeros(len(x) + 1)  # x with the gauge coordinate appended, cheaper than np.append
        lam[:-1] = x
        if not lam.max() - lam.min() <= MAX_TILT_SPREAD:  # also catches NaN
            return None
        value, grad = yield lam
        evaluations += 1
        return value, grad[:-1]

    x = x0
    start = yield from gauged(x0)
    if start is None:
        return _Descent(x=x0, value=math.inf, evaluations=0, bounded=False)
    f, g = start
    inv_hess = np.eye(len(x0))
    for _ in range(200 * len(x0)):
        if np.abs(g).max() <= gtol:
            break
        p = -inv_hess @ g
        slope, step = float(g @ p), 1.0
        while True:
            trial = yield from gauged(x + step * p)
            if trial is None:
                return _Descent(x=x, value=f, evaluations=evaluations, bounded=False)
            if trial[0] < f and trial[0] <= f + 1e-4 * step * slope:
                break
            step /= 2
            if f + step * slope >= f:
                return _Descent(x=x, value=f, evaluations=evaluations, bounded=True)
        s, y = step * p, trial[1] - g
        x, (f, g) = x + s, trial
        sy = float(s @ y)
        if sy > 0.0:  # otherwise the update would lose positive definiteness
            hy = inv_hess @ y
            # Outer products by broadcasting: np.outer's own product, without its call overhead.
            inv_hess += (sy + y @ hy) / sy**2 * (s[:, None] * s) - (hy[:, None] * s + s[:, None] * hy) / sy
    return _Descent(x=x, value=f, evaluations=evaluations, bounded=True)


def _lockstep(searches: list, evaluate) -> list:
    """Run `_descent` searches round by round; the result of each, in order.

    Each round advances every live search to the tilt it asks for next and
    passes the round's (search index, lambda) pairs to one `evaluate` call,
    which returns, in order, each pair's (value, gradient) or the exception
    its evaluation raised. A search that is handed an exception, or raises
    one itself, ends with that exception as its result; the others go on.
    """
    results = [None] * len(searches)
    replies = dict.fromkeys(range(len(searches)))
    while replies:
        asks = []
        for i, reply in replies.items():
            try:
                asks.append((i, searches[i].send(reply)))
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:  # ends this search only
                results[i] = exc
        replies = {}
        if asks:
            for (i, _), reply in zip(asks, evaluate(asks)):
                if isinstance(reply, Exception):
                    results[i] = reply
                else:
                    replies[i] = reply
    return results


def _neg_log_js(tilted: np.ndarray, lams: np.ndarray, triples: list[PerronTriple]) -> list:
    """-log J and its exact gradient at each row of the log-weights lams, or LinAlgError where that is singular.

    With A = tilted[k] = sigma diag(exp(lams[k])) and its Perron triple
    triples[k] = (r, h, rho), log J = log r - rho lam and d log r / d lam_t =
    rho_t h_t. The bordered system [[A - rI, h], [rho, 0]] (x, mu) =
    (lam - (rho lam) 1, 0) is nonsingular because r is simple, and
    d(rho lam)/d lam_t = rho_t + r rho_t h_t (rho x) - r rho_t x_t for any
    solution x of its first block (the border fixes rho x = 0). The K
    systems go straight to LAPACK's dgesv, one call of the gufunc that
    np.linalg.solve wraps, and the dot products are one stacked matmul each:
    every member gets the bits a stack of one gives it. dgesv marks a
    singular system with NaN; that member gets np.linalg.LinAlgError, as
    np.linalg.solve raises it, so no NaN gradient reaches a search.
    """
    count, m = lams.shape
    r = np.array([triple.r for triple in triples])
    h = np.array([triple.h for triple in triples])
    rho = np.array([triple.rho for triple in triples])
    mean = (rho[:, None, :] @ lams[:, :, None])[:, 0, 0]
    border = np.zeros((count, m + 1, m + 1))
    border[:, :m, :m] = tilted
    border.reshape(count, -1)[:, : m * (m + 2) : m + 2] -= r[:, None]  # the diagonal of A - rI
    border[:, :m, m] = h
    border[:, m, :m] = rho
    rhs = np.zeros((count, m + 1))
    np.subtract(lams, mean[:, None], out=rhs[:, :m])
    with np.errstate(all="ignore"):  # a singular member's NaN, read below
        x = _umath_linalg.solve1(border, rhs, signature="dd->d")[:, :m]
        rho_x = (rho[:, None, :] @ x[:, :, None])[:, 0, 0]  # rho > 0, so this is finite exactly when x is
        r_rho = r[:, None] * rho
        grads = rho + r_rho * h * rho_x[:, None] - r_rho * x - rho * h
    return [
        (mu - math.log(r_k), grad) if math.isfinite(rx) else np.linalg.LinAlgError("Singular matrix")
        for mu, r_k, rx, grad in zip(mean.tolist(), r.tolist(), rho_x.tolist(), grads)
    ]


def _optimize_j_batch(sigmas: list[SubStochasticMatrix], rngs: list[RngSpec]) -> list:
    """`optimize_j(sigmas[c], rngs[c])` for every case c, all sigmas of one order m: each result, or the exception that call raises.

    The batch solves what the calls one after another would solve, a round
    at a time: the flat tilts of all cases as one stack, then their Perron
    vectors h, then the three searches of every case in one `_lockstep`,
    then the re-scoring of every search's end. A round finds, per case, the
    tilts that case has not solved yet (a memo keyed by the case and
    `_tilt_keys`, that lives for the call) and solves them with `_solved`:
    as one stack up to DENSE_MAX_STATES states, one at a time above, as
    `j_objective` solves them. Its -log J gradients are one stacked
    bordered solve (`_neg_log_js`). Every member gets the bits a solve alone gives it, so
    each result is bit for bit that of its own call. A case's exception is
    the first its call would meet: the flat solve, J(h), then each start's
    search and the re-scoring of its end in turn.
    """
    if not sigmas:
        return []
    m, count = sigmas[0].m, len(sigmas)
    entries = np.array([sigma.entries for sigma in sigmas])
    memo = {}

    def solve(cases: list[int], tilts: np.ndarray):
        """(sigma_c diag(a) of each case c and tilt a, the triple or exception of each)."""
        tilted = (entries if count == 1 else entries[cases]) * tilts[:, None, :]  # one case broadcasts
        keys = list(zip(cases, _tilt_keys(tilts)))
        return tilted, _solved(keys, lambda rows: tilted[rows], m, None, lambda k: _perron_triple(tilted[k]), memo)

    _, flat = solve(list(range(count)), np.ones((count, m)))
    results = list(flat)  # a failed flat solve is its case's result
    live = [c for c in range(count) if isinstance(flat[c], PerronTriple)]
    hs = np.array([flat[c].h for c in live]).reshape(len(live), m)
    _, at_h = solve(live, hs)
    j_h = dict(zip(live, _replies(at_h, lambda rows, triples: [_attempt(_j_value, t, h) for t, h in zip(triples, hs[rows])])))
    for c in live:
        if isinstance(j_h[c], Exception):
            results[c] = j_h[c]
    live = [c for c in live if not isinstance(j_h[c], Exception)]
    if m == 1:
        for c in live:
            j_one = flat[c].r  # J(1) = r exp(-rho . log 1) = r
            results[c] = OptimizeJResult(
                a_star=np.ones(1), j_star=j_one, j_at_one=j_one, j_at_h=j_h[c], boundary_drift=False, evaluations=2
            )
        return results

    starts = []
    for c in live:
        log_h = np.log(flat[c].h)
        starts += [np.zeros(m - 1), (log_h - log_h[-1])[:-1], rngs[c].generator().normal(size=m - 1)]
    owner = [c for c in live for _ in range(3)]

    def evaluate(asks):
        lams = np.array([lam for _, lam in asks])
        tilted, found = solve([owner[i] for i, _ in asks], np.exp(lams))
        return _replies(found, lambda rows, triples: _neg_log_js(tilted[rows], lams[rows], triples))

    runs = _lockstep([_descent(x0, 1e-10) for x0 in starts], evaluate)
    ends = [i for i, run in enumerate(runs) if not isinstance(run, Exception)]
    tilts = np.exp(np.array([np.append(runs[i].x, 0.0) for i in ends]).reshape(len(ends), m))
    _, rescored = solve([owner[i] for i in ends], tilts)
    scores = dict(zip(ends, _replies(rescored, lambda rows, triples: [_attempt(_j_value, t, a) for t, a in zip(triples, tilts[rows])])))
    for at, c in enumerate(live):
        j_one = flat[c].r
        best_x, best, evaluations, drift = starts[3 * at], j_one, 2, False
        for i in range(3 * at, 3 * at + 3):
            run, j = runs[i], scores.get(i)
            if isinstance(run, Exception) or isinstance(j, Exception):
                results[c] = run if isinstance(run, Exception) else j
                break
            evaluations += run.evaluations + 1
            drift = drift or not run.bounded
            if j > best:
                best, best_x = j, run.x
        else:
            a_star = np.exp(np.append(best_x, 0.0))
            drift = drift or bool(np.abs(np.log(a_star)).max() > BOUNDARY_DRIFT_NORM)
            results[c] = OptimizeJResult(
                a_star=a_star, j_star=best, j_at_one=j_one, j_at_h=j_h[c], boundary_drift=drift, evaluations=evaluations
            )
    return results


def optimize_j(sigma: SubStochasticMatrix, rng: RngSpec = RngSpec(0)) -> OptimizeJResult:
    """Maximize J over log a with a(last) = 1 by BFGS on the exact gradient, from three starts.

    `sigma` is a validated SubStochasticMatrix. The starts are log a = 0, the
    gauge-fixed log h, and one standard Gaussian draw from `rng`: J is not
    known to be unimodal, and the draw is a cheap hedge against a second
    local maximum. Each search minimizes -log J on the gradient of
    `_neg_log_js` (one bordered (m+1) x (m+1) solve per evaluation) to a
    gradient of 1e-10. Some searches end first on `_descent`'s precision-loss
    stop, where a step's predicted decrease is lost in the rounding of -log J;
    their end points are kept. Each end point is re-scored
    as `j_objective` scores it, and the result is the best of those values
    and J(1), so it never falls below J(1) or J(h) by more than solver
    tolerance. A search that steps past MAX_TILT_SPREAD keeps its best finite
    point. That, or a best point with a log-weight norm above
    BOUNDARY_DRIFT_NORM, is reported as boundary drift rather than treated
    as an attained supremum.

    This is the batch of one of `_optimize_j_batch`: the three searches run
    in lockstep, and each round's tilts are solved together. `evaluations`
    counts every evaluation of J: J(1) (the benchmark's own triple, which
    also gives h), J(h), the steps of the three searches and the re-scoring
    of their ends. They are not one Perron solve each: the call solves each
    distinct tilt once, so the flat start reuses J(1)'s triple and a
    re-scored end point the one its search solved.
    """
    (result,) = _optimize_j_batch([sigma], [rng])
    if isinstance(result, Exception):
        raise result
    return result


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


def _transform_points(triples: list[PerronTriple], nus: np.ndarray, lams: np.ndarray) -> list:
    """log r - nu lambda and its gradient at each row of the log-weights lams, from the Perron triple of the tilt exp(lam).

    By first-order perturbation, d log r / d lambda_t sums rho h over the
    windows a move toward t enters, those with newest state t (windows
    indexed newest state first; for the benchmark, state t itself). The
    sums and the products nu lambda are one array step for all rows, each
    row summed as it is alone; the logarithm of each certified (positive)
    radius is math.log's.
    """
    rho_h = np.array([triple.rho for triple in triples]) * np.array([triple.h for triple in triples])
    grads = rho_h.reshape(nus.shape + (-1,)).sum(axis=2) - nus
    nu_lams = (nus[:, None, :] @ lams[:, :, None])[:, 0, 0].tolist()
    return [(math.log(triple.r) - nu_lam, grad) for triple, nu_lam, grad in zip(triples, nu_lams, grads)]


def _supremum(run, nu: np.ndarray) -> float:
    """The transform's value at the end of its search, raising the search's exception or NoConvergenceError."""
    if isinstance(run, Exception):
        raise run
    if not run.bounded:
        raise NoConvergenceError(f"Legendre transform at nu = {nu.tolist()}: the supremum is not attained")
    return -run.value


def _transform_round(nus: np.ndarray, n: int | None, stack_of, alone, terms: int | None):
    """`evaluate` of `_lockstep` for transform searches, search i at nus[i], on operators of n states.

    A round takes the tilts of all its asks with one np.exp and solves each
    distinct tilt once (every search of a table starts at the flat tilt) by
    `_solved`: as the stacks `stack_of(tilts)` builds, or one tilt at a time
    by `alone(a)`. The pairs whose tilt was solved get their
    `_transform_points` as one stack; the others get the exception their
    solve raised.
    """

    def evaluate(asks):
        lams = np.array([lam for _, lam in asks])
        tilts = np.exp(lams)
        found = _solved(_tilt_keys(tilts), lambda rows: stack_of(tilts[rows]), n, terms, lambda k: alone(tilts[k]), {})
        at = np.array([i for i, _ in asks])
        return _replies(found, lambda rows, triples: _transform_points(triples, nus[at[rows]], lams[rows]))

    return evaluate


def _benchmark_round(sigma: SubStochasticMatrix, nus: np.ndarray):
    """`_transform_round` of the benchmark transforms of sigma, search i at nus[i]."""
    return _transform_round(
        nus, sigma.m, lambda tilts: sigma.entries * tilts[:, None, :], lambda a: _benchmark_triple(sigma, a), None
    )


def rate_function_I(sigma: SubStochasticMatrix, nu) -> float:
    """Benchmark rate function of a validated sigma at a simplex point, by the Legendre route.

    At simplex vertices the supremum has the closed form -log sigma[s, s],
    returned exactly (infinite when the diagonal entry vanishes). Elsewhere
    the concave transform lambda nu - log r(exp lambda), gauge lambda(last)
    = 0, is maximized by one `_descent` on its exact gradient, the rate
    table's benchmark round on one point: started at the flat tilt, so the
    result never falls below -log r, to a gradient of TRANSFORM_GTOL or to
    its precision-loss stop. A search that steps past MAX_TILT_SPREAD
    follows a maximizing tilt that runs to infinity and raises
    NoConvergenceError. Where the supremum is not attained but the
    objective flattens below rounding before the spread is reached (some
    simplex edges), the search stops there and returns its best value. nu
    must be a probability vector on the m states: off the simplex the
    transform is infinite, and the gauge would hide that behind a finite value.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (sigma.m,) or not (nu.min() >= 0.0 and abs(nu.sum() - 1.0) <= 1e-12):
        raise ValueError(f"nu must be a probability vector on {sigma.m} states, got {nu.tolist()}")
    at_vertex = _vertex_rate(sigma, nu)
    if at_vertex is not None:
        return at_vertex
    (run,) = _lockstep([_descent(np.zeros(sigma.m - 1), TRANSFORM_GTOL)], _benchmark_round(sigma, nu[None]))
    return _supremum(run, nu)


def rate_function_lifted(sigma: SubStochasticMatrix, law: RelocationLaw, grid_points: int = 101) -> RateFunctionTable:
    """Tabulate the benchmark and lifted rate functions on a simplex grid.

    Requires a validated sigma and a bounded law. The grid is every nu with
    coordinates in multiples of 1/(grid_points - 1), lexicographic in
    nu_1..nu_{m-1}: for two states nu = (x, 1 - x) with x rising. Both
    columns are exact at the vertices. Elsewhere the lifted transforms of
    all points are maximized in lockstep (`_lockstep`), each as
    `rate_function_I` maximizes one, then the benchmark ones, each also
    evaluated at its lifted maximizer lambda_bold. The lifted radius
    dominates the benchmark one at every tilt, so I_bold = lifted(lambda_bold) <=
    benchmark(lambda_bold) <= I by construction. A round solves each of its
    distinct tilts once (all searches start at the flat tilt), as stacks of
    at most ROUND_BYTES of operators; a 101-point m = 3 table makes about
    10^5 solves. The table is bit for bit that of a loop over the points in
    grid order, each running its lifted search, then its benchmark search,
    and raises the error such a loop raises first.
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
    inner = []
    for idx, nu in enumerate(nu_grid):
        at_vertex = _vertex_rate(sigma, nu)
        if at_vertex is None:
            inner.append(idx)
        else:
            i_vals[idx] = i_bold[idx] = at_vertex
    nus, entries, start, d = nu_grid[inner], sigma.entries, np.zeros(m - 1), law.support_max
    # Compared through the depth, as build_lifted compares, so a far point
    # mass never forms m**(d+1): a chain past the state cap is left to the
    # solve alone, whose build raises StateCapExceededError.
    windows = m ** (d + 1) if _affordable_depth(m, d) == d else None
    window_round = _transform_round(
        nus, windows, lambda tilts: _dense_lifts(entries * tilts[:, None, :], law),
        lambda a: _window_triple(sigma, law, a), m,
    )
    benchmark_round = _benchmark_round(sigma, nus)

    def attained(run):
        return not isinstance(run, Exception) and run.bounded

    lifted = _lockstep([_descent(start, TRANSFORM_GTOL) for _ in nus], window_round)
    # A grid-order loop stops at the first point whose lifted search fails, so
    # only the points before it run their benchmark searches and witnesses.
    stop = next((j for j, run in enumerate(lifted) if not attained(run)), len(nus))
    bench = _lockstep([_descent(start, TRANSFORM_GTOL) for _ in range(stop)], benchmark_round)
    asks = [(j, np.append(lifted[j].x, 0.0)) for j, run in enumerate(bench) if attained(run)]
    witness = dict(zip((j for j, _ in asks), benchmark_round(asks)))
    for j, idx in enumerate(inner):
        i_bold[idx] = _supremum(lifted[j], nus[j])
        i_vals[idx] = _supremum(bench[j], nus[j])
        reply = witness[j]
        if isinstance(reply, Exception):
            raise reply
        i_vals[idx] = max(i_vals[idx], -reply[0])
    return RateFunctionTable(nu_grid=nu_grid, i_values=i_vals, i_lifted=i_bold, violations=i_bold > i_vals + 1e-8)
