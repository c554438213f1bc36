import dataclasses
import itertools
import math
import os
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

import relochain as rc
from relochain import bounds, experiments, matrices
from relochain.config import load_config
from relochain.matrices import DENSE_MAX_STATES

from conftest import R_CLOSED, largest_eigenvalue, window_matrix


# A strictly positive three-state matrix with unequal row sums.
SIGMA3 = [[0.5, 0.2, 0.1], [0.1, 0.6, 0.2], [0.3, 0.1, 0.4]]


def weighted_chain_c2_oracle(sigma, h):
    """Exact bound value for the two-point law with weight h, via the dense
    4-state weighted window chain and its stationary distribution."""
    entries = sigma.entries
    sh = entries @ h
    g = np.zeros((4, 4))
    integrand = np.zeros(4)
    for idx in range(4):
        w = (idx // 2, idx % 2)
        kh = 0.5 * sh[w[0]] + 0.5 * sh[w[1]]
        integrand[idx] = math.log(kh / h[w[0]])
        for t in range(2):
            k = 0.5 * entries[w[0], t] + 0.5 * entries[w[1], t]
            g[idx, t * 2 + w[0]] += k * h[t] / kh
    evals, evecs = np.linalg.eig(g.T)
    i0 = int(np.argmin(np.abs(evals - 1.0)))
    st = np.real(evecs[:, i0])
    st /= st.sum()
    return float(st @ integrand)


def j_oracle_two_states(sigma):
    """Independent global maximizer of the objective using closed-form 2x2 Perron data.

    J(e^t, 1) is tabulated on a grid of t in [-20, 20]; a bounded Brent
    search then refines between the neighbours of the best grid point.
    """
    entries = sigma.entries

    def j_of(t):
        a = np.array([math.exp(t), 1.0])
        sa = entries * a[None, :]
        tr = sa[0, 0] + sa[1, 1]
        det = sa[0, 0] * sa[1, 1] - sa[0, 1] * sa[1, 0]
        lam = (tr + math.sqrt(tr * tr - 4 * det)) / 2.0
        rho = np.array([sa[1, 0], lam - sa[0, 0]])  # left eigenvector; sa[1, 0] > 0
        rho /= rho.sum()
        return lam * math.exp(-float(rho @ np.log(a)))

    grid = np.linspace(-20.0, 20.0, 4001)
    k = int(np.argmax([j_of(t) for t in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(lambda t: -j_of(t), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return max(-res.fun, j_of(grid[k]))


def j_oracle_multistart(sigma, rng, starts=20):
    """Best of `starts` tightly converged Nelder-Mead runs over J(exp(x), 1) from random x."""

    def neg_j(x):
        return -rc.j_objective(sigma, np.exp(np.append(x, 0.0))).j_value

    best = -math.inf
    for _ in range(starts):
        res = minimize(
            neg_j, rng.normal(scale=1.5, size=sigma.m - 1), method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 1000 * sigma.m},
        )
        best = max(best, -res.fun)
    return best


def random_substochastic(rng, m, zeros):
    """A validated random matrix; with `zeros`, about 30% of its entries vanish."""
    while True:
        raw = rng.uniform(0.05, 1.0, size=(m, m))
        if zeros:
            raw[rng.random((m, m)) < 0.3] = 0.0
        sums = raw.sum(axis=1, keepdims=True)
        if (sums == 0).any():
            continue
        try:
            return rc.validate_substochastic(raw / sums * rng.uniform(0.3, 0.98, size=(m, 1)))
        except ValueError:
            continue


# The one-search BFGS, the one-search Legendre transform and the window
# solve, as the package ran them before its rate functions ran in lockstep:
# the oracles of the grid-order table and of rate_function_I. The window
# solve is the package's solve of one chain: of its dense operator up to
# DENSE_MAX_STATES windows, of its sparse one above.
# `_bfgs` is `_lockstep` with one search; `_legendre` is one transform search
# on `bounds._transform_points`, read through the module so that tests can
# patch it.


def _bfgs(objective, x0: np.ndarray, gtol: float) -> bounds._Descent:
    """`_descent` on `objective(lam)`, which returns the value and the full gradient at the tilt exp(lam)."""
    (run,) = bounds._lockstep([bounds._descent(x0, gtol)], lambda asks: [objective(lam) for _, lam in asks])
    if isinstance(run, Exception):
        raise run
    return run


def _legendre(triple_at, nu: np.ndarray, witness=None) -> tuple[float, np.ndarray]:
    """(value, maximizer) of sup over lambda of nu lambda - log r(exp lambda), gauge lambda(last) = 0.

    `triple_at(a)` is the Perron triple of the tilt by a of the benchmark or of
    a window chain, and `_transform_points` gives the objective and its exact
    gradient. `_bfgs` maximizes the concave objective from the flat tilt,
    where it is -log r, to a gradient of TRANSFORM_GTOL or to its precision-loss stop.
    A search that steps past MAX_TILT_SPREAD follows a maximizing tilt that
    runs to infinity and raises NoConvergenceError. Where the supremum is not
    attained but the objective flattens below rounding before the spread is
    reached (some simplex edges), the search stops there and returns its
    best value. A `witness` tilt bounds the value from below.
    """

    def objective(lam):
        (reply,) = bounds._transform_points([triple_at(np.exp(lam))], nu[None], lam[None])
        if isinstance(reply, Exception):
            raise reply
        return reply

    run = _bfgs(objective, np.zeros(len(nu) - 1), gtol=bounds.TRANSFORM_GTOL)
    value = bounds._supremum(run, nu)
    if witness is not None:
        return max(value, -objective(np.append(witness, 0.0))[0]), run.x
    return value, run.x


def _window_triple(sigma, law, a: np.ndarray) -> matrices.PerronTriple:
    """Perron triple of the window chain of sigma diag(a): of its dense operator up to DENSE_MAX_STATES windows, of its sparse one above."""
    chain = rc.build_lifted(sigma.entries * a, law)
    if chain.n_states <= DENSE_MAX_STATES:
        return matrices._perron_triple(chain.dense(), chain.m)
    (triple,) = matrices._perron_triples([chain.operator], chain.m)
    if isinstance(triple, Exception):
        raise triple
    return triple


def benchmark_triple(sigma, a: np.ndarray) -> matrices.PerronTriple:
    """Perron triple of sigma diag(a), as j_objective solves it."""
    return matrices._perron_triple(sigma.entries * a)


def test_j_objective_examples(sigma_fig):
    r = rc.perron_triple(sigma_fig).r
    assert rc.j_objective(sigma_fig, np.ones(2)).j_value == pytest.approx(r, rel=1e-13)
    a = np.array([1.7, 0.6])
    base = rc.j_objective(sigma_fig, a).j_value
    for c in (0.1, 7.0):
        assert rc.j_objective(sigma_fig, c * a).j_value == pytest.approx(base, rel=1e-12)


def test_j_at_h_dominates_benchmark(sigma_fig):
    t = rc.perron_triple(sigma_fig)
    ev = rc.j_objective(sigma_fig, t.h)
    # identity through the tilted row sums, then the Jensen direction
    assert ev.r_a == pytest.approx(t.r * float(ev.rho_a @ t.h), rel=1e-11)
    assert ev.j_value >= t.r


def test_optimize_j(sigma_fig):
    res = rc.optimize_j(sigma_fig)
    assert res.j_star >= R_CLOSED - 1e-9
    assert res.j_star >= res.j_at_h - 1e-9
    assert not res.boundary_drift
    assert res.j_star == pytest.approx(j_oracle_two_states(sigma_fig), abs=1e-9)


def test_optimize_j_matches_two_state_global_optimum():
    # Random 2x2 matrices, half of them with a vanishing diagonal entry, and
    # the zero-diagonal example that the rate-function tests use.
    rng = np.random.default_rng(2026)
    cases = [random_substochastic(rng, 2, zeros=k % 2 == 1) for k in range(30)]
    cases.append(rc.validate_substochastic([[0.0, 0.9], [0.4, 0.3]]))
    for sigma in cases:
        res = rc.optimize_j(sigma)
        assert not res.boundary_drift
        assert res.j_star == pytest.approx(j_oracle_two_states(sigma), rel=1e-12)


@pytest.mark.parametrize("m", [3, 4])
def test_optimize_j_matches_multistart_optimum(m):
    rng = np.random.default_rng(70 + m)
    cases = [random_substochastic(rng, m, zeros=k == 1) for k in range(3)]
    if m == 3:
        cases.append(rc.validate_substochastic([[0.3, 0.6, 0.0], [0.0, 0.0, 0.9], [0.8, 0.0, 0.0]]))
    for k, sigma in enumerate(cases):
        res = rc.optimize_j(sigma, rc.RngSpec(k))
        assert res.j_star == pytest.approx(j_oracle_multistart(sigma, rng), rel=1e-12)


def test_optimize_j_gauge_invariance(sigma_fig):
    # Relabeling the states permutes which coordinate is pinned; the optimum
    # must not move.
    swapped = rc.validate_substochastic(sigma_fig.entries[::-1, ::-1])
    res = rc.optimize_j(sigma_fig)
    res_swapped = rc.optimize_j(swapped)
    assert res.j_star == pytest.approx(res_swapped.j_star, abs=1e-9)


def neg_log_j(sigma, lam):
    """-log J and its gradient at lam by the stacked bordered solve on a stack of one, raising its LinAlgError."""
    a = np.exp(lam)
    (reply,) = bounds._neg_log_js((sigma.entries * a)[None], lam[None], [benchmark_triple(sigma, a)])
    if isinstance(reply, Exception):
        raise reply
    return reply


def dense_log_j(entries, lam):
    """log J(exp(lam)) = log r - rho . lam from a dense eigensolve of the tilted transpose."""
    vals, vecs = np.linalg.eig((entries * np.exp(lam)[None, :]).T)
    k = int(np.argmax(vals.real))
    rho = np.real(vecs[:, k])
    rho /= rho.sum()
    return math.log(vals[k].real) - float(rho @ lam)


@pytest.mark.parametrize("m, zeros", [(2, False), (3, False), (4, False), (3, True), (4, True)])
def test_log_j_gradient_matches_dense_differences(m, zeros):
    # The bordered-solve gradient against central differences of log J from
    # np.linalg.eig. At step 1e-5 the truncation error is about 1e-11 and the
    # rounding of the differences about 1e-11.
    rng = np.random.default_rng(90 + 10 * m + zeros)
    cases = [random_substochastic(rng, m, zeros) for _ in range(3)]
    if m == 3 and zeros:
        cases.append(rc.validate_substochastic([[0.3, 0.6, 0.0], [0.0, 0.0, 0.9], [0.8, 0.0, 0.0]]))
    step = 1e-5
    for sigma in cases:
        assert not zeros or (sigma.entries == 0.0).any()
        for _ in range(3):
            lam = np.append(rng.normal(size=m - 1), 0.0)
            value, grad = neg_log_j(sigma, lam)
            assert -value == pytest.approx(dense_log_j(sigma.entries, lam), rel=1e-12, abs=1e-13)
            differences = np.empty(m)
            for t in range(m):
                shift = np.zeros(m)
                shift[t] = step
                up, down = dense_log_j(sigma.entries, lam + shift), dense_log_j(sigma.entries, lam - shift)
                differences[t] = (up - down) / (2 * step)
            assert np.abs(-grad - differences).max() <= 1e-7 * np.linalg.norm(differences)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=8),
    zeros=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spread=st.floats(min_value=0.0, max_value=bounds.MAX_TILT_SPREAD),
)
def test_bordered_solve_keeps_the_bits_of_np_linalg_solve(m, zeros, seed, spread):
    # The gradient's bordered systems go straight to the gufunc that
    # np.linalg.solve wraps; value and gradient must be the wrapper's, bit for bit.
    rng = np.random.default_rng(seed)
    sigma = random_substochastic(rng, m, zeros)
    lam = np.append(rng.uniform(-0.5, 0.5, size=m - 1) * spread, 0.0)
    value, grad = neg_log_j(sigma, lam)
    wrapper = SimpleNamespace(solve1=lambda a, b, signature: np.linalg.solve(a, b[..., None])[..., 0])
    with mock.patch.object(bounds, "_umath_linalg", wrapper):
        wrapped_value, wrapped_grad = neg_log_j(sigma, lam)
    assert (value.hex(), grad.tobytes()) == (wrapped_value.hex(), wrapped_grad.tobytes())


def test_singular_bordered_system_raises_linalgerror(monkeypatch, sigma_fig):
    # dgesv marks a singular system with NaN and the invalid flag. As with
    # np.linalg.solve, that is a LinAlgError, before any NaN gradient reaches
    # BFGS, and no RuntimeWarning leaks out.
    solve1 = bounds._umath_linalg.solve1

    def singular(a, b, signature):
        return solve1(np.zeros_like(a), b, signature=signature)

    monkeypatch.setattr(bounds, "_umath_linalg", SimpleNamespace(solve1=singular))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            neg_log_j(sigma_fig, np.zeros(2))
        with pytest.raises(np.linalg.LinAlgError):
            rc.optimize_j(sigma_fig)


def fresh_keys(tilts):
    """`_tilt_keys` equal to no other key, so that every ask is solved fresh."""
    return [object() for _ in tilts]


@pytest.mark.parametrize("three_states", [False, True])
def test_reused_triples_change_no_bit(monkeypatch, sigma_fig, three_states):
    # optimize_j and the rate table serve repeated tilts from solved triples;
    # every field must be what fresh solves give.
    sigma = rc.validate_substochastic(SIGMA3) if three_states else sigma_fig
    law = rc.RelocationLaw.explicit([0.5, 0.5])

    def bits():
        opt = rc.optimize_j(sigma, rc.RngSpec(3))
        table = rc.rate_function_lifted(sigma, law, grid_points=11)
        scalars = [x.hex() for x in (opt.j_star, opt.j_at_one, opt.j_at_h)]
        arrays = [x.tobytes() for x in (opt.a_star, table.i_values, table.i_lifted, table.violations)]
        return scalars, arrays, opt.boundary_drift, opt.evaluations

    reused = bits()
    monkeypatch.setattr(bounds, "_tilt_keys", fresh_keys)
    assert bits() == reused


def test_optimize_j_solves_each_distinct_tilt_once(monkeypatch, sigma_fig):
    # Every Perron solve in optimize_j is of a tilted sigma, a member of a
    # stack. Fresh solves show which tilts one call asks for; with reuse,
    # each distinct tilt is solved once, and a second call pays its solves again.
    tilted = []
    perron_triples = bounds._perron_triples

    def recording(stack, *args):
        tilted.extend(a.tobytes() for a in stack)
        return perron_triples(stack, *args)

    monkeypatch.setattr(bounds, "_perron_triples", recording)
    for sigma in (sigma_fig, rc.validate_substochastic(SIGMA3)):
        with monkeypatch.context() as fresh:
            fresh.setattr(bounds, "_tilt_keys", fresh_keys)
            tilted.clear()
            rc.optimize_j(sigma)
        asked = list(tilted)
        assert len(set(asked)) < len(asked)
        for _ in range(2):
            tilted.clear()
            rc.optimize_j(sigma)
            assert sorted(tilted) == sorted(set(asked))


def test_optimize_j_reports_its_evaluations(sigma_fig):
    # BFGS on the exact gradient needs 51 evaluations of J here, counting
    # J(1), J(h) and the re-scored end points; scipy's BFGS needed 68 and
    # Nelder-Mead 237.
    res = rc.optimize_j(sigma_fig)
    assert 3 <= res.evaluations < 120


def _recorded(objective):
    """`objective` on the gauged tilt lam, appending each lam it is asked for to the returned list."""
    asked = []

    def at(lam):
        asked.append(lam.copy())
        return objective(lam)

    return at, asked


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bfgs_reaches_the_minimizer_of_a_convex_quadratic(n):
    rng = np.random.default_rng(70 + n)
    q = rng.normal(size=(n, n))
    hess = q @ q.T + 0.1 * np.eye(n)
    x_min = rng.normal(size=n)

    def quadratic(lam):
        grad = hess @ (lam[:-1] - x_min)
        return 0.5 * float((lam[:-1] - x_min) @ grad), np.append(grad, 0.0)

    run = _bfgs(quadratic, np.zeros(n), gtol=1e-10)
    assert run.bounded
    assert np.abs(hess @ (run.x - x_min)).max() <= 1e-10
    np.testing.assert_allclose(run.x, x_min, atol=1e-9)  # the least eigenvalue of hess is above 0.1


def test_bfgs_ends_on_a_value_flat_to_rounding():
    # The gradient promises a decrease the value cannot show: no step brings
    # a strict one, so the search stops where it started once a halved step
    # predicts a decrease below the rounding of 1.0 (37 evaluations).
    objective, asked = _recorded(lambda lam: (1.0 + 1e-20 * lam[0], np.array([1e-3, -1e-3, 0.0])))
    run = _bfgs(objective, np.array([0.5, 0.0]), gtol=1e-10)
    assert run.bounded
    assert run.value == 1.0 and run.x.tolist() == [0.5, 0.0]
    assert run.evaluations == len(asked) <= 40


def test_bfgs_stops_at_the_spread_bound_on_a_linear_objective():
    # -lam_0 + 2 lam_1 decreases without bound: the search takes full steps
    # until the next one would spread the log-weights past MAX_TILT_SPREAD,
    # and it never asks for that point.
    slope = np.array([-1.0, 2.0, 0.0])
    objective, asked = _recorded(lambda lam: (float(slope @ lam), slope))
    run = _bfgs(objective, np.zeros(2), gtol=1e-10)
    assert not run.bounded
    spreads = [lam.max() - lam.min() for lam in asked]
    assert max(spreads) <= bounds.MAX_TILT_SPREAD < max(spreads) + 3.0
    assert run.evaluations == len(asked)
    assert run.value == min(float(slope @ lam) for lam in asked)


@pytest.mark.filterwarnings("ignore::relochain.ProportionalToStochasticWarning")  # every 1x1 matrix
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_j_at_one_is_the_benchmark_radius_bit_for_bit(m):
    # J(1) = r exp(-rho . log 1) = r, so optimize_j reads J(1) and h off one
    # Perron triple of sigma; the value equals j_objective's at a = 1 exactly.
    rng = np.random.default_rng(300 + m)
    for _ in range(20):
        raw = rng.uniform(0.05, 1.0, size=(m, m))
        sigma = rc.validate_substochastic(raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.3, 0.98, (m, 1)))
        j_one = rc.j_objective(sigma, np.ones(m)).j_value
        assert j_one == rc.perron_triple(sigma).r
        if m <= 2:
            assert rc.optimize_j(sigma).j_at_one == j_one


def test_optimize_j_keeps_its_best_point_when_a_search_leaves_the_spread(monkeypatch, sigma_fig):
    # The maximizer of J on the benchmark has log-weight spread 0.133. Below
    # that bound each search stops, keeps the best point it evaluated and
    # reports boundary drift; the result is still a certified value of J.
    free = rc.optimize_j(sigma_fig)
    monkeypatch.setattr(bounds, "MAX_TILT_SPREAD", 0.1)
    res = rc.optimize_j(sigma_fig)
    assert res.boundary_drift
    assert res.j_at_one <= res.j_star < free.j_star
    assert res.j_star == rc.j_objective(sigma_fig, res.a_star).j_value


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unattained_lifted_supremum_raises_before_any_overflow():
    # State 0 cannot repeat, so grid points with nu_1 > 1/2 have no maximizing
    # tilt. The search must stop at the spread bound, before a Perron solve of
    # a tilt so large that the power iteration overflows.
    zero_diag = rc.validate_substochastic([[0.0, 0.9], [0.4, 0.3]])
    with pytest.raises(rc.NoConvergenceError, match="the supremum is not attained"):
        rc.rate_function_lifted(zero_diag, rc.RelocationLaw.explicit([0.5, 0.5]), grid_points=5)


def test_c2_dirac0_exact(sigma_fig):
    h = rc.perron_triple(sigma_fig).h
    est = rc.run_weighted_chains(
        sigma_fig, [rc.RelocationLaw.dirac(0)], h, steps=30_000, burnin=500, rng=rc.RngSpec(44)
    )[0]
    assert est.c2_mean == pytest.approx(math.log(R_CLOSED), abs=1e-12)


def test_c2_two_point_matches_dense_oracle(sigma_fig):
    h = rc.perron_triple(sigma_fig).h
    oracle = weighted_chain_c2_oracle(sigma_fig, h)
    est = rc.run_weighted_chains(
        sigma_fig, [rc.RelocationLaw.explicit([0.5, 0.5])], h, steps=400_000, rng=rc.RngSpec(45)
    )[0]
    assert abs(est.c2_mean - oracle) <= 4 * est.c2_se
    # strictly between the benchmark rate and the lifted rate
    assert oracle > math.log(R_CLOSED)
    r_bold = rc.lifted_spectral_radius(
        rc.build_lifted(sigma_fig, rc.RelocationLaw.explicit([0.5, 0.5]))
    ).radius
    assert oracle <= math.log(r_bold)


def test_c2_se_is_calibrated(sigma_fig):
    # The between-chain standard error covers the dense stationary average of
    # the integrand at the 3-se level in at least 18 of 20 seeds.
    h = rc.perron_triple(sigma_fig).h
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    oracle = weighted_chain_c2_oracle(sigma_fig, h)
    hits = 0
    for rep in range(20):
        est = rc.run_weighted_chains(sigma_fig, [law], h, steps=40_000, rng=rc.RngSpec(500, rep))[0]
        hits += abs(est.c2_mean - oracle) <= 3 * est.c2_se
    assert hits >= 18


def test_c2_scale_invariance(sigma_fig):
    h = rc.perron_triple(sigma_fig).h
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    one = rc.run_weighted_chains(sigma_fig, [law], h, steps=50_000, rng=rc.RngSpec(46))[0]
    two = rc.run_weighted_chains(sigma_fig, [law], 2.0 * h, steps=50_000, rng=rc.RngSpec(46))[0]
    assert abs(one.c2_mean - two.c2_mean) <= 1e-10


def test_rate_function_I_properties(sigma_fig, triple_closed):
    r, rho, h = triple_closed
    rng = np.random.default_rng(9)
    for _ in range(5):
        nu = rng.dirichlet(np.ones(2))
        assert rc.rate_function_I(sigma_fig, nu) >= -math.log(r) - 1e-12
    nu_star = rho * h
    nu_star /= nu_star.sum()
    assert rc.rate_function_I(sigma_fig, nu_star) == pytest.approx(-math.log(r), abs=1e-6)
    assert rc.rate_function_I(sigma_fig, [1.0, 0.0]) == pytest.approx(-math.log(0.72), abs=1e-14)


def test_rate_function_I_infinite_sentinel():
    zero_diag = rc.validate_substochastic([[0.0, 0.9], [0.4, 0.3]])
    assert math.isinf(rc.rate_function_I(zero_diag, [1.0, 0.0]))
    assert rc.rate_function_I(zero_diag, [0.0, 1.0]) == pytest.approx(-math.log(0.3), abs=1e-14)


def test_rate_table_dirac0_collapses(sigma_fig):
    table = rc.rate_function_lifted(sigma_fig, rc.RelocationLaw.dirac(0), grid_points=21)
    finite = np.isfinite(table.i_values)
    assert np.abs(table.i_values[finite] - table.i_lifted[finite]).max() <= 1e-8
    assert not table.violations.any()


def test_rate_table_two_point_ordering_and_duality(sigma_fig):
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    table = rc.rate_function_lifted(sigma_fig, law, grid_points=21)
    assert not table.violations.any()
    finite = np.isfinite(table.i_values)
    assert (table.i_lifted[finite] <= table.i_values[finite] + 1e-8).all()
    # convexity along the grid, and a coarse duality check against the radius
    for series in (table.i_values, table.i_lifted):
        vals = series[finite]
        mid_violation = vals[1:-1] - (vals[:-2] + vals[2:]) / 2
        assert mid_violation.max() <= 1e-8
    r_bold = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, law)).radius
    assert -table.i_lifted.min() == pytest.approx(math.log(r_bold), abs=5e-3)


def test_rate_table_needs_bounded_law(sigma_fig):
    with pytest.raises(ValueError):
        rc.rate_function_lifted(sigma_fig, rc.RelocationLaw.geometric(0.2))


def test_rate_function_I_duality_three_states():
    # At the tilt lambda the gradient of log r is pi = rho h / (rho . h), so
    # the transform at pi is attained there: I(pi) = pi . lambda - log r.
    rng = np.random.default_rng(31)
    raw = rng.uniform(0.05, 1.0, size=(3, 3))
    raw = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.5, 0.95, size=(3, 1))
    sigma = rc.validate_substochastic(raw)
    for _ in range(6):
        lam = rng.normal(size=3)
        tilted = raw * np.exp(lam)[None, :]
        vals, right = np.linalg.eig(tilted)
        vals_t, left = np.linalg.eig(tilted.T)
        h = np.abs(right[:, np.argmax(vals.real)].real)
        rho = np.abs(left[:, np.argmax(vals_t.real)].real)
        r = float(vals.real.max())
        pi = rho * h / (rho @ h)
        assert rc.rate_function_I(sigma, pi) == pytest.approx(float(pi @ lam) - math.log(r), abs=1e-9)


@pytest.mark.parametrize("masses", [[0.5, 0.5], [0.0, 0.0, 1.0], [0.2, 0.0, 0.8], [0.0, 0.3, 0.7]])
def test_rate_table_lifted_vertices_match_dense_tilts(sigma_fig, masses):
    # Tilting toward the vertex state v by e^x, x - log r of the explicitly
    # enumerated window matrix rises to the transform at e_v.
    table = rc.rate_function_lifted(sigma_fig, rc.RelocationLaw.explicit(masses), grid_points=3)
    for v, row in ((0, -1), (1, 0)):  # nu = e_0 is the last grid point, e_1 the first
        at_vertex = table.i_lifted[row]
        assert at_vertex == table.i_values[row]
        gaps = []
        for x in (5.0, 10.0, 20.0):
            a = np.ones(2)
            a[v] = math.exp(x)
            tilted = rc.tilt(sigma_fig, a)
            gaps.append(at_vertex - (x - math.log(largest_eigenvalue(window_matrix(tilted, masses)))))
        assert gaps[0] > gaps[1] > gaps[2] >= -1e-12
        assert gaps[2] <= 5e-10


def dense_window_data(tilted, masses):
    """Perron radius and newest-state marginal of l * v / (l . v) of the enumerated window matrix."""
    mat = window_matrix(tilted, masses)
    vals, right = np.linalg.eig(mat)
    vals_t, left = np.linalg.eig(mat.T)
    v = np.abs(right[:, np.argmax(vals.real)].real)
    ell = np.abs(left[:, np.argmax(vals_t.real)].real)
    m = tilted.shape[0]
    return float(vals.real.max()), (ell * v).reshape(m, -1).sum(axis=1) / (ell @ v)


@pytest.mark.parametrize(
    "sigma, masses",
    [
        (rc.benchmark_matrix().entries, [0.1, 0, 0, 0, 0, 0, 0.9]),  # N = 128
        (SIGMA3, [0.5, 0.5]),  # N = 9
        (SIGMA3, [0.3, 0.3, 0.2, 0.2]),  # N = 81
    ],
    ids=["m2-N128", "m3-N9", "m3-N81"],
)
def test_window_gradient_matches_dense_differences(sigma, masses):
    # d log r_bold / d lambda_t is the newest-state marginal of rho h; central
    # differences of the enumerated window matrix check it. At step 1e-5 the
    # truncation error is about 2e-11 and the eigenvalue rounding of the
    # 128-window matrix about 6e-10.
    validated = rc.validate_substochastic(sigma)
    sigma, m = validated.entries, validated.m
    law = rc.RelocationLaw.explicit(masses)
    rng = np.random.default_rng(11)
    step = 1e-5
    for _ in range(3):
        lam = rng.normal(size=m)
        triple = _window_triple(validated, law, np.exp(lam))
        marginal = (triple.rho * triple.h).reshape(m, -1).sum(axis=1)
        r_dense = largest_eigenvalue(window_matrix(sigma * np.exp(lam)[None, :], masses))
        assert triple.r == pytest.approx(r_dense, rel=1e-12)
        assert marginal.sum() == pytest.approx(1.0, abs=1e-12)
        for t in range(m):
            shift = np.zeros(m)
            shift[t] = step
            up = largest_eigenvalue(window_matrix(sigma * np.exp(lam + shift)[None, :], masses))
            down = largest_eigenvalue(window_matrix(sigma * np.exp(lam - shift)[None, :], masses))
            assert marginal[t] == pytest.approx((math.log(up) - math.log(down)) / (2 * step), abs=2e-9)


def test_rate_function_lifted_duality_three_states():
    # The lifted twin of the benchmark duality test: at the tilt lambda the
    # gradient of log r_bold is the newest-state marginal pi of the dense
    # eigenvectors, so the lifted transform at pi is pi . lambda - log r_bold.
    sigma = rc.validate_substochastic(SIGMA3)
    law = rc.RelocationLaw.explicit([0.5, 0.5])

    rng = np.random.default_rng(32)
    for _ in range(4):
        lam = rng.normal(size=3)
        r_bold, pi = dense_window_data(sigma.entries * np.exp(lam)[None, :], [0.5, 0.5])
        value = _legendre(lambda a: _window_triple(sigma, law, a), pi)[0]
        assert value == pytest.approx(float(pi @ lam) - math.log(r_bold), abs=1e-9)


# Tilted by exp(-S) on state 0, the window chain of this matrix has a radius
# far below its largest row sum (6.09e-5 against about 0.9 at S = 45).
BADLY_SCALED = [[0.3, 0.6, 0.0], [0.0, 0.0, 0.9], [0.8, 0.0, 0.0]]


@pytest.mark.parametrize("spread", [45, 60, 90])
def test_badly_scaled_window_chain_certifies(spread):
    # The dense eigenvector fails the certificate here. Shifted by a tenth of
    # the largest row sum, the power iteration's eigenvalue ratio sits about
    # 1e-8 below 1 and 100,000 sweeps do not certify; shifted by a tenth of
    # the dense eigenvalue, it does.
    sigma = rc.validate_substochastic(BADLY_SCALED)
    a = np.exp([-spread, 0.0, 0.0])
    triple = _window_triple(sigma, rc.RelocationLaw.explicit([0.5, 0.5]), a)
    r_dense = largest_eigenvalue(window_matrix(sigma.entries * a[None, :], [0.5, 0.5]))
    assert triple.r == pytest.approx(r_dense, rel=1e-12)


def test_badly_scaled_rate_table_reports_the_unattained_supremum():
    # Every Perron solve on the way certifies, so the table stops with the
    # documented error at nu = (0, 0.25, 0.75), whose support {1, 2} carries no cycle.
    sigma = rc.validate_substochastic(BADLY_SCALED)
    with pytest.raises(rc.NoConvergenceError, match="the supremum is not attained"):
        rc.rate_function_lifted(sigma, rc.RelocationLaw.explicit([0.5, 0.5]), grid_points=5)


def test_rate_table_three_states():
    sigma = rc.validate_substochastic(SIGMA3)
    table = rc.rate_function_lifted(sigma, rc.RelocationLaw.explicit([0.5, 0.5]), grid_points=5)
    assert table.nu_grid.shape == (15, 3)
    np.testing.assert_allclose(table.nu_grid.sum(axis=1), 1.0, atol=1e-15)
    assert not table.violations.any()
    assert (table.i_lifted <= table.i_values + 1e-8).all()
    vertices = np.flatnonzero(table.nu_grid.max(axis=1) == 1.0)
    assert len(vertices) == 3
    for row in vertices:
        v = int(np.argmax(table.nu_grid[row]))
        assert table.i_values[row] == table.i_lifted[row] == -math.log(SIGMA3[v][v])


@pytest.mark.parametrize("grid_points", [1, 0])
def test_rate_table_needs_two_grid_points(sigma_fig, grid_points):
    with pytest.raises(ValueError):
        rc.rate_function_lifted(sigma_fig, rc.RelocationLaw.dirac(0), grid_points=grid_points)


@pytest.mark.parametrize(
    "nu", [[0.7, 0.7], [math.nan, 1.0], [-0.2, 1.2], [math.inf, 0.0], [1.0], [0.2, 0.3, 0.5]],
    ids=["sum-1.4", "nan", "negative", "inf", "one-entry", "three-entries"],
)
def test_rate_function_I_takes_only_probability_vectors(sigma_fig, nu):
    # Off the simplex the transform is infinite, but the gauge lambda(last) = 0
    # hid that: the first three gave 0.2385, 0.3285 and 0.5447, and the wrong
    # lengths a bare numpy error.
    with pytest.raises(ValueError, match="probability vector on 2 states"):
        rc.rate_function_I(sigma_fig, nu)


def test_rate_function_I_unattained_supremum_raises():
    # State 0 cannot repeat, so a visit fraction above 1/2 is outside the
    # effective domain and the maximizing tilt runs off to infinity.
    zero_diag = rc.validate_substochastic([[0.0, 0.9], [0.4, 0.3]])
    with pytest.raises(rc.NoConvergenceError):
        rc.rate_function_I(zero_diag, [0.6, 0.4])
    assert math.isfinite(rc.rate_function_I(zero_diag, [0.3, 0.7]))


@pytest.mark.parametrize(
    "entries, grid_points",
    [(rc.benchmark_matrix().entries, 11), ([[0.0, 0.9], [0.4, 0.3]], 3)],
    ids=["sigma_fig", "zero_diag"],
)
def test_tilts_of_a_validated_matrix_are_not_checked_again(monkeypatch, entries, grid_points):
    # A positive tilt keeps the support validation proved irreducible, so the
    # optimizer and the rate functions never ask for the structure again, and
    # their results do not change when asking would fail.
    sigma = rc.validate_substochastic(entries)
    law = rc.RelocationLaw.explicit([0.5, 0.5])

    def run():
        opt = rc.optimize_j(sigma)
        table = rc.rate_function_lifted(sigma, law, grid_points=grid_points)
        return opt.a_star, opt.j_star, rc.rate_function_I(sigma, [0.3, 0.7]), table.i_values, table.i_lifted

    want = run()

    def refuse(raw):
        raise AssertionError("structure_flags called on a tilt")

    monkeypatch.setattr(matrices, "structure_flags", refuse)
    for got, expected in zip(run(), want):
        np.testing.assert_array_equal(got, expected)


def test_outside_input_keeps_its_checks(sigma_fig):
    with pytest.raises(rc.ReducibleError):
        rc.perron_triple([[0.5, 0.0], [0.2, 0.3]])
    with pytest.raises(rc.NegativeEntryError):
        rc.perron_triple([[0.5, -0.1], [0.2, 0.3]])
    with pytest.raises(ValueError, match="length"):
        rc.j_objective(sigma_fig, np.ones(3))
    with pytest.raises(rc.NonPositiveInputError):
        rc.j_objective(sigma_fig, [1.0, 0.0])


# The three-state matrix and law of ROADMAP's rate-table rows and of CI.
SIGMA3_CI = [[0.3, 0.3, 0.2], [0.2, 0.4, 0.3], [0.1, 0.3, 0.5]]


def grid_order_table(sigma, law, grid_points):
    """The rate table as it was computed one grid point after another: the oracle of the lockstep table.

    Each point runs the one-search `_legendre` on the lifted transform, then
    on the benchmark transform with the lifted maximizer as witness; the
    first error stops the loop.
    """
    m, k = sigma.m, grid_points - 1
    bars = np.array(list(itertools.combinations(range(k + m - 1), m - 1)), dtype=float)
    nu_grid = (np.diff(bars, axis=1, prepend=-1.0, append=k + m - 1.0) - 1.0) / k
    i_vals, i_bold = np.empty((2, len(nu_grid)))
    for idx, nu in enumerate(nu_grid):
        at_vertex = bounds._vertex_rate(sigma, nu)
        if at_vertex is not None:
            i_vals[idx] = i_bold[idx] = at_vertex
            continue
        i_bold[idx], lam_bold = _legendre(lambda a: _window_triple(sigma, law, a), nu)
        i_vals[idx] = _legendre(lambda a: benchmark_triple(sigma, a), nu, witness=lam_bold)[0]
    return nu_grid, i_vals, i_bold, i_bold > i_vals + 1e-8


def table_bytes(table):
    if isinstance(table, tuple):
        return tuple(x.tobytes() for x in table)
    return tuple(x.tobytes() for x in (table.nu_grid, table.i_values, table.i_lifted, table.violations))


def solved_alone(stack, terms=None):
    """`_perron_triples` with every member solved on its own, as a stack of one."""
    return [bounds._attempt(matrices._perron_triple, a, terms) for a in stack]


TABLE_CASES = {
    "benchmark-26": (None, [0.5, 0.5], 26),
    "benchmark-101": (None, [0.5, 0.5], 101),
    "law3-26": (None, [0.2, 0.3, 0.5], 26),
    "sigma3-11": (SIGMA3_CI, [0.2, 0.3, 0.5], 11),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_lockstep_table_keeps_the_bits_of_the_grid_order_loop(monkeypatch, sigma_fig, case):
    entries, masses, grid_points = TABLE_CASES[case]
    sigma = sigma_fig if entries is None else rc.validate_substochastic(entries)
    law = rc.RelocationLaw.explicit(masses)
    want = table_bytes(grid_order_table(sigma, law, grid_points))
    assert table_bytes(rc.rate_function_lifted(sigma, law, grid_points)) == want
    if case in ("benchmark-26", "sigma3-11"):
        monkeypatch.setattr(bounds, "_perron_triples", solved_alone)
        assert table_bytes(rc.rate_function_lifted(sigma, law, grid_points)) == want


def raised(run, *args):
    """Type and message of the error run(*args) raises."""
    with pytest.raises(Exception) as info:
        run(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("entries", [[[0.0, 0.9], [0.4, 0.3]], BADLY_SCALED], ids=["zero_diag", "badly_scaled"])
def test_table_raises_the_error_the_grid_order_loop_raises_first(entries):
    sigma = rc.validate_substochastic(entries)
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    want = raised(grid_order_table, sigma, law, 5)
    assert want[0] is rc.NoConvergenceError
    assert raised(rc.rate_function_lifted, sigma, law, 5) == want


@pytest.mark.parametrize("lifted_at, benchmark_at", [(0.7, 0.3), (0.3, 0.7), (0.5, 0.5), (0.4, None)])
def test_table_errors_follow_the_grid_order_of_interleaved_searches(monkeypatch, sigma_fig, lifted_at, benchmark_at):
    # The lockstep table runs every lifted search before any benchmark
    # search, yet raises what the loop raised: at each grid point the lifted
    # search, then the benchmark search.
    points = bounds._transform_points

    def failing(triples, nus, lams):
        replies = points(triples, nus, lams)
        for k, (triple, nu) in enumerate(zip(triples, nus)):
            kind = "lifted" if len(triple.h) > len(nu) else "benchmark"
            if round(float(nu[0]), 12) == {"lifted": lifted_at, "benchmark": benchmark_at}[kind]:
                replies[k] = ArithmeticError(f"{kind} search at nu_1 = {nu[0]}")
        return replies

    monkeypatch.setattr(bounds, "_transform_points", failing)
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    want = raised(grid_order_table, sigma_fig, law, 11)
    first = min(x for x in (lifted_at, benchmark_at) if x is not None)
    assert want[0] is ArithmeticError and f"nu_1 = {first}" in want[1]
    assert raised(rc.rate_function_lifted, sigma_fig, law, 11) == want


def simplex_points(m, k):
    """The nu with coordinates in multiples of 1/k on m states, vertices left out."""
    points = [np.array(c, dtype=float) / k for c in itertools.product(range(k + 1), repeat=m) if sum(c) == k]
    return [nu for nu in points if nu.max() < 1.0]


def outcome(run, *args):
    """run(*args) as hex, or the type and message of the error it raises."""
    try:
        return run(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "entries, k",
    [(None, 40), (SIGMA3_CI, 12), (BADLY_SCALED, 6), ([[0.0, 0.9], [0.4, 0.3]], 20)],
    ids=["sigma_fig", "sigma3", "badly_scaled", "zero_diag"],
)
def test_rate_function_I_keeps_the_bits_of_its_one_search(sigma_fig, entries, k):
    # rate_function_I runs the table's benchmark round on one point: off the
    # vertices, at interior and edge points and next to the vertices, its
    # value is that of the one-search `_legendre`, bit for bit, and where the
    # supremum is not attained it raises that search's error.
    sigma = sigma_fig if entries is None else rc.validate_substochastic(entries)
    points = simplex_points(sigma.m, k)
    if sigma.m == 2:
        points += [np.array([x, 1.0 - x]) for x in (1e-3, 1.0 - 1e-3)]
    for nu in points:
        want = outcome(lambda: _legendre(lambda a: benchmark_triple(sigma, a), nu)[0])
        assert outcome(rc.rate_function_I, sigma, nu) == want


def test_lockstep_searches_end_as_they_end_alone():
    # Three quadratic searches in one lockstep; the second is handed an error
    # on its third evaluation. The others end as `_bfgs` ends them alone, bit
    # for bit, and the second ends with that error.
    rng = np.random.default_rng(5)
    hessians = [q @ q.T + 0.1 * np.eye(2) for q in rng.normal(size=(3, 2, 2))]

    def quadratic(hess, lam):
        grad = hess @ lam[:-1] - 1.0
        return 0.5 * float(lam[:-1] @ hess @ lam[:-1]) - float(lam[:-1].sum()), np.append(grad, 0.0)

    asked = []

    def evaluate(asks):
        asked.append([i for i, _ in asks])
        return [
            ZeroDivisionError("third ask") if i == 1 and sum(1 in ids for ids in asked) == 3 else quadratic(hessians[i], lam)
            for i, lam in asks
        ]

    runs = bounds._lockstep([bounds._descent(np.zeros(2), 1e-10) for _ in hessians], evaluate)
    assert isinstance(runs[1], ZeroDivisionError)
    for i in (0, 2):
        alone = _bfgs(lambda lam: quadratic(hessians[i], lam), np.zeros(2), gtol=1e-10)
        assert (runs[i].x.tobytes(), runs[i].value, runs[i].evaluations) == (alone.x.tobytes(), alone.value, alone.evaluations)
    assert len(asked) > 3 and all(1 not in ids for ids in asked[3:])


def test_a_table_round_stays_within_its_byte_budget(monkeypatch, sigma_fig):
    # Six masses make 64-window chains, 32 KiB each, so ROUND_BYTES holds 32
    # of them and the 99 searches of a 101-point table run in parts. Without
    # parts a round of 99 would trace about 23 MB (eigenvectors, copies and
    # stack); with them the whole table stays under 10 * ROUND_BYTES.
    law = rc.RelocationLaw.explicit([1 / 6] * 6)
    part = bounds.ROUND_BYTES // (8 * 64 * 64)
    sizes = []
    stacked = bounds._perron_triples

    def recording(stack, terms=None):
        if stack.shape[1] == 64:
            sizes.append(stack.shape[0])
        return stacked(stack, terms)

    monkeypatch.setattr(bounds, "_perron_triples", recording)
    tracemalloc.start()
    try:
        table = rc.rate_function_lifted(sigma_fig, law, grid_points=101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sizes) == part and sizes.count(part) >= 3  # rounds split into full parts
    assert peak < 10 * bounds.ROUND_BYTES
    assert not table.violations.any()


def test_a_member_that_raises_leaves_the_rest_of_its_round(monkeypatch, sigma_fig):
    # The tilt (2, 1) is solved as the reducible [[0.5, 0.1], [0, 0.3]], whose
    # power path raises: its search gets that error, the others their points,
    # all from one stacked solve of the round.
    reducible = np.array([[0.5, 0.1], [0.0, 0.3]])

    def stack_of(tilts):
        return np.array([reducible if t[0] == 2.0 else sigma_fig.entries * t for t in tilts])

    calls = []
    stacked = matrices._perron_triples

    def recording(stack, *args):
        calls.append(len(stack))
        return stacked(stack, *args)

    for module in (bounds, matrices):  # a solve of one member alone counts too
        monkeypatch.setattr(module, "_perron_triples", recording)
    nus = np.array([[0.3, 0.7], [0.5, 0.5], [0.6, 0.4]])
    lams = [np.array([0.0, 0.0]), np.log([2.0, 1.0]), np.array([0.4, 0.0])]
    evaluate = bounds._transform_round(nus, 2, stack_of, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        replies = evaluate(list(enumerate(lams)))
    assert calls == [3]
    assert isinstance(replies[1], rc.NoConvergenceError) and "strict positivity" in str(replies[1])
    for i in (0, 2):
        triple = bounds._perron_triple(stack_of([np.exp(lams[i])])[0])
        ((value, grad),) = bounds._transform_points([triple], nus[i : i + 1], lams[i][None])
        assert replies[i][0] == value and replies[i][1].tobytes() == grad.tobytes()


def test_a_table_past_the_state_cap_raises_before_building_a_lift(sigma_fig):
    # dirac(10**15) would have 2**(10**15 + 1) windows. The table compares
    # through the depth, as build_lifted does, and raises build_lifted's error
    # at its first evaluation, without forming that count.
    law = rc.RelocationLaw.dirac(10**15)
    with pytest.raises(rc.StateCapExceededError) as alone:
        rc.build_lifted(sigma_fig, law)
    tracemalloc.start()
    try:
        with pytest.raises(rc.StateCapExceededError) as caught:
            rc.rate_function_lifted(sigma_fig, law, grid_points=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == str(alone.value)
    assert peak < 2**20


def sequential_neg_log_j(sigma, lam, triple_at):
    """-log J and its gradient as one bordered (m+1) x (m+1) solve of one matrix computed them: the oracle of `_neg_log_js`."""
    m = sigma.m
    a = np.exp(lam)
    triple = triple_at(a)
    r, h, rho = triple.r, triple.h, triple.rho
    mean = float(rho @ lam)
    border = np.zeros((m + 1, m + 1))
    border[:m, :m] = sigma.entries * a - r * np.eye(m)
    border[:m, m] = h
    border[m, :m] = rho
    with np.errstate(all="ignore"):
        x = bounds._umath_linalg.solve1(border, np.append(lam - mean, 0.0), signature="dd->d")[:m]
    rho_x = float(rho @ x)
    if not math.isfinite(rho_x):
        raise np.linalg.LinAlgError("Singular matrix")
    d_mean = rho + r * rho * h * rho_x - r * rho * x
    return mean - math.log(r), d_mean - rho * h


def reuse(triple_at):
    """`triple_at`, serving a tilt it has already solved (keyed by its bytes) from the triple it kept."""
    memo = {}

    def at(a):
        key = a.tobytes()
        if key not in memo:
            memo[key] = triple_at(a)
        return memo[key]

    return at


def per_start_optimize_j(sigma, rng=rc.RngSpec(0)):
    """optimize_j as it ran one `_bfgs` search per start over one memo: the oracle of the batch.

    Raises the first error of the flat solve, J(h), then each start's search
    and the re-scoring of its end.
    """
    m = sigma.m
    triple_at = reuse(lambda a: benchmark_triple(sigma, a))
    flat = triple_at(np.ones(m))
    j_one, h = flat.r, flat.h
    j_h = bounds._j_value(triple_at(h), h)
    if m == 1:
        return rc.OptimizeJResult(np.ones(1), j_one, j_one, j_h, False, 2)
    log_h = np.log(h)
    starts = [np.zeros(m - 1), (log_h - log_h[-1])[:-1], rng.generator().normal(size=m - 1)]
    best_x, best, evaluations, drift = starts[0], j_one, 2, False
    for x0 in starts:
        run = _bfgs(lambda lam: sequential_neg_log_j(sigma, lam, triple_at), x0, gtol=1e-10)
        a = np.exp(np.append(run.x, 0.0))
        j = bounds._j_value(triple_at(a), a)
        evaluations += run.evaluations + 1
        drift = drift or not run.bounded
        if j > best:
            best, best_x = j, run.x
    a_star = np.exp(np.append(best_x, 0.0))
    drift = drift or bool(np.abs(np.log(a_star)).max() > bounds.BOUNDARY_DRIFT_NORM)
    return rc.OptimizeJResult(a_star, best, j_one, j_h, drift, evaluations)


def result_bits(result):
    """Every field of an OptimizeJResult, floats by hex and a_star by bytes, or an exception's type and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    floats = [x.hex() for x in (result.j_star, result.j_at_one, result.j_at_h)]
    return result.a_star.tobytes(), floats, result.boundary_drift, result.evaluations


def scan_cases(m, count, seed=12345):
    """The first `count` (sigma, stream) cases of a conjecture scan with this m and seed, drawn as the scan draws them."""
    gen = rc.RngSpec(seed).generator()
    cases = []
    for case in range(count):
        sigma = experiments._random_substochastic(gen, m)
        experiments._random_bounded_law(gen)
        cases.append((sigma, rc.RngSpec(seed, case + 1)))
    return cases


@pytest.mark.parametrize("m", [2, 3, 4, DENSE_MAX_STATES + 1])
def test_batch_keeps_the_bits_of_per_start_calls(monkeypatch, m):
    # 20 scan cases in one batch (3 above the dense limit): every field of
    # every result is that of the per-start oracle, and that of optimize_j,
    # the batch of one. Operators of every order are solved as stacks; above
    # DENSE_MAX_STATES states each member of a stack takes the power path,
    # as j_objective solves it.
    cases = scan_cases(m, 20 if m <= DENSE_MAX_STATES else 3, seed=12345 + m)
    want = [result_bits(per_start_optimize_j(sigma, rng)) for sigma, rng in cases]
    widths = []
    stacked = bounds._perron_triples

    def recording(stack, *args):
        widths.append(stack.shape[-1])
        return stacked(stack, *args)

    monkeypatch.setattr(bounds, "_perron_triples", recording)
    batch = bounds._optimize_j_batch([sigma for sigma, _ in cases], [rng for _, rng in cases])
    assert [result_bits(result) for result in batch] == want
    assert [result_bits(rc.optimize_j(sigma, rng)) for sigma, rng in cases[:5]] == want[:5]
    assert set(widths) == {m}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_stacked_bordered_solves_keep_the_bits_of_one_matrix_solves(m):
    # 30 matrices with zeros and spread tilts in one stack: each value and
    # gradient is the one-matrix solve's, bit for bit.
    rng = np.random.default_rng(700 + m)
    sigmas = [random_substochastic(rng, m, zeros=k % 2 == 1) for k in range(30)]
    lams = np.array([np.append(rng.uniform(-3.0, 3.0, size=m - 1), 0.0) for _ in sigmas])
    tilts = np.exp(lams)
    triples = [benchmark_triple(sigma, a) for sigma, a in zip(sigmas, tilts)]
    tilted = np.array([sigma.entries * a for sigma, a in zip(sigmas, tilts)])
    stacked = bounds._neg_log_js(tilted, lams, triples)
    for sigma, lam, triple, (value, grad) in zip(sigmas, lams, triples, stacked):
        want_value, want_grad = sequential_neg_log_j(sigma, lam, lambda a: triple)
        assert (value.hex(), grad.tobytes()) == (want_value.hex(), want_grad.tobytes())


def case_order_scan(config, path):
    """conjecture.csv as the scan wrote it, solving and optimizing one case after another: the oracle of the batched scan."""
    gen = rc.RngSpec(config.seed).generator()
    rows = []
    for case in range(config.count):
        sigma = experiments._random_substochastic(gen, config.m)
        law = experiments._random_bounded_law(gen)
        r_bold = experiments.lifted_spectral_radius(experiments.build_lifted(sigma, law, mode="exact")).radius
        opt = per_start_optimize_j(sigma, rc.RngSpec(config.seed, case + 1))
        rows.append([str(case), opt.j_at_one, opt.j_star, r_bold, str(int(r_bold > opt.j_star + 1e-6))])
    experiments.write_csv(path, ["case_id", "r", "J_star", "r_bold", "violated"], rows)


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_SCAN = load_config(os.path.join(REPO_ROOT, "configs", "conjecture.cfg"))


@pytest.mark.parametrize("m", [2, 3], ids=["shipped", "m3"])
def test_scan_keeps_the_bytes_of_the_case_order_loop(tmp_path, m):
    config = dataclasses.replace(SHIPPED_SCAN, m=m, outdir=str(tmp_path / "scan"))
    rc.run_config(config)
    case_order_scan(config, tmp_path / "oracle.csv")
    assert (tmp_path / "scan" / "conjecture.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def singular_member(target):
    """A `solve1` that zeroes the bordered system whose (matrix, right side) bytes are `target` before dgesv solves it."""
    solve1 = bounds._umath_linalg.solve1

    def solve(a, b, signature):
        a = a.copy()
        for k in np.ndindex(b.shape[:-1]):
            if (a[k].tobytes(), b[k].tobytes()) == target:
                a[k] = 0.0
        return solve1(a, b, signature=signature)

    return solve


def bordered_system(sigma, rng, start, evaluation):
    """(matrix, right side) bytes of one bordered system that the per-start oracle solves for `sigma`.

    The one of the evaluation-th ask of the start-th search; the first two
    evaluations of a start are those of its first step, so any evaluation
    from the third on is asked by that start alone.
    """
    systems = []
    solve1 = bounds._umath_linalg.solve1

    def recording(a, b, signature):
        systems.append((a.tobytes(), b.tobytes()))
        return solve1(a, b, signature=signature)

    with mock.patch.object(bounds, "_umath_linalg", SimpleNamespace(solve1=recording)):
        runs = []
        bfgs = _bfgs

        def counted(objective, x0, gtol):
            runs.append(len(systems))
            return bfgs(objective, x0, gtol)

        with mock.patch.dict(globals(), {"_bfgs": counted}):
            per_start_optimize_j(sigma, rng)
    return systems[runs[start] + evaluation]


@pytest.mark.parametrize("case, start", [(1, 2), (3, 0)])
def test_batch_raises_what_the_sequential_loops_raise_first(monkeypatch, tmp_path, case, start):
    # One start of one case meets a singular bordered system (NaN from
    # solve1, as dgesv marks it): that case's result is the LinAlgError its
    # call raises, and the other cases keep their bits. The scan raises what
    # the case-order loop raises first, also when a later or earlier case's
    # lift fails to converge.
    config = dataclasses.replace(SHIPPED_SCAN, count=5, outdir=str(tmp_path / "scan"))
    cases = scan_cases(config.m, config.count, config.seed)
    target = bordered_system(*cases[case], start, 4)
    monkeypatch.setattr(bounds, "_umath_linalg", SimpleNamespace(solve1=singular_member(target)))
    want = [result_bits(bounds._attempt(per_start_optimize_j, sigma, rng)) for sigma, rng in cases]
    assert [k for k, bits in enumerate(want) if bits[0] is np.linalg.LinAlgError] == [case]
    batch = bounds._optimize_j_batch([sigma for sigma, _ in cases], [rng for _, rng in cases])
    assert [result_bits(result) for result in batch] == want
    assert raised(rc.run_config, config) == raised(case_order_scan, config, tmp_path / "oracle.csv")

    solve = experiments.lifted_spectral_radius
    for failing in (2, 4):
        calls = []

        def lift(chain):
            calls.append(chain)
            if len(calls) == failing + 1:
                raise rc.NoConvergenceError(f"lift of case {failing}")
            return solve(chain)

        monkeypatch.setattr(experiments, "lifted_spectral_radius", lift)
        want = raised(case_order_scan, config, tmp_path / "oracle.csv")
        assert want[0] is (rc.NoConvergenceError if failing < case else np.linalg.LinAlgError)
        calls.clear()
        assert raised(rc.run_config, config) == want
